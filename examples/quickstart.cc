// Quickstart: define a UDAF as a mathematical expression and run it in SQL.
//
//   $ ./quickstart
//
// Walks through the core SUDAF workflow:
//   1. load a table into the catalog,
//   2. define a UDAF declaratively (no initialize/update/merge/evaluate!),
//   3. inspect its rewritten form (built-in partial aggregates + T),
//   4. execute under the three modes and watch the cache work.

#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "sudaf/sudaf.h"

using namespace sudaf;  // NOLINT — example brevity

int main() {
  // 1. A small sensor table: readings(device INT64, temp FLOAT64).
  Schema schema;
  SUDAF_CHECK(schema.AddField({"device", DataType::kInt64}).ok());
  SUDAF_CHECK(schema.AddField({"temp", DataType::kFloat64}).ok());
  auto readings = std::make_unique<Table>(std::move(schema));
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    readings->column(0).AppendInt64(1 + rng.NextBelow(4));
    readings->column(1).AppendFloat64(15.0 + 10.0 * rng.NextDouble());
  }
  readings->FinishBulkAppend();

  Catalog catalog;
  catalog.PutTable("readings", std::move(readings));
  SudafSession session(&catalog);

  // 2. Define a UDAF as a mathematical expression. The standard library
  //    already ships avg/var/stddev/qm/gm/hm/skewness/...; here is a custom
  //    one: the contraharmonic mean.
  Status st = session.library().Define("contraharmonic", {"v"},
                                       "sum(v^2) / sum(v)");
  SUDAF_CHECK_MSG(st.ok(), st.ToString());

  const std::string query =
      "SELECT device, contraharmonic(temp), stddev(temp) "
      "FROM readings GROUP BY device ORDER BY device";

  // 3. What does SUDAF turn this into?
  auto explain = session.ExplainRewrite(query);
  SUDAF_CHECK_MSG(explain.ok(), explain.status().ToString());
  std::printf("%s\n\n", explain->c_str());

  // 4. Execute. kEngine = the engine baseline (each UDAF run row at a
  //    time through initialize/update/merge/evaluate, derived from its
  //    definition), kSudafNoShare = rewrite only, kSudafShare = rewrite +
  //    state cache.
  auto first = session.Execute(query, ExecMode::kSudafShare);
  SUDAF_CHECK_MSG(first.ok(), first.status().ToString());
  std::printf("first run (%0.2f ms, computed %d states):\n%s\n",
              first->stats.total_ms, first->stats.states_computed,
              (*first)->ToString().c_str());

  // The engine baseline returns the same answers, only slower.
  auto engine = session.Execute(query, ExecMode::kEngine);
  SUDAF_CHECK_MSG(engine.ok(), engine.status().ToString());
  std::printf("engine baseline (%0.2f ms):\n%s\n", engine->stats.total_ms,
              (*engine)->ToString().c_str());
  for (int64_t r = 0; r < (*first)->num_rows(); ++r) {
    const double want = (*first)->column(1).GetFloat64(r);
    const double got = (*engine)->column(1).GetFloat64(r);
    if (!(std::fabs(got - want) <= 1e-9 * std::fabs(want))) {
      std::fprintf(stderr, "engine and share mode disagree: %.17g vs %.17g\n",
                   got, want);
      return 1;
    }
  }

  // A *different* UDAF over the same data: qm needs Σtemp² and count —
  // Σtemp² is served from the cache (contraharmonic computed it); only the
  // tiny count state is computed fresh.
  auto second = session.Execute(
      "SELECT device, qm(temp) FROM readings GROUP BY device ORDER BY device",
      ExecMode::kSudafShare);
  SUDAF_CHECK_MSG(second.ok(), second.status().ToString());
  std::printf(
      "qm run (%0.2f ms, %d/%d states from cache, scanned base data: %s):\n"
      "%s\n",
      second->stats.total_ms, second->stats.states_from_cache,
      second->stats.num_states,
      second->stats.scanned_base_data ? "yes" : "no",
      (*second)->ToString().c_str());
  return 0;
}
