// Incremental cache maintenance: append deltas to a cached table and
// re-run mixed-UDAF share queries, folding a fused pass over ONLY the
// delta segments into the cached states — versus the epoch-nuke baseline
// that recomputes every state from a full scan after each append.
//
//   $ ./bench_incremental [--rows N] [--rounds K] [--smoke]
//
// Both sides see the identical table history (base + K appends of ~1% of
// the base). The incremental side keeps one session whose cache survives
// appends: each round the probe sees a matching rewrite epoch but a
// lagging append epoch and refreshes the set from the delta segments.
// The baseline side opens a cold session per query per round, so every
// round pays a full rescan of the (growing) table.
//
// Writes BENCH_incremental.json (sudaf.bench_incremental.v1) to the build
// tree, or to --out PATH: per-side wall time and rows scanned, the refresh
// counters, the cache probe accounting, and the append work: the time in
// AppendRows (append_wall_ms) and the bytes it copied into storage
// (append_bytes_copied, Catalog::append_bytes_copied). The CI perf-smoke
// gate asserts the structural properties —
// delta refreshes happened, delta rows scanned are a small fraction of
// the baseline's full-scan rows, the probe accounting identity
// `set_hits + delta_refreshes + full_invalidations == probes`, and the
// append bytes within the chunk-coalescing bound and below one copy of
// the base table — none of which depend on machine speed.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/timer.h"
#include "datagen/milan_like.h"
#include "sudaf/sudaf.h"

using namespace sudaf;  // NOLINT — bench brevity

namespace {

// Two data signatures: the unfiltered set shares power sums across the
// first two queries (the second is served from the refreshed set), the
// filtered one refreshes independently.
std::vector<std::string> Queries() {
  const std::string t = "internet_traffic";
  return {
      "SELECT square_id, avg(" + t + "), var(" + t + "), stddev(" + t +
          ") FROM milan_data GROUP BY square_id ORDER BY square_id",
      "SELECT square_id, sum(" + t + "), count(" + t +
          ") FROM milan_data GROUP BY square_id ORDER BY square_id",
      "SELECT square_id, avg(" + t + "), kurtosis(" + t +
          ") FROM milan_data WHERE " + t +
          " > 1.0 GROUP BY square_id ORDER BY square_id",
  };
}

std::unique_ptr<Table> MakeDelta(int64_t rows, uint64_t seed) {
  MilanOptions milan;
  milan.num_rows = rows;
  milan.seed = seed;
  return GenerateMilanData(milan);
}

}  // namespace

int main(int argc, char** argv) {
  int64_t rows = 2'000'000;
  int rounds = 8;
  std::string out =
      std::string(SUDAF_BENCH_OUT_DIR) + "/BENCH_incremental.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      rounds = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      rows = 200'000;
      rounds = 4;
    }
  }
  const int64_t delta_rows = rows / 100;

  // Two catalogs with identical histories, one per side, so the baseline's
  // appends cannot perturb the incremental session's epochs.
  MilanOptions milan;
  milan.num_rows = rows;
  Catalog inc_catalog;
  inc_catalog.PutTable("milan_data", GenerateMilanData(milan));
  Catalog base_catalog;
  base_catalog.PutTable("milan_data", GenerateMilanData(milan));

  const std::vector<std::string> queries = Queries();
  std::printf(
      "incremental maintenance: %zu queries, %lld base rows, "
      "%d appends of %lld rows\n\n",
      queries.size(), static_cast<long long>(rows), rounds,
      static_cast<long long>(delta_rows));

  // --- Incremental side: one session, cache folds each delta ----------------
  SudafSession session(&inc_catalog);
  double cold_ms = 0;
  {
    double t0 = NowMs();
    for (const std::string& sql : queries) {
      auto r = session.Execute(sql, ExecMode::kSudafShare);
      SUDAF_CHECK_MSG(r.ok(), r.status().ToString());
    }
    cold_ms = NowMs() - t0;
  }

  double inc_ms = 0;
  double append_ms = 0;  // AppendRows alone, every round
  int64_t inc_delta_refreshes = 0;
  int64_t inc_delta_rows_scanned = 0;
  int64_t inc_full_invalidations = 0;
  int64_t inc_states_from_cache = 0;
  for (int round = 0; round < rounds; ++round) {
    auto delta = MakeDelta(delta_rows, /*seed=*/0xde17a + round);
    const double a0 = NowMs();
    SUDAF_CHECK_MSG(inc_catalog.AppendRows("milan_data", *delta).ok(),
                    "append failed");
    append_ms += NowMs() - a0;
    double t0 = NowMs();
    for (const std::string& sql : queries) {
      auto r = session.Execute(sql, ExecMode::kSudafShare);
      SUDAF_CHECK_MSG(r.ok(), r.status().ToString());
      inc_delta_refreshes += r->stats.cache_delta_refreshes;
      inc_delta_rows_scanned += r->stats.cache_delta_rows_scanned;
      inc_full_invalidations += r->stats.cache_full_invalidations;
      inc_states_from_cache += r->stats.states_from_cache;
    }
    inc_ms += NowMs() - t0;
  }
  // Row-value bytes of one delta and of the base table: the units of the
  // append-work bound the CI gate checks.
  int64_t row_bytes = 0;
  {
    const Table& t = **inc_catalog.GetTable("milan_data");
    for (int c = 0; c < t.num_columns(); ++c) {
      row_bytes += t.column(c).type() == DataType::kString ? 4 : 8;
    }
  }
  const int64_t append_bytes_copied = inc_catalog.append_bytes_copied();
  std::printf(
      "incremental: %8.1f ms warm (%.1f ms cold)  %lld refreshes  "
      "%lld delta rows scanned  %lld full invalidations\n"
      "appends:     %8.3f ms  %lld bytes copied (one delta: %lld)\n",
      inc_ms, cold_ms, static_cast<long long>(inc_delta_refreshes),
      static_cast<long long>(inc_delta_rows_scanned),
      static_cast<long long>(inc_full_invalidations), append_ms,
      static_cast<long long>(append_bytes_copied),
      static_cast<long long>(delta_rows * row_bytes));

  // --- Baseline: epoch-nuke semantics — cold session per query per round ----
  double base_ms = 0;
  int64_t base_rows_scanned = 0;
  int64_t table_rows = rows;
  for (int round = 0; round < rounds; ++round) {
    auto delta = MakeDelta(delta_rows, /*seed=*/0xde17a + round);
    SUDAF_CHECK_MSG(base_catalog.AppendRows("milan_data", *delta).ok(),
                    "append failed");
    table_rows += delta_rows;
    double t0 = NowMs();
    for (const std::string& sql : queries) {
      SudafSession cold(&base_catalog);
      auto r = cold.Execute(sql, ExecMode::kSudafShare);
      SUDAF_CHECK_MSG(r.ok(), r.status().ToString());
      if (r->stats.scanned_base_data) base_rows_scanned += table_rows;
    }
    base_ms += NowMs() - t0;
  }
  std::printf("baseline:    %8.1f ms  %lld full-scan rows\n", base_ms,
              static_cast<long long>(base_rows_scanned));

  const StateCache::Counters c = session.cache().counters();
  const double rows_reduction =
      inc_delta_rows_scanned > 0
          ? static_cast<double>(base_rows_scanned) / inc_delta_rows_scanned
          : 0;
  std::printf(
      "\nrows scanned: %.0fx fewer, wall: %.1fx  (probes %lld = hits %lld "
      "+ refreshes %lld + invalidations %lld)\n",
      rows_reduction, inc_ms > 0 ? base_ms / inc_ms : 0,
      static_cast<long long>(c.probes), static_cast<long long>(c.set_hits),
      static_cast<long long>(c.delta_refreshes),
      static_cast<long long>(c.full_invalidations));

  FILE* json = std::fopen(out.c_str(), "w");
  SUDAF_CHECK_MSG(json != nullptr, "cannot open " + out);
  std::fprintf(json,
               "{\n"
               "  \"schema\": \"sudaf.bench_incremental.v1\",\n"
               "  \"base_rows\": %lld,\n"
               "  \"delta_rows\": %lld,\n"
               "  \"rounds\": %d,\n"
               "  \"queries\": %zu,\n"
               "  \"base_bytes\": %lld,\n"
               "  \"delta_bytes\": %lld,\n"
               "  \"incremental\": {\n"
               "    \"cold_wall_ms\": %.3f,\n"
               "    \"warm_wall_ms\": %.3f,\n"
               "    \"append_wall_ms\": %.3f,\n"
               "    \"append_bytes_copied\": %lld,\n"
               "    \"delta_refreshes\": %lld,\n"
               "    \"delta_rows_scanned\": %lld,\n"
               "    \"full_invalidations\": %lld,\n"
               "    \"states_from_cache\": %lld\n"
               "  },\n"
               "  \"baseline\": {\n"
               "    \"wall_ms\": %.3f,\n"
               "    \"rows_scanned\": %lld\n"
               "  },\n"
               "  \"cache\": {\n"
               "    \"probes\": %lld,\n"
               "    \"set_hits\": %lld,\n"
               "    \"delta_refreshes\": %lld,\n"
               "    \"delta_rows_scanned\": %lld,\n"
               "    \"full_invalidations\": %lld\n"
               "  },\n"
               "  \"rows_scan_reduction\": %.3f\n"
               "}\n",
               static_cast<long long>(rows),
               static_cast<long long>(delta_rows), rounds, queries.size(),
               static_cast<long long>(rows * row_bytes),
               static_cast<long long>(delta_rows * row_bytes), cold_ms, inc_ms,
               append_ms, static_cast<long long>(append_bytes_copied),
               static_cast<long long>(inc_delta_refreshes),
               static_cast<long long>(inc_delta_rows_scanned),
               static_cast<long long>(inc_full_invalidations),
               static_cast<long long>(inc_states_from_cache), base_ms,
               static_cast<long long>(base_rows_scanned),
               static_cast<long long>(c.probes),
               static_cast<long long>(c.set_hits),
               static_cast<long long>(c.delta_refreshes),
               static_cast<long long>(c.delta_rows_scanned),
               static_cast<long long>(c.full_invalidations), rows_reduction);
  std::fclose(json);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
