// End-to-end thread-count determinism of the parallel pipeline.
//
// The contract (docs/execution.md): every parallel stage — WHERE filter,
// a join's column gather and the fused chunk-tree accumulation — produces
// results that are BITWISE identical at every thread count, including the
// serial path, for a fixed morsel size. Parallelism may only change
// wall-clock time, never a single output bit: selection vectors are
// written in row order via prefix-summed offsets, grouping is one serial
// first-occurrence pass, and the accumulation tree's shape is a pure
// function of input size and morsel size (never the worker count).
//
// These tests run under the TSan CI shard (tools/check.sh re-runs
// ParallelPipelineTest.* in the tsan build), so they double as the data-race
// gate for the pipeline stages.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/executor.h"
#include "gtest/gtest.h"
#include "sql/statement.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

// 60k rows / morsel_size 1024 → ~59 morsels, so every stage actually
// splits: multi-range filter + join gather and a multi-chunk fused
// accumulation tree.
constexpr int64_t kRows = 60000;
constexpr int kMorsel = 1024;

Catalog MakeCatalog() {
  Rng rng(20260808);
  std::vector<int64_t> g;
  std::vector<double> x;
  std::vector<double> y;
  for (int64_t i = 0; i < kRows; ++i) {
    g.push_back(static_cast<int64_t>(rng.NextBelow(211)));
    x.push_back(rng.NextDoubleIn(0.25, 4.0));
    y.push_back(rng.NextDoubleIn(-2.0, 2.0));
  }
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable(g, x, y));
  // d(k, w): one row per key of t.g, for the join.
  Schema schema;
  SUDAF_CHECK(schema.AddField({"k", DataType::kInt64}).ok());
  SUDAF_CHECK(schema.AddField({"w", DataType::kFloat64}).ok());
  auto dim = std::make_unique<Table>(std::move(schema));
  for (int64_t k = 0; k < 211; ++k) {
    dim->column(0).AppendInt64(k);
    dim->column(1).AppendFloat64(rng.NextDoubleIn(-1.0, 1.0));
  }
  dim->FinishBulkAppend();
  catalog.PutTable("d", std::move(dim));
  return catalog;
}

ExecOptions OptsFor(int threads) {
  ExecOptions opts;
  opts.parallel = threads > 1;
  opts.num_threads = threads;
  opts.morsel_size = kMorsel;
  return opts;
}

// Bitwise table equality: FLOAT64 cells compare as bit patterns (so -0.0
// vs 0.0 or any ulp of drift fails), not within a tolerance.
void ExpectTablesBitIdentical(const Table& a, const Table& b,
                              const std::string& context) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << context;
  for (int c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.schema().field(c).name, b.schema().field(c).name) << context;
    ASSERT_EQ(a.column(c).type(), b.column(c).type()) << context;
    for (int64_t r = 0; r < a.num_rows(); ++r) {
      switch (a.column(c).type()) {
        case DataType::kInt64:
          ASSERT_EQ(a.column(c).GetInt64(r), b.column(c).GetInt64(r))
              << context << " col " << c << " row " << r;
          break;
        case DataType::kString:
          ASSERT_EQ(a.column(c).GetString(r), b.column(c).GetString(r))
              << context << " col " << c << " row " << r;
          break;
        case DataType::kFloat64: {
          double da = a.column(c).GetFloat64(r);
          double db = b.column(c).GetFloat64(r);
          ASSERT_EQ(0, std::memcmp(&da, &db, sizeof(double)))
              << context << " col " << c << " row " << r << ": " << da
              << " vs " << db;
          break;
        }
      }
    }
  }
}

// Executor::Prepare — the filter/bind/group stages in isolation — must
// produce an identical selection, identical group ids, and identical
// group-key row order at every thread count (1 = the serial reference).
// A single-table scan gathers no frame.
TEST(ParallelPipelineTest, PrepareIsThreadCountInvariant) {
  Catalog catalog = MakeCatalog();
  Executor executor(&catalog);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<SelectStatement> stmt,
      ParseSelect("SELECT g, sum(x) FROM t WHERE x > 0.5 AND y < 1.5 "
                  "GROUP BY g"));

  ASSERT_OK_AND_ASSIGN(PreparedInput serial,
                       executor.Prepare(*stmt, {"y"}, OptsFor(1)));
  ASSERT_EQ(serial.frame, nullptr);
  ASSERT_GT(serial.num_input_rows, 0);
  ASSERT_LT(serial.num_input_rows, kRows);  // the WHERE actually filtered
  ASSERT_GT(serial.num_groups, 1);

  for (int threads : {2, 8}) {
    ASSERT_OK_AND_ASSIGN(PreparedInput par,
                         executor.Prepare(*stmt, {"y"}, OptsFor(threads)));
    std::string ctx = "threads=" + std::to_string(threads);
    ASSERT_EQ(par.num_input_rows, serial.num_input_rows) << ctx;
    ASSERT_EQ(par.row_ids, serial.row_ids) << ctx;
    ASSERT_EQ(par.num_groups, serial.num_groups) << ctx;
    ASSERT_EQ(par.group_ids, serial.group_ids) << ctx;
    ASSERT_EQ(par.frame, nullptr) << ctx;
    ExpectTablesBitIdentical(*serial.group_keys, *par.group_keys,
                             ctx + " group_keys");
  }
}

// A join is the one input that gathers a frame, in parallel (column ×
// row-range tasks): the frame, the group ids and the group keys are
// bitwise identical at every thread count.
TEST(ParallelPipelineTest, JoinFrameIsThreadCountInvariant) {
  Catalog catalog = MakeCatalog();
  Executor executor(&catalog);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<SelectStatement> stmt,
      ParseSelect("SELECT g, sum(x * w) FROM t, d WHERE g = k AND x > 0.5 "
                  "GROUP BY g"));

  ASSERT_OK_AND_ASSIGN(PreparedInput serial,
                       executor.Prepare(*stmt, {"y"}, OptsFor(1)));
  ASSERT_NE(serial.frame, nullptr);
  ASSERT_GT(serial.num_input_rows, 0);
  ASSERT_LT(serial.num_input_rows, kRows);  // the WHERE actually filtered
  ASSERT_EQ(serial.frame->num_rows(), serial.num_input_rows);
  ASSERT_EQ(serial.frame->num_columns(), 4);  // g, x, w, y
  ASSERT_GT(serial.num_groups, 1);

  for (int threads : {2, 8}) {
    ASSERT_OK_AND_ASSIGN(PreparedInput par,
                         executor.Prepare(*stmt, {"y"}, OptsFor(threads)));
    std::string ctx = "join threads=" + std::to_string(threads);
    ASSERT_NE(par.frame, nullptr) << ctx;
    ASSERT_EQ(par.num_input_rows, serial.num_input_rows) << ctx;
    ASSERT_EQ(par.num_groups, serial.num_groups) << ctx;
    ASSERT_EQ(par.group_ids, serial.group_ids) << ctx;
    ExpectTablesBitIdentical(*serial.frame, *par.frame, ctx + " frame");
    ExpectTablesBitIdentical(*serial.group_keys, *par.group_keys,
                             ctx + " group_keys");
  }
}

// Full-query invariance in every execution mode: grouped, grouped + WHERE,
// and ungrouped (+ WHERE) queries return bitwise-identical tables at
// num_threads ∈ {1, 2, 8}, and the derived ExecStats describe the same
// work (state counts, group counts — everything but the timings).
TEST(ParallelPipelineTest, QueriesAreThreadCountInvariant) {
  Catalog catalog = MakeCatalog();
  const std::vector<std::string> queries = {
      "SELECT g, kurtosis(x), var(x), sum(x*y) FROM t GROUP BY g",
      "SELECT g, skewness(x), count(x) FROM t WHERE x > 1.0 GROUP BY g",
      "SELECT sum(x), var(y), count(x) FROM t WHERE y > -1.0",
      "SELECT g, gm(x), hm(x) FROM t WHERE g < 100 GROUP BY g "
      "ORDER BY g LIMIT 50",
  };
  for (ExecMode mode :
       {ExecMode::kEngine, ExecMode::kSudafNoShare, ExecMode::kSudafShare}) {
    for (const std::string& sql : queries) {
      // A fresh session per run keeps the cache cold, so every thread count
      // computes its states from scratch (identical stats, not cache hits).
      SudafSession ref_session(&catalog, SessionOptions{}.set_exec(OptsFor(1)));
      ASSERT_OK_AND_ASSIGN(QueryResult ref, ref_session.Execute(sql, mode));
      for (int threads : {2, 8}) {
        SudafSession session(&catalog,
            SessionOptions{}.set_exec(OptsFor(threads)));
        ASSERT_OK_AND_ASSIGN(QueryResult got, session.Execute(sql, mode));
        std::string ctx = sql + " threads=" + std::to_string(threads);
        ExpectTablesBitIdentical(*ref.table, *got.table, ctx);
        EXPECT_EQ(got.stats.num_states, ref.stats.num_states) << ctx;
        EXPECT_EQ(got.stats.states_computed, ref.stats.states_computed)
            << ctx;
        EXPECT_EQ(got.stats.used_fused, ref.stats.used_fused) << ctx;
        EXPECT_EQ(got.stats.morsels, ref.stats.morsels) << ctx;
        EXPECT_EQ(got.stats.fused_channels, ref.stats.fused_channels) << ctx;
      }
    }
  }
}

// Turning parallelism off entirely (parallel=false) is just "one worker"
// to the chunk tree: the serial path must agree bit-for-bit with the
// 8-thread run at the same morsel size.
TEST(ParallelPipelineTest, SerialPathIsTheOneWorkerCase) {
  Catalog catalog = MakeCatalog();
  ExecOptions serial;
  serial.morsel_size = kMorsel;  // parallel = false
  SudafSession a(&catalog, SessionOptions{}.set_exec(serial));
  SudafSession b(&catalog, SessionOptions{}.set_exec(OptsFor(8)));
  const std::string sql =
      "SELECT g, kurtosis(x), sum(x^3) FROM t WHERE x < 3.5 GROUP BY g";
  ASSERT_OK_AND_ASSIGN(QueryResult ra, a.Execute(sql, ExecMode::kSudafShare));
  ASSERT_OK_AND_ASSIGN(QueryResult rb, b.Execute(sql, ExecMode::kSudafShare));
  ExpectTablesBitIdentical(*ra.table, *rb.table, "serial vs 8 threads");
}

// Repeated parallel runs of one fixed configuration are bitwise stable —
// dynamic chunk claiming must not leak scheduling order into values.
TEST(ParallelPipelineTest, RepeatedParallelRunsAreBitwiseStable) {
  Catalog catalog = MakeCatalog();
  const std::string q =
      "SELECT g, var(x), sum(x*y) FROM t WHERE y > -1.5 GROUP BY g";
  SudafSession first_session(&catalog, SessionOptions{}.set_exec(OptsFor(8)));
  ASSERT_OK_AND_ASSIGN(QueryResult first,
                       first_session.Execute(q, ExecMode::kSudafNoShare));
  for (int run = 0; run < 3; ++run) {
    SudafSession session(&catalog, SessionOptions{}.set_exec(OptsFor(8)));
    ASSERT_OK_AND_ASSIGN(QueryResult again,
                         session.Execute(q, ExecMode::kSudafNoShare));
    ExpectTablesBitIdentical(*first.table, *again.table,
                             "run " + std::to_string(run));
  }
}

// The pipeline's observability: phase spans nest under "input", the phase
// dcounters surface in ExecStats and ProfileJson, and the per-pass
// threads_used histogram drives ExecStats::fused_threads.
TEST(ParallelPipelineTest, PipelinePhasesAreObservable) {
  Catalog catalog = MakeCatalog();
  SudafSession session(&catalog, SessionOptions{}.set_exec(OptsFor(8)));
  ASSERT_OK_AND_ASSIGN(
      QueryResult result,
      session.Execute("SELECT g, kurtosis(x) FROM t WHERE x > 0.5 GROUP BY g",
                      ExecMode::kSudafShare));
  ASSERT_NE(result.trace, nullptr);
  // The three pipeline stages recorded spans and their dcounter times are
  // the same measurement.
  EXPECT_DOUBLE_EQ(result.trace->SpanMs("filter"), result.stats.filter_ms);
  EXPECT_DOUBLE_EQ(result.trace->SpanMs("gather"), result.stats.gather_ms);
  EXPECT_DOUBLE_EQ(result.trace->SpanMs("group"), result.stats.group_ms);
  EXPECT_GE(result.stats.filter_ms, 0.0);
  // The fused pass recorded its worker count per pass.
  EXPECT_GE(result.stats.fused_threads, 1);
  EXPECT_GE(result.trace->EventCount("threads_used"), 1);
  std::string json = result.ProfileJson();
  for (const char* key : {"\"filter_ms\":", "\"gather_ms\":",
                          "\"group_ms\":", "\"threads_used\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

}  // namespace
}  // namespace sudaf
