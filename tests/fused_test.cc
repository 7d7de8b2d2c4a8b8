// Property tests for the fused StateBatch executor: for every aggregation
// op and a family of input expressions, the fused morsel-driven pass must
// agree with an independent per-state reference (EvalRow row by row, then
// ComputeGroupedState), serially and in parallel, and repeated parallel
// runs must be bitwise deterministic.
//
// Tolerance contract: count, min and max are exact in every configuration
// (the accumulated values are identical, only the visit order changes).
// The fused pass folds rows through a fixed chunk tree whose shape depends
// only on input size and morsel size — never the worker count — so for a
// given configuration results are bitwise identical at every thread count,
// and a single-chunk input (≤ one morsel, like the fixture of
// MatchesLegacyAcrossOpsAndExpressions) is bitwise equal to the
// reference's serial order. Constant powers are exact there too: EvalRow
// lowers x^c through EvalPow, the rule the fused DAG builds its
// multiplication chains by. Only Σ ln channels compare within 1e-12
// relative (the fused pass multiplies mantissas and adds exponents instead
// of summing per-row logs; tests/log_product_test.cc checks them against a
// long double oracle), and so does every sum and product of a multi-chunk
// pass, whose chunk merges reorder the additions.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "agg/builtin_kernels.h"
#include "bench_support/grouped_state.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "engine/aggregation.h"
#include "engine/state_batch.h"
#include "expr/evaluator.h"
#include "expr/parser.h"
#include "gtest/gtest.h"
#include "storage/column.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

using testing_util::ExpectClose;

// A three-column frame (x FLOAT64, y FLOAT64, k INT64) with random values
// kept near 1 so products stay bounded, plus random group ids.
struct FusedFixture {
  Column x{DataType::kFloat64};
  Column y{DataType::kFloat64};
  Column k{DataType::kInt64};
  std::vector<int32_t> gids;
  int32_t num_groups = 0;

  FusedFixture(int64_t n, int32_t groups, uint64_t seed) : num_groups(groups) {
    Rng rng(seed);
    gids.resize(n);
    for (int64_t i = 0; i < n; ++i) {
      x.AppendFloat64(0.8 + 0.4 * rng.NextDouble());
      y.AppendFloat64(rng.NextDoubleIn(-2.0, 2.0));
      k.AppendInt64(static_cast<int64_t>(rng.NextBelow(100)));
      gids[i] = static_cast<int32_t>(rng.NextBelow(groups));
    }
  }

  Result<const Column*> Find(const std::string& name) const {
    if (name == "x") return &x;
    if (name == "y") return &y;
    if (name == "k") return &k;
    return Status::InvalidArgument("no column " + name);
  }
  ColumnBinder Binder() const {
    return [this](const std::string& name) -> Result<BoundColumn> {
      SUDAF_ASSIGN_OR_RETURN(const Column* col, Find(name));
      return BoundColumn{col, nullptr, 0};
    };
  }
};

struct ParsedRequest {
  ExprPtr expr;  // null for count
  AggOp op;
};

std::vector<ParsedRequest> ParseRequests(
    const std::vector<std::pair<AggOp, std::string>>& specs) {
  std::vector<ParsedRequest> out;
  for (const auto& [op, text] : specs) {
    ParsedRequest r;
    r.op = op;
    if (!text.empty()) {
      auto parsed = ParseExpression(text);
      SUDAF_CHECK_MSG(parsed.ok(), parsed.status().ToString());
      r.expr = std::move(*parsed);
    }
    out.push_back(std::move(r));
  }
  return out;
}

// Reference: evaluate each input row by row with the interpreter
// (EvalRow), then run one serial grouped pass per state.
std::vector<std::vector<double>> LegacyReference(
    const std::vector<ParsedRequest>& reqs, const FusedFixture& fix) {
  ExecOptions serial;
  RowAccessor accessor = [&fix](const std::string& name,
                                int64_t row) -> Result<Value> {
    SUDAF_ASSIGN_OR_RETURN(const Column* col, fix.Find(name));
    return col->GetValue(row);
  };
  std::vector<std::vector<double>> out;
  for (const ParsedRequest& r : reqs) {
    std::vector<double> in;
    if (r.expr != nullptr) {
      in.resize(fix.gids.size());
      for (size_t i = 0; i < in.size(); ++i) {
        Result<Value> v =
            EvalRow(*r.expr, accessor, static_cast<int64_t>(i));
        SUDAF_CHECK_MSG(v.ok(), v.status().ToString());
        in[i] = v->AsDouble();
      }
    }
    out.push_back(bench::ComputeGroupedState(
        r.expr == nullptr ? AggOp::kCount : r.op, in, fix.gids, fix.num_groups,
        serial));
  }
  return out;
}

std::vector<std::vector<double>> RunFused(
    const std::vector<ParsedRequest>& reqs, const FusedFixture& fix,
    const ExecOptions& opts, MetricsRegistry* metrics = nullptr) {
  std::vector<StateBatchRequest> requests;
  for (const ParsedRequest& r : reqs) {
    requests.push_back({r.op, r.expr.get()});
  }
  ExecOptions pass_opts = opts;
  pass_opts.metrics = metrics;
  auto result = ComputeStateBatch(requests, fix.Binder(), fix.gids,
                                  fix.num_groups, pass_opts);
  SUDAF_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(*result);
}

bool IsExactOp(AggOp op) {
  return op == AggOp::kCount || op == AggOp::kMin || op == AggOp::kMax;
}

// Every op × a family of input shapes (plain column, int column, powers,
// arithmetic, unary functions) must match the legacy per-state path.
TEST(FusedStateBatchTest, MatchesLegacyAcrossOpsAndExpressions) {
  FusedFixture fix(20000, 13, 77);
  std::vector<std::pair<AggOp, std::string>> specs = {
      {AggOp::kCount, ""},
      {AggOp::kSum, "x"},
      {AggOp::kSum, "k"},
      {AggOp::kSum, "x^2"},
      {AggOp::kSum, "x^3"},
      {AggOp::kSum, "x^4"},
      {AggOp::kSum, "x*y + 1"},
      {AggOp::kSum, "sqrt(abs(y))"},
      {AggOp::kSum, "exp(-x)"},
      {AggOp::kSum, "ln(x)"},
      {AggOp::kProd, "x"},
      {AggOp::kProd, "abs(y) + 0.5"},
      {AggOp::kMin, "y"},
      {AggOp::kMin, "x - y"},
      {AggOp::kMax, "y"},
      {AggOp::kMax, "x*x"},
  };
  std::vector<ParsedRequest> reqs = ParseRequests(specs);
  std::vector<std::vector<double>> expected = LegacyReference(reqs, fix);

  ExecOptions serial;  // fused defaults, single worker
  std::vector<std::vector<double>> actual = RunFused(reqs, fix, serial);

  ASSERT_EQ(actual.size(), expected.size());
  for (size_t s = 0; s < reqs.size(); ++s) {
    ASSERT_EQ(actual[s].size(), expected[s].size()) << specs[s].second;
    const bool log_product =
        reqs[s].op == AggOp::kSum && specs[s].second.rfind("ln(", 0) == 0;
    for (int32_t g = 0; g < fix.num_groups; ++g) {
      if (log_product) {
        ExpectClose(expected[s][g], actual[s][g], 1e-12);
      } else {
        // Single worker, one chunk, the reference's accumulation order and
        // its lowering of x^k: bitwise identical.
        EXPECT_EQ(expected[s][g], actual[s][g])
            << AggOpName(reqs[s].op) << "(" << specs[s].second << ") group "
            << g;
      }
    }
  }
}

// Parallel fused execution (multiple workers, merge in worker order) must
// match the serial reference within merge-reordering tolerance, for
// several morsel sizes, thread counts and group cardinalities.
TEST(FusedStateBatchTest, ParallelMatchesSerialReference) {
  std::vector<ParsedRequest> reqs = ParseRequests({
      {AggOp::kCount, ""},
      {AggOp::kSum, "x"},
      {AggOp::kSum, "x^2"},
      {AggOp::kSum, "x*y"},
      {AggOp::kProd, "x"},
      {AggOp::kMin, "y"},
      {AggOp::kMax, "y"},
  });
  for (int32_t groups : {1, 7, 501}) {
    FusedFixture fix(50000, groups, 1000 + groups);
    std::vector<std::vector<double>> expected = LegacyReference(reqs, fix);
    for (int threads : {2, 4, 8}) {
      for (int morsel : {1024, 4096, 65536}) {
        ExecOptions opts;
        opts.parallel = true;
        opts.num_threads = threads;
        opts.morsel_size = morsel;
        MetricsRegistry metrics;
        std::vector<std::vector<double>> actual =
            RunFused(reqs, fix, opts, &metrics);
        EXPECT_GE(
            metrics.histogram("sudaf.fused.threads_used")->snapshot().min, 1);
        for (size_t s = 0; s < reqs.size(); ++s) {
          for (int32_t g = 0; g < groups; ++g) {
            if (IsExactOp(reqs[s].op)) {
              EXPECT_EQ(expected[s][g], actual[s][g])
                  << "threads=" << threads << " morsel=" << morsel
                  << " groups=" << groups << " state=" << s;
            } else {
              ExpectClose(expected[s][g], actual[s][g], 1e-12);
            }
          }
        }
      }
    }
  }
}

// A fixed configuration must produce bitwise-identical results on repeated
// runs: workers claim chunks dynamically, but each chunk's morsel range and
// the chunk-order merge are fixed, so scheduling cannot leak into values.
TEST(FusedStateBatchTest, ParallelRunsAreBitwiseDeterministic) {
  std::vector<ParsedRequest> reqs = ParseRequests({
      {AggOp::kSum, "x"},
      {AggOp::kSum, "x^3"},
      {AggOp::kSum, "x*y"},
      {AggOp::kProd, "x"},
  });
  FusedFixture fix(30000, 19, 4242);
  ExecOptions opts;
  opts.parallel = true;
  opts.num_threads = 4;
  opts.morsel_size = 2048;
  std::vector<std::vector<double>> first = RunFused(reqs, fix, opts);
  for (int run = 0; run < 5; ++run) {
    std::vector<std::vector<double>> again = RunFused(reqs, fix, opts);
    ASSERT_EQ(again.size(), first.size());
    for (size_t s = 0; s < first.size(); ++s) {
      ASSERT_EQ(0, std::memcmp(first[s].data(), again[s].data(),
                               first[s].size() * sizeof(double)))
          << "state " << s << " differs on run " << run;
    }
  }
}

// Duplicate channels and common subexpressions must be computed once:
// the x^2 / x^3 / x^4 power chain shares slots, and identical requests
// collapse into one channel.
TEST(FusedStateBatchTest, SharesChannelsAndSubexpressions) {
  std::vector<ParsedRequest> reqs = ParseRequests({
      {AggOp::kCount, ""},
      {AggOp::kSum, "x"},
      {AggOp::kSum, "x^2"},
      {AggOp::kSum, "x^3"},
      {AggOp::kSum, "x^4"},
      {AggOp::kSum, "x^4"},   // duplicate request
      {AggOp::kCount, ""},    // duplicate count
  });
  FusedFixture fix(5000, 3, 9);
  ExecOptions opts;
  MetricsRegistry metrics;
  std::vector<std::vector<double>> out = RunFused(reqs, fix, opts, &metrics);
  // count, x, x^2, x^3, x^4
  EXPECT_EQ(metrics.counter("sudaf.fused.channels")->value(), 5);
  // The power chain reuses slots.
  EXPECT_GT(metrics.counter("sudaf.fused.shared_slots")->value(), 0);
  // Duplicate requests still get their own (equal) output vectors.
  for (int32_t g = 0; g < 3; ++g) {
    EXPECT_EQ(out[4][g], out[5][g]);
    EXPECT_EQ(out[0][g], out[6][g]);
  }
}

// Empty inputs: zero rows must yield the ⊕-identity for every group, and
// zero groups must yield empty vectors, in both serial and parallel modes.
TEST(FusedStateBatchTest, EmptyInputEdgeCases) {
  FusedFixture empty(0, 4, 1);
  std::vector<ParsedRequest> reqs = ParseRequests({
      {AggOp::kCount, ""},
      {AggOp::kSum, "x"},
      {AggOp::kProd, "x"},
      {AggOp::kMin, "x"},
  });
  for (bool parallel : {false, true}) {
    ExecOptions opts;
    opts.parallel = parallel;
    opts.num_threads = 4;
    std::vector<std::vector<double>> out = RunFused(reqs, empty, opts);
    ASSERT_EQ(out.size(), 4u);
    for (int32_t g = 0; g < 4; ++g) {
      EXPECT_EQ(out[0][g], 0.0);
      EXPECT_EQ(out[1][g], 0.0);
      EXPECT_EQ(out[2][g], 1.0);
      EXPECT_EQ(out[3][g], std::numeric_limits<double>::infinity());
    }
  }

  FusedFixture no_groups(0, 0, 2);
  std::vector<std::vector<double>> out =
      RunFused(reqs, no_groups, ExecOptions{});
  for (const auto& v : out) EXPECT_TRUE(v.empty());
}

// Full-stack property: both rewritten modes (rewrite, fused pass, cache,
// terminating functions) must agree with the engine mode, whose UDAFs are
// independent interpreted row-at-a-time implementations, across UDAF and
// built-in select lists.
TEST(FusedSessionTest, FusedAndLegacySessionsAgree) {
  Rng rng(31337);
  std::vector<int64_t> g;
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 4000; ++i) {
    g.push_back(static_cast<int64_t>(rng.NextBelow(23)));
    x.push_back(rng.NextDoubleIn(0.5, 9.5));
    y.push_back(rng.NextDoubleIn(-3.0, 3.0));
  }
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable(g, x, y));

  const std::vector<std::string> queries = {
      "SELECT g, count(x), sum(x), min(y), max(y) FROM t GROUP BY g",
      "SELECT g, avg(x), var(x), stddev(x) FROM t GROUP BY g",
      "SELECT g, kurtosis(x) FROM t GROUP BY g",
      "SELECT g, skewness(x), var(x) FROM t GROUP BY g",
      "SELECT g, gm(x), hm(x) FROM t GROUP BY g",
      "SELECT g, sum(x*y), sum(x^2) FROM t GROUP BY g",
  };
  for (ExecMode mode : {ExecMode::kSudafNoShare, ExecMode::kSudafShare}) {
    for (const std::string& sql : queries) {
      SudafSession session(&catalog);
      SudafSession engine_session(&catalog);
      auto a = session.Execute(sql, mode);
      auto b = engine_session.Execute(sql, ExecMode::kEngine);
      ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
      ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
      const Table& ta = **a;
      const Table& tb = **b;
      ASSERT_EQ(ta.num_rows(), tb.num_rows()) << sql;
      ASSERT_EQ(ta.num_columns(), tb.num_columns()) << sql;
      // The two paths accumulate in different orders and forms; the
      // terminating functions of the standardized moments amplify that
      // rounding drift (division by var^2), hence the table tolerance.
      for (int c = 0; c < ta.num_columns(); ++c) {
        for (int64_t r = 0; r < ta.num_rows(); ++r) {
          ExpectClose(tb.column(c).GetNumeric(r), ta.column(c).GetNumeric(r),
                      1e-9);
        }
      }
      // The fused pass must actually have run (and been observable).
      EXPECT_TRUE(a->stats.used_fused) << sql;
      EXPECT_GT(a->stats.fused_channels, 0) << sql;
    }
  }
}

// The fused pass must also agree when driven through ExecOptions with
// parallel workers at the session level.
TEST(FusedSessionTest, ParallelSessionMatchesSerial) {
  Rng rng(555);
  std::vector<int64_t> g;
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 8000; ++i) {
    g.push_back(static_cast<int64_t>(rng.NextBelow(11)));
    x.push_back(rng.NextDoubleIn(1.0, 2.0));
    y.push_back(rng.NextDoubleIn(-1.0, 1.0));
  }
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable(g, x, y));

  ExecOptions serial;
  ExecOptions parallel;
  parallel.parallel = true;
  parallel.num_threads = 4;
  parallel.morsel_size = 1024;
  SudafSession a(&catalog, SessionOptions{}.set_exec(serial));
  SudafSession b(&catalog, SessionOptions{}.set_exec(parallel));
  const std::string sql =
      "SELECT g, kurtosis(x), sum(x*y), count(x) FROM t GROUP BY g";
  for (ExecMode mode : {ExecMode::kSudafNoShare, ExecMode::kSudafShare}) {
    auto ra = a.Execute(sql, mode);
    auto rb = b.Execute(sql, mode);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    ASSERT_EQ((*ra)->num_rows(), (*rb)->num_rows());
    for (int c = 0; c < (*ra)->num_columns(); ++c) {
      for (int64_t r = 0; r < (*ra)->num_rows(); ++r) {
        ExpectClose((*ra)->column(c).GetNumeric(r),
                    (*rb)->column(c).GetNumeric(r), 1e-9);
      }
    }
    EXPECT_GE(rb->stats.fused_threads, 1);
  }
}

}  // namespace
}  // namespace sudaf
