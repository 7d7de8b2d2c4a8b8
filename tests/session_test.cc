// Integration tests for SudafSession: the three execution modes must agree,
// the cache must serve repeat and cross-UDAF queries without touching base
// data, and sign separation must hold on mixed-sign inputs.

#include <cmath>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "sketch/moment_sketch.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

using testing_util::ExpectClose;

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2024);
    std::vector<int64_t> g;
    std::vector<double> x;
    std::vector<double> y;
    for (int i = 0; i < 600; ++i) {
      g.push_back(static_cast<int64_t>(rng.NextBelow(5)));
      double xv = rng.NextDoubleIn(0.5, 9.5);
      x.push_back(xv);
      y.push_back(2.0 * xv + rng.NextDoubleIn(-0.5, 0.5));
    }
    catalog_.PutTable("t", testing_util::MakeXyTable(g, x, y));
    session_ = std::make_unique<SudafSession>(&catalog_);
  }

  std::unique_ptr<Table> Run(const std::string& sql, ExecMode mode) {
    auto result = session_->Execute(sql, mode);
    SUDAF_CHECK_MSG(result.ok(), result.status().ToString());
    last_run_stats_ = result->stats;
    return std::move(result->table);
  }

  // Stats of the last Run() query, captured from its QueryResult.
  const ExecStats& stats() const { return last_run_stats_; }

  void ExpectTablesClose(const Table& a, const Table& b, double tol = 1e-9) {
    ASSERT_EQ(a.num_rows(), b.num_rows());
    ASSERT_EQ(a.num_columns(), b.num_columns());
    for (int c = 0; c < a.num_columns(); ++c) {
      for (int64_t r = 0; r < a.num_rows(); ++r) {
        if (a.column(c).type() == DataType::kString) {
          EXPECT_EQ(a.column(c).GetString(r), b.column(c).GetString(r));
        } else {
          ExpectClose(a.column(c).GetNumeric(r), b.column(c).GetNumeric(r),
                      tol);
        }
      }
    }
  }

  Catalog catalog_;
  std::unique_ptr<SudafSession> session_;
  ExecStats last_run_stats_;
};

// Every aggregate of the paper's workload: the engine baseline, the SUDAF
// rewrite and the SUDAF cache-backed execution must produce identical
// results.
class ModeAgreementTest : public SessionTest,
                          public ::testing::WithParamInterface<const char*> {
};

TEST_P(ModeAgreementTest, AllThreeModesAgree) {
  std::string sql = std::string("SELECT g, ") + GetParam() +
                    "(x) FROM t GROUP BY g ORDER BY g";
  auto engine = Run(sql, ExecMode::kEngine);
  auto noshare = Run(sql, ExecMode::kSudafNoShare);
  // Run share twice: cold (computes) and warm (served from cache).
  auto share_cold = Run(sql, ExecMode::kSudafShare);
  auto share_warm = Run(sql, ExecMode::kSudafShare);
  ExpectTablesClose(*engine, *noshare, 1e-7);
  ExpectTablesClose(*engine, *share_cold, 1e-7);
  ExpectTablesClose(*engine, *share_warm, 1e-7);
  EXPECT_FALSE(stats().scanned_base_data);
}

INSTANTIATE_TEST_SUITE_P(PaperAggregates, ModeAgreementTest,
                         ::testing::Values("sum", "count", "avg", "min",
                                           "max", "var", "stddev", "qm",
                                           "cm", "apm", "hm", "gm",
                                           "gm_prod", "skewness", "kurtosis",
                                           "logsumexp"));

TEST_F(SessionTest, BivariateUdafsAgreeAcrossModes) {
  // theta0 is defined through theta1: engine mode expands it too.
  for (const char* agg : {"theta1", "theta0", "covar", "corr"}) {
    std::string sql = std::string("SELECT g, ") + agg +
                      "(x, y) FROM t GROUP BY g ORDER BY g";
    auto engine = Run(sql, ExecMode::kEngine);
    ExpectTablesClose(*engine, *Run(sql, ExecMode::kSudafNoShare), 1e-7);
    ExpectTablesClose(*engine, *Run(sql, ExecMode::kSudafShare), 1e-7);
  }
}

// Engine mode derives each UDAF from its library definition, so every
// one of them runs there, with the answers of the rewrite.
TEST_F(SessionTest, EveryLibraryUdafRunsInEngineMode) {
  const UdafLibrary& library = session_->library();
  int checked = 0;
  for (const std::string& name : library.Names()) {
    const UdafDefinition* def = library.GetExpr(name);
    if (def == nullptr) continue;  // a native UDAF
    const std::string args = def->params.size() == 2 ? "(x, y)" : "(x)";
    const std::string sql =
        "SELECT g, " + name + args + " FROM t GROUP BY g ORDER BY g";
    SCOPED_TRACE(sql);
    ExpectTablesClose(*Run(sql, ExecMode::kEngine),
                      *Run(sql, ExecMode::kSudafNoShare), 1e-7);
    ++checked;
  }
  EXPECT_EQ(checked, 16);
}

TEST_F(SessionTest, DefinedUdafAgreesAcrossModes) {
  // A user definition whose parameter is named v, not x.
  ASSERT_OK(session_->library().Define("contraharmonic", {"v"},
                                       "sum(v^2)/sum(v)"));
  const std::string sql =
      "SELECT g, contraharmonic(x) FROM t GROUP BY g ORDER BY g";
  auto engine = Run(sql, ExecMode::kEngine);
  ExpectTablesClose(*engine, *Run(sql, ExecMode::kSudafNoShare), 1e-7);
  ExpectTablesClose(*engine, *Run(sql, ExecMode::kSudafShare), 1e-7);
  ExpectTablesClose(*engine, *Run(sql, ExecMode::kSudafShare), 1e-7);
}

// Engine mode derives a UDAF over its argument expressions, so it checks
// such queries against the rewrite too.
TEST_F(SessionTest, UdafOverArgumentExpressionsAgreesAcrossModes) {
  for (const char* sql :
       {"SELECT g, qm(x + 1) FROM t GROUP BY g ORDER BY g",
        "SELECT g, gm(x * y), kurtosis(2 * x - 1) FROM t GROUP BY g ORDER BY g",
        "SELECT g, covar(x + y, y - x) FROM t GROUP BY g ORDER BY g"}) {
    SCOPED_TRACE(sql);
    auto engine = Run(sql, ExecMode::kEngine);
    ExpectTablesClose(*engine, *Run(sql, ExecMode::kSudafNoShare), 1e-9);
    ExpectTablesClose(*engine, *Run(sql, ExecMode::kSudafShare), 1e-9);
  }
}

TEST_F(SessionTest, Q2AfterQ1ReusesThreeStates) {
  // The motivating example: after Q1 (theta1 + avgs), Q2's qm + stddev find
  // all three of their states in the cache and never scan base data.
  Run("SELECT g, avg(x), avg(y), theta1(x, y) FROM t GROUP BY g",
      ExecMode::kSudafShare);
  EXPECT_EQ(stats().states_computed, 5);

  Run("SELECT g, qm(x), stddev(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  const ExecStats& stats = this->stats();
  EXPECT_EQ(stats.num_states, 3);
  EXPECT_EQ(stats.states_from_cache, 3);
  EXPECT_EQ(stats.states_computed, 0);
  EXPECT_FALSE(stats.scanned_base_data);
}

TEST_F(SessionTest, CrossShapeSharing) {
  // Σ4x² is served from a cached Σx² (different syntactic shape).
  Run("SELECT g, sum(x^2) FROM t GROUP BY g", ExecMode::kSudafShare);
  Run("SELECT g, sum(4*x^2) FROM t GROUP BY g", ExecMode::kSudafShare);
  EXPECT_EQ(stats().states_from_cache, 1);
  EXPECT_FALSE(stats().scanned_base_data);
}

TEST_F(SessionTest, GeometricMeanSharesWithProducts) {
  // Π x and Σ ln x are one sharing class: after gm, a prod(x) query is
  // served entirely from the cache.
  Run("SELECT g, gm(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  auto prod = Run("SELECT g, prod(x) FROM t GROUP BY g ORDER BY g",
                  ExecMode::kSudafShare);
  EXPECT_EQ(stats().states_from_cache, 1);
  EXPECT_FALSE(stats().scanned_base_data);
  auto engine = Run("SELECT g, prod(x) FROM t GROUP BY g ORDER BY g",
                    ExecMode::kEngine);
  // Values can be astronomically large; compare on the log scale.
  for (int64_t r = 0; r < prod->num_rows(); ++r) {
    ExpectClose(std::log(engine->column(1).GetFloat64(r)),
                std::log(prod->column(1).GetFloat64(r)), 1e-7);
  }
}

TEST_F(SessionTest, LogClassCrossSharing) {
  Run("SELECT g, exp(sum(ln(x))/count()) FROM t GROUP BY g",
      ExecMode::kSudafShare);
  int computed_first = stats().states_computed;
  EXPECT_GT(computed_first, 0);
  // Σ ln(x²) = 2Σln|x| — same class, cache hit.
  Run("SELECT g, sum(ln(x^2)) FROM t GROUP BY g", ExecMode::kSudafShare);
  EXPECT_EQ(stats().states_from_cache, 1);
}

TEST_F(SessionTest, SignSeparationOnMixedSignData) {
  // Products over mixed-sign data reconstruct correctly from the
  // sign-separated log channels (Section 5.3).
  std::vector<int64_t> g = {0, 0, 0, 1, 1};
  std::vector<double> x = {-2.0, 3.0, -1.5, 2.0, -4.0};
  catalog_.PutTable("m", testing_util::MakeXyTable(g, x, x));
  std::string sql = "SELECT g, prod(x) FROM m GROUP BY g ORDER BY g";
  auto share = Run(sql, ExecMode::kSudafShare);
  ASSERT_EQ(share->num_rows(), 2);
  ExpectClose(9.0, share->column(1).GetFloat64(0));    // (-2)(3)(-1.5)
  ExpectClose(-8.0, share->column(1).GetFloat64(1));   // (2)(-4)
  // Σ ln(x²) over the same data, from the same cached channels.
  auto ln_sq = Run("SELECT g, sum(ln(x^2)) FROM m GROUP BY g ORDER BY g",
                   ExecMode::kSudafShare);
  double expected = 2.0 * (std::log(2.0) + std::log(3.0) + std::log(1.5));
  ExpectClose(expected, ln_sq->column(1).GetFloat64(0), 1e-9);
  EXPECT_EQ(stats().states_from_cache, 1);
}

TEST_F(SessionTest, GeometricMeanOfMixedSignsIsNaNUnlessShared) {
  // gm = exp(Σ ln x / n), and ln of a negative is NaN: engine and no-share
  // mode return NaN. Share mode rebuilds Σ ln x from the log class's
  // Σ ln|x| channel and returns the |·| value (docs/theory.md §6).
  std::vector<int64_t> g = {0, 0, 1, 1, 1};
  std::vector<double> x = {-1.0, 4.0, -2.0, 2.0, -2.0};
  catalog_.PutTable("m", testing_util::MakeXyTable(g, x, x));
  const std::string sql = "SELECT g, gm(x) FROM m GROUP BY g ORDER BY g";
  for (ExecMode mode : {ExecMode::kEngine, ExecMode::kSudafNoShare}) {
    auto result = Run(sql, mode);
    ASSERT_EQ(result->num_rows(), 2);
    EXPECT_TRUE(std::isnan(result->column(1).GetFloat64(0)));
    EXPECT_TRUE(std::isnan(result->column(1).GetFloat64(1)));
  }
  auto share = Run(sql, ExecMode::kSudafShare);
  ASSERT_EQ(share->num_rows(), 2);
  ExpectClose(2.0, share->column(1).GetFloat64(0));  // |-1 · 4|^(1/2)
  ExpectClose(2.0, share->column(1).GetFloat64(1));  // |-2 · 2 · -2|^(1/3)
}

TEST_F(SessionTest, UngroupedQueriesReturnOneRow) {
  auto result = Run("SELECT qm(x), count(x) FROM t", ExecMode::kSudafShare);
  ASSERT_EQ(result->num_rows(), 1);
  auto warm = Run("SELECT qm(x) FROM t", ExecMode::kSudafShare);
  ASSERT_EQ(warm->num_rows(), 1);
  EXPECT_FALSE(stats().scanned_base_data);
}

TEST_F(SessionTest, DifferentDataDimensionsDoNotShare) {
  // A different WHERE clause is a different data signature — no reuse (the
  // data dimension is out of scope, Section 2).
  Run("SELECT g, qm(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  Run("SELECT g, qm(x) FROM t WHERE x > 5 GROUP BY g", ExecMode::kSudafShare);
  EXPECT_EQ(stats().states_from_cache, 0);
  EXPECT_TRUE(stats().scanned_base_data);
}

TEST_F(SessionTest, PartialHitComputesOnlyMissingStates) {
  Run("SELECT g, avg(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  Run("SELECT g, var(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  const ExecStats& stats = this->stats();
  EXPECT_EQ(stats.num_states, 3);         // Σx², Σx, count
  EXPECT_EQ(stats.states_from_cache, 2);  // Σx and count from avg
  EXPECT_EQ(stats.states_computed, 1);    // Σx² fresh
}

TEST_F(SessionTest, UserDefinedUdafViaExpression) {
  ASSERT_OK(session_->library().Define("contraharmonic", {"x"},
                                       "sum(x^2)/sum(x)"));
  auto result = Run("SELECT g, contraharmonic(x) FROM t GROUP BY g ORDER BY g",
                    ExecMode::kSudafShare);
  EXPECT_EQ(result->num_rows(), 5);
  // Its states come from the shared pool on a second run.
  Run("SELECT g, contraharmonic(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  EXPECT_EQ(stats().states_from_cache, 2);
}

TEST_F(SessionTest, MomentSketchPrefetchServesAS2StyleQueries) {
  // Prefetch the moments sketch; qm/var/gm then hit the cache, hm misses
  // (Σ x^-1 is not in the sketch) — exactly the paper's AS2 observation.
  std::string prefix = "SELECT g, ";
  std::string suffix = " FROM t GROUP BY g";
  std::string sketch_items;
  for (const std::string& e : MomentSketchStateExprs("x", 6)) {
    if (!sketch_items.empty()) sketch_items += ", ";
    sketch_items += e;
  }
  ASSERT_OK(session_->Execute(prefix + sketch_items + suffix,
                              ExecMode::kSudafShare)
                .status());

  Run(prefix + "qm(x)" + suffix, ExecMode::kSudafShare);
  EXPECT_EQ(stats().states_computed, 0);
  Run(prefix + "var(x), min(x), max(x)" + suffix, ExecMode::kSudafShare);
  EXPECT_EQ(stats().states_computed, 0);
  Run(prefix + "gm(x)" + suffix, ExecMode::kSudafShare);
  EXPECT_EQ(stats().states_computed, 0);
  Run(prefix + "hm(x)" + suffix, ExecMode::kSudafShare);
  EXPECT_EQ(stats().states_computed, 1);
}

TEST_F(SessionTest, NativeQuantileUdafRuns) {
  ASSERT_OK(session_->library().DefineNative(
      MakeApproxQuantileUdaf("approx_median", 0.5, 8)));
  auto result =
      Run("SELECT approx_median(x) FROM t", ExecMode::kSudafNoShare);
  ASSERT_EQ(result->num_rows(), 1);
  double median = result->column(0).GetFloat64(0);
  // x is uniform on [0.5, 9.5]: the median is near 5.
  EXPECT_GT(median, 3.5);
  EXPECT_LT(median, 6.5);
}

TEST_F(SessionTest, ExplainRewriteProducesRq1Form) {
  ASSERT_OK_AND_ASSIGN(
      std::string explain,
      session_->ExplainRewrite("SELECT g, qm(x) FROM t GROUP BY g"));
  EXPECT_NE(explain.find("sum(x^2)"), std::string::npos);
  EXPECT_NE(explain.find("count()"), std::string::npos);
}

// `partitioned` shapes the engine-mode interpreted UDAFs (per-partition
// partials merged with ⊕, the Spark SQL context); the fused pass of the
// rewritten modes does not read it.
TEST_F(SessionTest, PartitionedSparkModeAgrees) {
  ExecOptions spark;
  spark.partitioned = true;
  spark.num_partitions = 4;
  SudafSession partitioned(&catalog_, SessionOptions{}.set_exec(spark));
  std::string sql = "SELECT g, qm(x), gm(x) FROM t GROUP BY g ORDER BY g";
  auto serial = Run(sql, ExecMode::kEngine);
  auto result = partitioned.Execute(sql, ExecMode::kEngine);
  ASSERT_TRUE(result.ok());
  ExpectTablesClose(*serial, **result, 1e-8);
}

TEST_F(SessionTest, StatsAreRecorded) {
  Run("SELECT g, qm(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  const ExecStats& stats = this->stats();
  EXPECT_GT(stats.total_ms, 0.0);
  EXPECT_GE(stats.rewrite_ms, 0.0);
  EXPECT_EQ(stats.num_states, 2);
  EXPECT_GT(session_->cache().num_entries(), 0);
}

TEST_F(SessionTest, ErrorsPropagate) {
  EXPECT_FALSE(session_->Execute("SELECT qm(zzz) FROM t",
                                 ExecMode::kSudafShare)
                   .ok());
  EXPECT_FALSE(
      session_->Execute("not sql at all", ExecMode::kSudafShare).ok());
  EXPECT_FALSE(session_->Execute("SELECT nosuchudaf(x) FROM t",
                                 ExecMode::kSudafNoShare)
                   .ok());
}

}  // namespace
}  // namespace sudaf
