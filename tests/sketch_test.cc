// Tests for sketch/: the moments sketch and the maximum-entropy quantile
// solver (MomentSolver).

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <thread>

#include "bench_support/workload.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "sketch/maxent_solver.h"
#include "sketch/moment_sketch.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

using testing_util::ExpectClose;

std::vector<double> UniformSample(int n, double lo, double hi,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = rng.NextDoubleIn(lo, hi);
  return xs;
}

double TrueQuantile(std::vector<double> xs, double phi) {
  std::sort(xs.begin(), xs.end());
  return xs[static_cast<size_t>(phi * (xs.size() - 1))];
}

TEST(MomentSketchTest, AddTracksAllStates) {
  MomentSketch sketch(4);
  sketch.Add(2.0);
  sketch.Add(3.0);
  EXPECT_DOUBLE_EQ(sketch.min, 2.0);
  EXPECT_DOUBLE_EQ(sketch.max, 3.0);
  EXPECT_DOUBLE_EQ(sketch.count, 2.0);
  EXPECT_DOUBLE_EQ(sketch.power_sums[0], 5.0);      // Σx
  EXPECT_DOUBLE_EQ(sketch.power_sums[1], 13.0);     // Σx²
  ExpectClose(std::log(2.0) + std::log(3.0), sketch.log_sums[0]);
}

TEST(MomentSketchTest, MergeEqualsBulk) {
  std::vector<double> xs = UniformSample(500, 1.0, 9.0, 3);
  MomentSketch whole = MomentSketch::FromValues(xs, 8);
  MomentSketch left(8);
  MomentSketch right(8);
  for (size_t i = 0; i < xs.size(); ++i) {
    (i % 2 == 0 ? left : right).Add(xs[i]);
  }
  left.Merge(right);
  EXPECT_DOUBLE_EQ(whole.count, left.count);
  EXPECT_DOUBLE_EQ(whole.min, left.min);
  for (int j = 0; j < 8; ++j) {
    ExpectClose(whole.power_sums[j], left.power_sums[j], 1e-9);
    ExpectClose(whole.log_sums[j], left.log_sums[j], 1e-9);
  }
}

TEST(MaxEntSolverTest, UniformQuantilesAreAccurate) {
  std::vector<double> xs = UniformSample(20000, 0.0, 10.0, 17);
  MomentSketch sketch = MomentSketch::FromValues(xs, 10);
  for (double phi : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    ASSERT_OK_AND_ASSIGN(double q, EstimateQuantile(sketch, phi));
    // Uniform is max-entropy's home turf: tight accuracy.
    EXPECT_NEAR(q, 10.0 * phi, 0.15) << "phi = " << phi;
  }
}

TEST(MaxEntSolverTest, GaussianLikeQuantiles) {
  Rng rng(23);
  std::vector<double> xs(20000);
  for (double& x : xs) x = 50.0 + 10.0 * rng.NextGaussian();
  MomentSketch sketch = MomentSketch::FromValues(xs, 10);
  ASSERT_OK_AND_ASSIGN(double median, EstimateQuantile(sketch, 0.5));
  EXPECT_NEAR(median, TrueQuantile(xs, 0.5), 1.0);
  ASSERT_OK_AND_ASSIGN(double p90, EstimateQuantile(sketch, 0.9));
  EXPECT_NEAR(p90, TrueQuantile(xs, 0.9), 2.0);
}

TEST(MaxEntSolverTest, QuantilesAreMonotone) {
  std::vector<double> xs = UniformSample(5000, 2.0, 8.0, 29);
  MomentSketch sketch = MomentSketch::FromValues(xs, 8);
  double prev = -HUGE_VAL;
  for (double phi = 0.05; phi < 1.0; phi += 0.05) {
    ASSERT_OK_AND_ASSIGN(double q, EstimateQuantile(sketch, phi));
    EXPECT_GE(q, prev - 1e-9);
    prev = q;
  }
}

TEST(MaxEntSolverTest, DegenerateInputs) {
  MomentSketch empty(4);
  EXPECT_FALSE(EstimateQuantile(empty, 0.5).ok());

  MomentSketch single(4);
  single.Add(7.0);
  ASSERT_OK_AND_ASSIGN(double q, EstimateQuantile(single, 0.5));
  EXPECT_DOUBLE_EQ(q, 7.0);

  MomentSketch constant(4);
  constant.Add(3.0);
  constant.Add(3.0);
  ASSERT_OK_AND_ASSIGN(double qc, EstimateQuantile(constant, 0.5));
  EXPECT_DOUBLE_EQ(qc, 3.0);

  MomentSketch two(4);
  two.Add(1.0);
  two.Add(2.0);
  EXPECT_FALSE(EstimateQuantile(two, 0.0).ok());
  EXPECT_FALSE(EstimateQuantile(two, 1.0).ok());
}

TEST(MaxEntSolverTest, DensityIntegratesToOne) {
  std::vector<double> xs = UniformSample(2000, 1.0, 5.0, 31);
  MomentSketch sketch = MomentSketch::FromValues(xs, 6);
  ASSERT_OK_AND_ASSIGN(
      std::vector<double> density,
      MaxEntDensity(sketch.min, sketch.max, sketch.count,
                    sketch.power_sums));
  double total = 0.0;
  for (double p : density) total += p;
  ExpectClose(1.0, total, 1e-9);
}

// A group of explore's model-3 query (two ss_list_price values, 65.886
// and 66.0) whose Newton loop ends with a line search that rejects all
// 40 candidates. The fit must return the accepted λ's density, not the
// last rejected candidate's (which overflowed and failed the fit).
TEST(MaxEntSolverTest, FailedLineSearchReturnsTheAcceptedDensity) {
  const std::vector<double> power_sums = {
      0x1.07c64db2d8b3bp+7,  0x1.0fc91ae3510f8p+13, 0x1.180a3ebec4419p+19,
      0x1.208b9ecb6f8f4p+25, 0x1.294f2f5861cb4p+31, 0x1.3256f3f0d4db2p+37,
      0x1.3ba4ffd30bfb9p+43, 0x1.453b766ad243bp+49, 0x1.4f1c8bcfb5bd8p+55,
      0x1.594a85471c48ap+61};
  const double min = 0x1.078b3b232c306p+6;
  const double max = 0x1.080160428537p+6;
  ASSERT_OK_AND_ASSIGN(std::vector<double> density,
                       MaxEntDensity(min, max, 2.0, power_sums));
  double total = 0.0;
  for (double p : density) {
    ASSERT_TRUE(std::isfinite(p) && p >= 0.0) << p;
    total += p;
  }
  ExpectClose(1.0, total, 1e-12);
  ASSERT_OK_AND_ASSIGN(double median,
                       MaxEntQuantile(min, max, 2.0, power_sums, 0.5));
  EXPECT_GE(median, min);
  EXPECT_LE(median, max);
}

// Explore's model-3 approx_median over the default workload data: every
// group's fit succeeds, in share and in no-share mode.
TEST(MaxEntSolverTest, Model3ApproxMedianSucceedsOnWorkloadData) {
  Catalog catalog;
  ASSERT_OK(
      bench::SetupWorkloadData(bench::WorkloadOptions(), &catalog));
  SudafSession session(&catalog);
  ASSERT_OK(bench::RegisterQuantileUdafs(&session, 10));
  const std::string sql = bench::QueryModel(3, "approx_median");
  for (ExecMode mode : {ExecMode::kSudafShare, ExecMode::kSudafNoShare}) {
    ASSERT_OK_AND_ASSIGN(QueryResult r, session.Execute(sql, mode));
    EXPECT_EQ(r->num_rows(), 100);
    for (int c = 1; c < r->num_columns(); ++c) {
      for (int64_t row = 0; row < r->num_rows(); ++row) {
        EXPECT_TRUE(std::isfinite(r->column(c).GetFloat64(row)));
      }
    }
  }
}

TEST(NativeQuantileUdafTest, StateTemplatesCoverTheSketch) {
  std::vector<std::string> exprs = MomentSketchStateExprs("price", 5);
  // min, max, count + 5 power sums + 5 log sums.
  EXPECT_EQ(exprs.size(), 13u);
  EXPECT_EQ(exprs[0], "min(price)");
  EXPECT_EQ(exprs[3], "sum(price^1)");
  EXPECT_NE(exprs[8].find("ln(abs(price))"), std::string::npos);
}

TEST(NativeQuantileUdafTest, TerminateMatchesDirectSolver) {
  std::vector<double> xs = UniformSample(3000, 0.0, 4.0, 37);
  MomentSketch sketch = MomentSketch::FromValues(xs, 6);

  NativeUdaf udaf = MakeApproxQuantileUdaf("approx_median", 0.5, 6);
  std::vector<double> states = {sketch.min, sketch.max, sketch.count};
  for (double s : sketch.power_sums) states.push_back(s);
  for (double s : sketch.log_sums) states.push_back(s);
  ASSERT_OK_AND_ASSIGN(double via_udaf, udaf.terminate(states));
  ASSERT_OK_AND_ASSIGN(double direct, EstimateQuantile(sketch, 0.5));
  ExpectClose(direct, via_udaf, 1e-12);
}

TEST(NativeQuantileUdafTest, HardcodedIumeVersionAgrees) {
  UdafRegistry registry;
  RegisterHardcodedQuantileUdafs(&registry, 6);
  ASSERT_OK_AND_ASSIGN(const Udaf* udaf, registry.Get("approx_median"));

  std::vector<double> xs = UniformSample(3000, 0.0, 4.0, 41);
  std::vector<Value> state = udaf->Initialize();
  for (double x : xs) udaf->Update(&state, {Value(x)});
  ASSERT_OK_AND_ASSIGN(Value result, udaf->Evaluate(state));

  MomentSketch sketch = MomentSketch::FromValues(xs, 6);
  ASSERT_OK_AND_ASSIGN(double direct, EstimateQuantile(sketch, 0.5));
  // The IUME baseline runs the solver on a coarser grid (like the cheap
  // built-in approximations it models), so allow grid-resolution slack.
  ExpectClose(direct, result.AsDouble(), 2e-2);
}

// --- The fit memo ------------------------------------------------------------
//
// The memo and its counts are process-wide, so each test clears the memo
// and reads count deltas.

MomentSketch SketchOf(uint64_t seed, int k = 6) {
  return MomentSketch::FromValues(UniformSample(1000, 1.0, 9.0, seed), k);
}

Result<double> Quantile(const MomentSketch& s, double phi) {
  return MaxEntQuantile(s.min, s.max, s.count, s.power_sums, phi);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Count deltas since construction.
struct FitCountDelta {
  MaxEntFitCounts start = GetMaxEntFitCounts();
  int64_t fits() const { return GetMaxEntFitCounts().fits - start.fits; }
  int64_t hits() const {
    return GetMaxEntFitCounts().memo_hits - start.memo_hits;
  }
};

TEST(MaxEntMemoTest, HitIsBitIdenticalToFreshFit) {
  const MomentSketch sketch = SketchOf(51);
  ClearMaxEntFitMemo();
  FitCountDelta delta;
  ASSERT_OK_AND_ASSIGN(double fresh, Quantile(sketch, 0.5));
  ASSERT_OK_AND_ASSIGN(double hit, Quantile(sketch, 0.5));
  EXPECT_EQ(delta.fits(), 1);
  EXPECT_EQ(delta.hits(), 1);
  EXPECT_EQ(Bits(fresh), Bits(hit));

  ClearMaxEntFitMemo();
  ASSERT_OK_AND_ASSIGN(double refit, Quantile(sketch, 0.5));
  EXPECT_EQ(delta.fits(), 2);
  EXPECT_EQ(Bits(fresh), Bits(refit));
}

TEST(MaxEntMemoTest, QuartilesOfOneInputShareOneFit) {
  const MomentSketch sketch = SketchOf(52);
  ClearMaxEntFitMemo();
  FitCountDelta delta;
  std::vector<double> memoized;
  for (double phi : {0.25, 0.5, 0.75}) {
    ASSERT_OK_AND_ASSIGN(double q, Quantile(sketch, phi));
    memoized.push_back(q);
  }
  EXPECT_EQ(delta.fits(), 1);
  EXPECT_EQ(delta.hits(), 2);
  // Each equals the quantile of its own fresh fit.
  for (int i = 0; i < 3; ++i) {
    ClearMaxEntFitMemo();
    ASSERT_OK_AND_ASSIGN(double fresh, Quantile(sketch, 0.25 * (i + 1)));
    EXPECT_EQ(Bits(fresh), Bits(memoized[i])) << i;
  }
}

TEST(MaxEntMemoTest, KeyIsTheExactBitsOfEveryInput) {
  const MomentSketch sketch = SketchOf(53);
  ClearMaxEntFitMemo();
  FitCountDelta delta;
  ASSERT_OK(Quantile(sketch, 0.5).status());
  EXPECT_EQ(delta.fits(), 1);

  MomentSketch ulp = sketch;
  ulp.power_sums[2] = std::nextafter(ulp.power_sums[2], HUGE_VAL);
  ASSERT_OK(Quantile(ulp, 0.5).status());
  EXPECT_EQ(delta.fits(), 2);

  MomentSketch zero = sketch;
  zero.min = 0.0;
  MomentSketch negative_zero = sketch;
  negative_zero.min = -0.0;
  ASSERT_OK(Quantile(zero, 0.5).status());
  ASSERT_OK(Quantile(negative_zero, 0.5).status());
  EXPECT_EQ(delta.fits(), 4);

  // The options are part of the key.
  MaxEntOptions coarse;
  coarse.grid_size = 128;
  ASSERT_OK(MaxEntQuantile(sketch.min, sketch.max, sketch.count,
                           sketch.power_sums, 0.5, coarse)
                .status());
  EXPECT_EQ(delta.fits(), 5);
  EXPECT_EQ(delta.hits(), 0);
}

TEST(MaxEntMemoTest, CapacityIsBoundedAndEvictsLeastRecentlyUsed) {
  const int64_t cap = static_cast<int64_t>(kMaxEntFitMemoCapacity);
  std::vector<MomentSketch> inputs;
  for (int64_t i = 0; i <= cap; ++i) inputs.push_back(SketchOf(100 + i, 4));
  ClearMaxEntFitMemo();
  FitCountDelta delta;
  for (int64_t i = 0; i < cap; ++i) {
    ASSERT_OK(Quantile(inputs[i], 0.5).status());
  }
  EXPECT_EQ(delta.fits(), cap);
  EXPECT_EQ(GetMaxEntFitCounts().entries, cap);

  // Input 0 is used again, so input 1 is now the least recently used.
  ASSERT_OK(Quantile(inputs[0], 0.5).status());
  EXPECT_EQ(delta.hits(), 1);
  ASSERT_OK(Quantile(inputs[cap], 0.5).status());
  EXPECT_EQ(delta.fits(), cap + 1);
  EXPECT_EQ(GetMaxEntFitCounts().entries, cap);

  ASSERT_OK(Quantile(inputs[0], 0.5).status());
  ASSERT_OK(Quantile(inputs[2], 0.5).status());
  EXPECT_EQ(delta.fits(), cap + 1);
  EXPECT_EQ(delta.hits(), 3);
  ASSERT_OK(Quantile(inputs[1], 0.5).status());
  EXPECT_EQ(delta.fits(), cap + 2);
  EXPECT_EQ(GetMaxEntFitCounts().entries, cap);
}

TEST(MaxEntMemoTest, DivergedFitIsRememberedWithItsStatus) {
  // An overflowed power sum leaves the Newton loop no finite step.
  MomentSketch sketch = SketchOf(54);
  sketch.power_sums[5] = std::numeric_limits<double>::infinity();
  ClearMaxEntFitMemo();
  FitCountDelta delta;
  Result<double> first = Quantile(sketch, 0.5);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInternal);
  EXPECT_EQ(delta.fits(), 1);

  Result<double> second = Quantile(sketch, 0.25);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().ToString(), first.status().ToString());
  EXPECT_EQ(delta.fits(), 1);
  EXPECT_EQ(delta.hits(), 1);
}

// Eight threads share the memo over four inputs, each asking every
// quartile many times in its own order: every answer has the serial bits,
// and each call is either a fit or a hit.
TEST(MaxEntMemoConcurrencyTest, ThreadsGetTheSerialBits) {
  std::vector<MomentSketch> inputs;
  for (uint64_t seed : {61, 62, 63, 64}) inputs.push_back(SketchOf(seed));
  const std::vector<double> phis = {0.25, 0.5, 0.75};
  std::vector<uint64_t> serial;
  for (const MomentSketch& s : inputs) {
    for (double phi : phis) {
      ClearMaxEntFitMemo();
      ASSERT_OK_AND_ASSIGN(double q, Quantile(s, phi));
      serial.push_back(Bits(q));
    }
  }

  ClearMaxEntFitMemo();
  FitCountDelta delta;
  constexpr int kThreads = 8;
  constexpr int kRounds = 10;
  const size_t cases = serial.size();
  std::vector<std::vector<uint64_t>> got(kThreads,
                                         std::vector<uint64_t>(cases, 0));
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t c = 0; c < cases; ++c) {
          const size_t i = (c + static_cast<size_t>(t) * 5) % cases;
          Result<double> q = Quantile(inputs[i / phis.size()],
                                      phis[i % phis.size()]);
          if (!q.ok() || (round > 0 && got[t][i] != Bits(*q))) {
            ++failures[t];
          }
          if (q.ok()) got[t][i] = Bits(*q);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    EXPECT_EQ(got[t], serial) << "thread " << t;
  }
  EXPECT_EQ(delta.fits() + delta.hits(),
            static_cast<int64_t>(kThreads * kRounds * cases));
  EXPECT_GE(delta.fits(), static_cast<int64_t>(inputs.size()));
  EXPECT_LE(GetMaxEntFitCounts().entries,
            static_cast<int64_t>(kMaxEntFitMemoCapacity));
}

// Through a session: the three approx_* UDAFs over one group's cached
// sketch states cost one fit, and a repeated query costs none.
TEST(MaxEntMemoTest, CachedQuartileQueryCostsOneFit) {
  std::vector<int64_t> g(2000, 0);
  std::vector<double> x = UniformSample(2000, 0.5, 9.5, 55);
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable(g, x, x));
  SudafSession session(&catalog);
  for (auto [name, phi] : {std::pair{"approx_median", 0.5},
                           std::pair{"approx_first_quantile", 0.25},
                           std::pair{"approx_third_quantile", 0.75}}) {
    ASSERT_OK(
        session.library().DefineNative(MakeApproxQuantileUdaf(name, phi, 8)));
  }
  const std::string sql =
      "SELECT approx_first_quantile(x), approx_median(x), "
      "approx_third_quantile(x) FROM t";
  ASSERT_OK_AND_ASSIGN(QueryResult cold,
                       session.Execute(sql, ExecMode::kSudafShare));

  ClearMaxEntFitMemo();
  FitCountDelta delta;
  ASSERT_OK_AND_ASSIGN(QueryResult warm,
                       session.Execute(sql, ExecMode::kSudafShare));
  EXPECT_FALSE(warm.stats.scanned_base_data);
  EXPECT_EQ(delta.fits(), 1);
  EXPECT_EQ(delta.hits(), 2);
  ASSERT_OK_AND_ASSIGN(QueryResult again,
                       session.Execute(sql, ExecMode::kSudafShare));
  EXPECT_EQ(delta.fits(), 1);
  EXPECT_EQ(delta.hits(), 5);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(Bits(cold->column(c).GetFloat64(0)),
              Bits(warm->column(c).GetFloat64(0)));
    EXPECT_EQ(Bits(cold->column(c).GetFloat64(0)),
              Bits(again->column(c).GetFloat64(0)));
  }
}

}  // namespace
}  // namespace sudaf
