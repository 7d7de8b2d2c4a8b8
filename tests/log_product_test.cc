// Tests for the fused pass's vectors and log-product channels
// (docs/execution.md, "Log-free log channels").
//
// * FusedVectorTest: evaluating a morsel in 2048-row vectors keeps every
//   (channel, group) pair in row order, so a one-chunk pass equals a naive
//   row-order loop bit for bit.
// * LogProductTest: a Σ ln y channel multiplies mantissas and adds
//   exponents instead of summing per-row logs. Its answers are checked
//   against a long double oracle, its special values against the per-row
//   sum's, and its bits against itself across plan widths, thread counts
//   and refresh passes.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "agg/builtin_kernels.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "engine/state_batch.h"
#include "expr/parser.h"
#include "gtest/gtest.h"
#include "storage/column.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// One float64 column x over the given values, with group ids.
struct Frame {
  Column x{DataType::kFloat64};
  std::vector<int32_t> gids;
  int32_t num_groups = 1;

  Frame(const std::vector<double>& values, std::vector<int32_t> groups,
        int32_t n_groups)
      : gids(std::move(groups)), num_groups(n_groups) {
    x.Reserve(static_cast<int64_t>(values.size()));
    for (double v : values) x.AppendFloat64(v);
    if (gids.empty()) gids.assign(values.size(), 0);
  }

  ColumnBinder Binder() const {
    return [this](const std::string& name) -> Result<BoundColumn> {
      if (name != "x") return Status::InvalidArgument("no column " + name);
      return BoundColumn{&x, nullptr, 0};
    };
  }
};

// Runs one fused pass over `frame`; each spec is (op, input text), with
// an empty text for count().
std::vector<std::vector<double>> RunPass(
    const Frame& frame, const std::vector<std::pair<AggOp, std::string>>& specs,
    const ExecOptions& opts = ExecOptions{}, MetricsRegistry* metrics = nullptr,
    const StateBatchIncremental* inc = nullptr) {
  std::vector<ExprPtr> inputs;
  std::vector<StateBatchRequest> requests;
  for (const auto& [op, text] : specs) {
    const Expr* input = nullptr;
    if (!text.empty()) {
      auto parsed = ParseExpression(text);
      SUDAF_CHECK_MSG(parsed.ok(), parsed.status().ToString());
      inputs.push_back(std::move(*parsed));
      input = inputs.back().get();
    }
    requests.push_back({op, input});
  }
  ExecOptions pass_opts = opts;
  pass_opts.metrics = metrics;
  auto result = ComputeStateBatch(requests, frame.Binder(), frame.gids,
                                  frame.num_groups, pass_opts, inc);
  SUDAF_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(*result);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameBits(const std::vector<double>& want,
                    const std::vector<double>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t g = 0; g < want.size(); ++g) {
    EXPECT_TRUE(SameBits(want[g], got[g]))
        << what << " group " << g << ": want " << want[g] << ", got "
        << got[g];
  }
}

// Σ ln|y| (or Σ ln y) in long double with Neumaier's compensation, and
// Σ |ln|y|| for the error budget.
struct Oracle {
  long double sum = 0;
  long double abs_sum = 0;
};

Oracle LogOracle(const std::vector<double>& ys, bool abs) {
  long double s = 0;
  long double c = 0;
  long double a = 0;
  for (double y : ys) {
    const long double t = std::log(abs ? std::fabs(static_cast<long double>(y))
                                       : static_cast<long double>(y));
    const long double u = s + t;
    c += std::fabs(s) >= std::fabs(t) ? (s - u) + t : (t - u) + s;
    s = u;
    a += std::fabs(t);
  }
  return Oracle{s + c, a};
}

// --- Vectors -----------------------------------------------------------------

// Three full vectors and a partial one, in one morsel and so one chunk:
// sum, prod, count, min and max must equal a naive row-order loop bit for
// bit, −0.0 and NaN inputs included, with a Σ ln channel riding along.
TEST(FusedVectorTest, OneChunkPassMatchesNaiveRowOrderLoopBitwise) {
  constexpr int64_t kRows = 3 * 2048 + 17;
  constexpr int32_t kGroups = 6;
  Rng rng(2048);
  std::vector<double> xs(kRows);
  std::vector<int32_t> gids(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    gids[i] = static_cast<int32_t>(rng.NextBelow(kGroups - 1));
    const double mag = rng.NextDoubleIn(0.9, 1.1);
    xs[i] = rng.NextBelow(2) == 0 ? mag : -mag;
    if (i % 97 == 0) xs[i] = -0.0;
    if (i % 211 == 0) xs[i] = 0.0;
    if (gids[i] == 0 && i % 1000 == 500) xs[i] = kNaN;  // group 0 only
    if (i % 401 == 0) {  // group 5 holds only −0.0
      gids[i] = kGroups - 1;
      xs[i] = -0.0;
    }
  }
  Frame frame(xs, gids, kGroups);
  ExecOptions opts;
  opts.morsel_size = 65536;
  const std::vector<std::pair<AggOp, std::string>> specs = {
      {AggOp::kSum, "x"},   {AggOp::kProd, "x"},        {AggOp::kCount, ""},
      {AggOp::kMin, "x"},   {AggOp::kMax, "x"},         {AggOp::kSum, "x*x"},
      {AggOp::kSum, "ln(abs(x))"}};
  MetricsRegistry metrics;
  std::vector<std::vector<double>> got = RunPass(frame, specs, opts, &metrics);
  EXPECT_EQ(metrics.counter("sudaf.fused.morsels")->value(), 1);
  EXPECT_EQ(metrics.counter("sudaf.fused.log_product_channels")->value(), 1);

  // The first five specs, in order.
  const AggOp kOps[] = {AggOp::kSum, AggOp::kProd, AggOp::kCount,
                        AggOp::kMin, AggOp::kMax};
  for (size_t c = 0; c < std::size(kOps); ++c) {
    const AggOp op = kOps[c];
    std::vector<double> want(kGroups, AggIdentity(op));
    for (int64_t i = 0; i < kRows; ++i) {
      double& a = want[gids[i]];
      switch (op) {
        case AggOp::kSum: a += xs[i]; break;
        case AggOp::kProd: a *= xs[i]; break;
        case AggOp::kCount: a += 1.0; break;
        case AggOp::kMin: a = std::min(a, xs[i]); break;
        case AggOp::kMax: a = std::max(a, xs[i]); break;
      }
    }
    ExpectSameBits(want, got[c], AggOpName(op));
  }
  std::vector<double> sq(kGroups, 0.0);
  for (int64_t i = 0; i < kRows; ++i) sq[gids[i]] += xs[i] * xs[i];
  ExpectSameBits(sq, got[5], "sum(x*x)");
  EXPECT_TRUE(std::isnan(got[0][0]));  // the NaN reached group 0's sum
}

// --- Log-product channels ----------------------------------------------------

// Σ ln|y| against a long double oracle: the error must stay within
// 1e-15 × Σ|ln|y||. A per-row sum of std::log values misses this budget on
// three of these inputs; the mantissa product rounds once per row in
// [1, 2) and converts once per chunk block.
TEST(LogProductTest, SumOfLogsMeetsLongDoubleOracle) {
  constexpr int kRows = 100'000;
  Rng rng(9001);
  std::vector<std::pair<std::string, std::vector<double>>> datasets;
  {
    std::vector<double> v(kRows);
    for (double& y : v) y = rng.NextLogNormal(3.0, 1.0);
    datasets.emplace_back("lognormal(3, 1)", std::move(v));
  }
  {
    // Every factor is near 2, so the mantissa passes 2^512 every ~512
    // rows: hundreds of renormalizations.
    std::vector<double> v(kRows);
    for (double& y : v) y = rng.NextDoubleIn(1.99, 2.0);
    datasets.emplace_back("[1.99, 2)", std::move(v));
  }
  {
    std::vector<double> v(kRows);
    for (int i = 0; i < kRows; ++i) {
      v[i] = rng.NextDoubleIn(1.0, 10.0) * (i % 2 == 0 ? 1e300 : 1e-300);
    }
    datasets.emplace_back("alternating 1e±300", std::move(v));
  }
  {
    std::vector<double> v(kRows);
    for (int i = 0; i < kRows; ++i) {
      if (i % 2 == 0) {
        // A positive subnormal: random fraction bits, zero exponent.
        const uint64_t bits = 1 + rng.NextBelow((uint64_t{1} << 52) - 1);
        std::memcpy(&v[i], &bits, sizeof(double));
        if (i % 4 == 0) v[i] = -v[i];
      } else {
        v[i] = -rng.NextDoubleIn(0.1, 1000.0);
      }
    }
    datasets.emplace_back("subnormals and negatives", std::move(v));
  }
  for (const auto& [name, ys] : datasets) {
    Frame frame(ys, {}, 1);
    MetricsRegistry metrics;
    const double got = RunPass(frame, {{AggOp::kSum, "ln(abs(x))"}},
                               ExecOptions{}, &metrics)[0][0];
    EXPECT_EQ(metrics.counter("sudaf.fused.log_product_channels")->value(), 1)
        << name;
    const Oracle ref = LogOracle(ys, /*abs=*/true);
    const long double err = std::fabs(static_cast<long double>(got) - ref.sum);
    EXPECT_LE(err, 1e-15L * ref.abs_sum)
        << name << ": got " << got << ", relative error "
        << static_cast<double>(err / ref.abs_sum);
  }
  // The no-share form Σ ln y takes the same path over positive data.
  const std::vector<double>& positive = datasets[0].second;
  Frame frame(positive, {}, 1);
  const double got = RunPass(frame, {{AggOp::kSum, "ln(x)"}})[0][0];
  const Oracle ref = LogOracle(positive, /*abs=*/false);
  EXPECT_LE(std::fabs(static_cast<long double>(got) - ref.sum),
            1e-15L * ref.abs_sum);
}

// Special values give what Σ ln y gives row by row: a 0 gives −inf, a +inf
// gives +inf, a NaN gives NaN and 0 with +inf gives NaN. Under ln|y| a
// negative y counts by its magnitude; under ln y it gives NaN.
TEST(LogProductTest, SpecialValuesMatchPerRowSum) {
  const double sub = std::numeric_limits<double>::denorm_min() * 12345.0;
  const std::vector<std::pair<std::vector<double>, double>> groups = {
      {{2.0, 0.0, 3.0}, -kInf},
      {{2.0, kInf, 0.5}, kInf},
      {{2.0, kNaN, 0.5}, kNaN},
      {{0.0, 4.0, kInf}, kNaN},
      {{-0.0, 4.0}, -kInf},
      {{-kInf, 4.0}, kInf},
      {{sub, 1.0}, std::log(sub)},
      {{}, 0.0},
  };
  std::vector<double> xs;
  std::vector<int32_t> gids;
  for (size_t g = 0; g < groups.size(); ++g) {
    for (double v : groups[g].first) {
      xs.push_back(v);
      gids.push_back(static_cast<int32_t>(g));
    }
  }
  Frame frame(xs, gids, static_cast<int32_t>(groups.size()));
  const std::vector<std::vector<double>> got =
      RunPass(frame, {{AggOp::kSum, "ln(abs(x))"}, {AggOp::kSum, "ln(x)"}});
  for (size_t g = 0; g < groups.size(); ++g) {
    const double want = groups[g].second;
    const double v = got[0][g];
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(v)) << "group " << g << ": " << v;
    } else if (std::isinf(want) || want == 0.0) {
      EXPECT_TRUE(SameBits(want, v)) << "group " << g << ": " << v;
    } else {
      EXPECT_NEAR(want, v, 1e-15 * std::fabs(want)) << "group " << g;
    }
  }
  // ln y over −inf is NaN, not +inf.
  EXPECT_TRUE(std::isnan(got[1][5])) << got[1][5];

  // Σ ln y over a negative y is NaN; Σ ln|y| is finite.
  Frame negative({2.0, -3.0, 5.0}, {}, 1);
  const std::vector<std::vector<double>> neg =
      RunPass(negative, {{AggOp::kSum, "ln(x)"}, {AggOp::kSum, "ln(abs(x))"}});
  EXPECT_TRUE(std::isnan(neg[0][0])) << neg[0][0];
  EXPECT_NEAR(neg[1][0], std::log(30.0), 1e-15 * std::log(30.0));
}

// A Σ ln channel's bits do not depend on what shares its pass (its ln slot
// also feeding a square and a max), on the thread count, or on whether
// the suffix segments were folded onto a cached prefix.
TEST(LogProductTest, BitsIndependentOfPlanThreadsAndRefresh) {
  constexpr int64_t kRows = 40'000;
  constexpr int32_t kGroups = 37;
  Rng rng(77);
  std::vector<double> xs(kRows);
  std::vector<int32_t> gids(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    xs[i] = rng.NextLogNormal(0.0, 2.0) * (rng.NextBelow(3) == 0 ? -1 : 1);
    gids[i] = static_cast<int32_t>(rng.NextBelow(kGroups));
  }
  Frame frame(xs, gids, kGroups);
  ExecOptions opts;
  opts.morsel_size = 3000;  // several chunks, partial vectors

  MetricsRegistry solo_metrics;
  const std::vector<double> solo =
      RunPass(frame, {{AggOp::kSum, "ln(abs(x))"}}, opts, &solo_metrics)[0];
  EXPECT_EQ(solo_metrics.counter("sudaf.fused.log_product_channels")->value(),
            1);
  // Only the column is evaluated.
  EXPECT_EQ(solo_metrics.counter("sudaf.fused.slots")->value(), 1);

  MetricsRegistry wide_metrics;
  const std::vector<std::vector<double>> wide =
      RunPass(frame,
          {{AggOp::kSum, "ln(abs(x))^2"},
           {AggOp::kMax, "ln(abs(x))"},
           {AggOp::kSum, "ln(abs(x))"},
           {AggOp::kProd, "sgn(x)"}},
          opts, &wide_metrics);
  EXPECT_EQ(wide_metrics.counter("sudaf.fused.log_product_channels")->value(),
            1);
  ExpectSameBits(solo, wide[2], "wide plan");

  for (int threads : {2, 4}) {
    ExecOptions par = opts;
    par.parallel = true;
    par.num_threads = threads;
    ExpectSameBits(solo, RunPass(frame, {{AggOp::kSum, "ln(abs(x))"}}, par)[0],
                   "threads=" + std::to_string(threads));
  }

  // Cold pass over two segments vs. the prefix segment, then the suffix
  // folded onto it.
  const int64_t cut = 17'000;
  StateBatchIncremental cold;
  cold.segment_ends = {cut, kRows};
  const std::vector<double> cold_out =
      RunPass(frame, {{AggOp::kSum, "ln(abs(x))"}}, opts, nullptr, &cold)[0];

  Frame prefix(std::vector<double>(xs.begin(), xs.begin() + cut),
               std::vector<int32_t>(gids.begin(), gids.begin() + cut),
               kGroups);
  const std::vector<double> prefix_out =
      RunPass(prefix, {{AggOp::kSum, "ln(abs(x))"}}, opts)[0];
  Frame suffix(std::vector<double>(xs.begin() + cut, xs.end()),
               std::vector<int32_t>(gids.begin() + cut, gids.end()), kGroups);
  StateBatchIncremental refresh;
  refresh.init = {&prefix_out};
  const std::vector<double> refreshed =
      RunPass(suffix, {{AggOp::kSum, "ln(abs(x))"}}, opts, nullptr, &refresh)[0];
  ExpectSameBits(cold_out, refreshed, "refresh");
}

// Only Σ ln channels run log-free; other ops over an ln slot, and sums of
// other functions of it, keep the per-row ln.
TEST(LogProductTest, CountsOnlySumOfLogChannels) {
  Frame frame({1.5, 2.5, 3.5, 4.5}, {0, 1, 0, 1}, 2);
  MetricsRegistry metrics;
  const std::vector<std::vector<double>> out =
      RunPass(frame,
          {{AggOp::kProd, "ln(x)"},
           {AggOp::kMin, "ln(x)"},
           {AggOp::kSum, "ln(x)^2"},
           {AggOp::kSum, "ln(x + 1)"}},
          ExecOptions{}, &metrics);
  EXPECT_EQ(metrics.counter("sudaf.fused.channels")->value(), 4);
  // Σ ln(x + 1)
  EXPECT_EQ(metrics.counter("sudaf.fused.log_product_channels")->value(), 1);
  EXPECT_EQ(out[0][0], std::log(1.5) * std::log(3.5));
  EXPECT_EQ(out[1][1], std::log(2.5));
  EXPECT_NEAR(out[3][0], std::log(2.5) + std::log(4.5), 1e-15);
}

// The counter reaches ExecStats, the profile JSON and the fused_pass span:
// gm's share-mode state is the log class, Σ ln|x|.
TEST(LogProductTest, CounterReachesStatsProfileAndTrace) {
  std::vector<int64_t> g;
  std::vector<double> x;
  std::vector<double> y;
  Rng rng(5);
  for (int i = 0; i < 3000; ++i) {
    g.push_back(static_cast<int64_t>(rng.NextBelow(7)));
    x.push_back(rng.NextDoubleIn(0.5, 9.5));
    y.push_back(rng.NextDoubleIn(-1.0, 1.0));
  }
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable(g, x, y));
  SudafSession session(&catalog);
  auto share = session.Execute("SELECT g, gm(x), hm(x) FROM t GROUP BY g",
                               ExecMode::kSudafShare);
  ASSERT_TRUE(share.ok()) << share.status().ToString();
  EXPECT_EQ(share->stats.fused_log_product_channels, 1);
  const std::string json = share->ProfileJson();
  EXPECT_NE(json.find("\"log_product_channels\": 1"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\": \"log_product_channels\""),
            std::string::npos)
      << json;

  // Share, no-share and engine mode agree on gm.
  SudafSession noshare_session(&catalog);
  SudafSession engine_session(&catalog);
  auto noshare = noshare_session.Execute(
      "SELECT g, gm(x), hm(x) FROM t GROUP BY g", ExecMode::kSudafNoShare);
  auto engine = engine_session.Execute(
      "SELECT g, gm(x), hm(x) FROM t GROUP BY g", ExecMode::kEngine);
  ASSERT_TRUE(noshare.ok()) << noshare.status().ToString();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(noshare->stats.fused_log_product_channels, 1);
  for (int64_t r = 0; r < (*share)->num_rows(); ++r) {
    for (const auto* other : {&noshare, &engine}) {
      testing_util::ExpectClose((**other)->column(1).GetNumeric(r),
                                (*share)->column(1).GetNumeric(r), 1e-13);
    }
  }
}

}  // namespace
}  // namespace sudaf
