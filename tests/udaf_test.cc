// Tests for the engine-mode (IUME) UDAFs, each derived from its library
// definition by DeriveUdaf: every UDAF against a directly computed
// reference, the merge-correctness property that distributed execution
// depends on, and the derivation's input checks.

#include <cmath>
#include <numeric>

#include "agg/udaf.h"
#include "common/rng.h"
#include "expr/parser.h"
#include "gtest/gtest.h"
#include "sudaf/rewriter.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

using testing_util::ExpectClose;

// Derives `name` over the columns x (and y) from `library`: its definition
// expanded over them, or, for a primitive aggregate, its own call.
std::unique_ptr<Udaf> Derive(const UdafLibrary& library,
                             const std::string& name) {
  const UdafDefinition* def = library.GetExpr(name);
  std::vector<std::string> params = {"x"};
  if (def != nullptr && def->params.size() == 2) params.push_back("y");
  std::string call = name + "(x)";
  if (name == "count") call = "count()";
  if (params.size() == 2) call = name + "(x, y)";
  auto parsed = ParseExpression(call);
  SUDAF_CHECK_MSG(parsed.ok(), parsed.status().ToString());
  auto body = library.Expand(**parsed);
  SUDAF_CHECK_MSG(body.ok(), body.status().ToString());
  auto udaf = DeriveUdaf(name, params, **body);
  SUDAF_CHECK_MSG(udaf.ok(), udaf.status().ToString());
  return std::move(*udaf);
}

std::unique_ptr<Udaf> Derive(const std::string& name) {
  static const UdafLibrary library = UdafLibrary::Standard();
  return Derive(library, name);
}

// Runs `udaf` over (x[, y]) row-at-a-time, single state.
double RunUdaf(const Udaf& udaf, const std::vector<double>& x,
               const std::vector<double>& y = {}) {
  std::vector<Value> state = udaf.Initialize();
  for (size_t i = 0; i < x.size(); ++i) {
    std::vector<Value> args = {Value(x[i])};
    if (udaf.num_args() == 2) args.emplace_back(y[i]);
    udaf.Update(&state, args);
  }
  auto value = udaf.Evaluate(state);
  SUDAF_CHECK_MSG(value.ok(), value.status().ToString());
  return value->AsDouble();
}

// Runs `udaf` split into two partitions merged with Udaf::Merge.
double RunMerged(const Udaf& udaf, const std::vector<double>& x) {
  std::vector<Value> s1 = udaf.Initialize();
  std::vector<Value> s2 = udaf.Initialize();
  for (size_t i = 0; i < x.size(); ++i) {
    udaf.Update(i % 2 == 0 ? &s1 : &s2, {Value(x[i])});
  }
  udaf.Merge(&s1, s2);
  auto value = udaf.Evaluate(s1);
  SUDAF_CHECK_MSG(value.ok(), value.status().ToString());
  return value->AsDouble();
}

class HardcodedUdafTest : public ::testing::Test {
 protected:
  double Run(const std::string& name, const std::vector<double>& x,
             const std::vector<double>& y = {}) {
    return RunUdaf(*Derive(name), x, y);
  }
};

const std::vector<double> kX = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};

TEST_F(HardcodedUdafTest, SumCountAvgMinMax) {
  ExpectClose(40.0, Run("sum", kX));
  ExpectClose(8.0, Run("count", kX));
  ExpectClose(5.0, Run("avg", kX));
  ExpectClose(2.0, Run("min", kX));
  ExpectClose(9.0, Run("max", kX));
}

TEST_F(HardcodedUdafTest, VarAndStddev) {
  // Classic textbook multiset: population variance 4, stddev 2.
  ExpectClose(4.0, Run("var", kX));
  ExpectClose(2.0, Run("stddev", kX));
}

TEST_F(HardcodedUdafTest, PowerMeans) {
  auto power_mean = [](const std::vector<double>& x, double p) {
    double s = 0.0;
    for (double v : x) s += std::pow(v, p);
    return std::pow(s / x.size(), 1.0 / p);
  };
  ExpectClose(power_mean(kX, 2.0), Run("qm", kX));
  ExpectClose(power_mean(kX, 3.0), Run("cm", kX));
  ExpectClose(power_mean(kX, 4.0), Run("apm", kX));
  ExpectClose(power_mean(kX, -1.0), Run("hm", kX));
}

TEST_F(HardcodedUdafTest, GeometricMean) {
  double log_sum = 0.0;
  for (double v : kX) log_sum += std::log(v);
  ExpectClose(std::exp(log_sum / kX.size()), Run("gm", kX));
  ExpectClose(std::exp(log_sum / kX.size()), Run("gm_prod", kX));
}

TEST_F(HardcodedUdafTest, SkewnessAndKurtosis) {
  auto moment = [](const std::vector<double>& x, int k) {
    double mean = std::accumulate(x.begin(), x.end(), 0.0) / x.size();
    double m = 0.0;
    for (double v : x) m += std::pow(v - mean, k);
    return m / x.size();
  };
  double var = moment(kX, 2);
  ExpectClose(moment(kX, 3) / std::pow(var, 1.5), Run("skewness", kX), 1e-8);
  ExpectClose(moment(kX, 4) / (var * var), Run("kurtosis", kX), 1e-8);
}

TEST_F(HardcodedUdafTest, Theta1MatchesLeastSquares) {
  // y = 3x + 1 exactly => slope 3, intercept 1.
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {4, 7, 10, 13, 16};
  ExpectClose(3.0, Run("theta1", x, y));
  ExpectClose(1.0, Run("theta0", x, y));
}

TEST_F(HardcodedUdafTest, CovarianceAndCorrelation) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {2, 4, 6, 8};
  ExpectClose(2.5, Run("covar", x, y));   // population covariance of x,2x
  ExpectClose(1.0, Run("corr", x, y), 1e-9);
}

TEST_F(HardcodedUdafTest, LogSumExp) {
  std::vector<double> x = {0.0, 1.0, 2.0};
  double expected = std::log(std::exp(0.0) + std::exp(1.0) + std::exp(2.0));
  ExpectClose(expected, Run("logsumexp", x));
}

// Merge must be equivalent to a single pass (the commutative/associative
// contract the user is responsible for in real engines).
class UdafMergeTest : public HardcodedUdafTest,
                      public ::testing::WithParamInterface<const char*> {};

TEST_P(UdafMergeTest, MergeEqualsSinglePass) {
  Rng rng(99);
  std::vector<double> x(257);
  for (double& v : x) v = rng.NextDoubleIn(0.5, 9.5);
  std::unique_ptr<Udaf> udaf = Derive(GetParam());
  ExpectClose(RunUdaf(*udaf, x), RunMerged(*udaf, x), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllSingleColumnUdafs, UdafMergeTest,
    ::testing::Values("sum", "count", "avg", "min", "max", "var", "stddev",
                      "qm", "cm", "apm", "hm", "gm", "skewness", "kurtosis",
                      "logsumexp"));

TEST_F(HardcodedUdafTest, RegistryRejectsDuplicates) {
  UdafRegistry fresh;
  ASSERT_OK(fresh.Register(Derive("qm")));
  ASSERT_OK(fresh.Register(Derive("gm")));
  EXPECT_EQ(fresh.Register(Derive("qm")).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(fresh.Get("no_such_udaf").ok());
  EXPECT_TRUE(fresh.Has("qm"));
  EXPECT_EQ(fresh.Names(), (std::vector<std::string>{"gm", "qm"}));
}

TEST(InterpretedUdafTest, CreateValidatesSpec) {
  auto derive = [](const std::string& body,
                   std::vector<std::string> params = {"x"}) {
    auto parsed = ParseExpression(body);
    SUDAF_CHECK_MSG(parsed.ok(), parsed.status().ToString());
    return DeriveUdaf("f", std::move(params), **parsed).status();
  };
  EXPECT_OK(derive("sqrt(sum(x^2)/count()) - max(x)"));
  EXPECT_OK(derive("sum(x*y)/count()", {"x", "y"}));
  EXPECT_FALSE(derive("ln(2)").ok());              // no aggregate call
  EXPECT_FALSE(derive("x + sum(x)").ok());         // column outside a call
  EXPECT_FALSE(derive("sum(z)").ok());             // not an argument
  EXPECT_FALSE(derive("sum(x + sum(x))").ok());    // nested aggregate
  EXPECT_FALSE(derive("sum(nosuch(x))").ok());     // unknown function
  EXPECT_FALSE(derive("qm(x)").ok());              // call left unexpanded
  EXPECT_FALSE(derive("sum(x) + 'a'").ok());       // string literal
}

TEST(InterpretedUdafTest, SimpleMeanViaSpec) {
  // A user definition whose parameter is not named x: the call's columns
  // bind by expansion.
  UdafLibrary library;
  ASSERT_OK(library.Define("imean", {"v"}, "sum(v)/count()"));
  ExpectClose(2.0, RunUdaf(*Derive(library, "imean"), {1.0, 2.0, 3.0}));
}

TEST(InterpretedUdafTest, MergeExpressionsWork) {
  // Each state merges with its own ⊕: max, min and prod.
  auto parsed = ParseExpression("max(x) - min(x) + prod(x)");
  ASSERT_TRUE(parsed.ok());
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Udaf> udaf,
                       DeriveUdaf("spread", {"x"}, **parsed));
  std::vector<Value> a = udaf->Initialize();
  std::vector<Value> b = udaf->Initialize();
  udaf->Update(&a, {Value(3.0)});
  udaf->Update(&b, {Value(7.0)});
  udaf->Update(&b, {Value(-1.0)});
  udaf->Merge(&a, b);
  ASSERT_OK_AND_ASSIGN(Value result, udaf->Evaluate(a));
  ExpectClose(7.0 - -1.0 + 3.0 * 7.0 * -1.0, result.AsDouble());
}

// Every experiment UDAF, interpreted row at a time from its derived IUME
// form, must agree with the same function compiled as plain arithmetic
// over power sums.
double Compiled(const std::string& name, const std::vector<double>& x,
                const std::vector<double>& y) {
  double n = 0, sx = 0, sxx = 0, sx3 = 0, sx4 = 0, sinv = 0, sln = 0, sexp = 0;
  double sy = 0, syy = 0, sxy = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    n += 1;
    sx += x[i];
    sxx += x[i] * x[i];
    sx3 += x[i] * x[i] * x[i];
    sx4 += x[i] * x[i] * x[i] * x[i];
    sinv += 1 / x[i];
    sln += std::log(x[i]);
    sexp += std::exp(x[i]);
    sy += y[i];
    syy += y[i] * y[i];
    sxy += x[i] * y[i];
  }
  const double m1 = sx / n, m2 = sxx / n, m3 = sx3 / n, m4 = sx4 / n;
  const double var = m2 - m1 * m1;
  if (name == "qm") return std::sqrt(m2);
  if (name == "cm") return std::cbrt(m3);
  if (name == "apm") return std::pow(m4, 0.25);
  if (name == "hm") return n / sinv;
  if (name == "gm") return std::exp(sln / n);
  if (name == "skewness") {
    return (m3 - 3 * m1 * m2 + 2 * m1 * m1 * m1) / std::pow(var, 1.5);
  }
  if (name == "kurtosis") {
    return (m4 - 4 * m1 * m3 + 6 * m1 * m1 * m2 - 3 * m1 * m1 * m1 * m1) /
           (var * var);
  }
  if (name == "theta1") return (n * sxy - sx * sy) / (n * sxx - sx * sx);
  if (name == "covar") return sxy / n - m1 * (sy / n);
  if (name == "corr") {
    return (n * sxy - sx * sy) /
           (std::sqrt(n * sxx - sx * sx) * std::sqrt(n * syy - sy * sy));
  }
  SUDAF_CHECK(name == "logsumexp");
  return std::log(sexp);
}

class InterpretedVsCompiledTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(InterpretedVsCompiledTest, Agree) {
  Rng rng(314);
  std::vector<double> x(333);
  std::vector<double> y(333);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.NextDoubleIn(0.5, 9.5);
    y[i] = 2.0 * x[i] + rng.NextDoubleIn(-1.0, 1.0);
  }
  ExpectClose(Compiled(GetParam(), x, y), RunUdaf(*Derive(GetParam()), x, y),
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(ExperimentUdafs, InterpretedVsCompiledTest,
                         ::testing::Values("qm", "cm", "apm", "hm", "gm",
                                           "skewness", "kurtosis", "theta1",
                                           "covar", "corr", "logsumexp"));

TEST(InterpretedUdafTest, MergePartitionsCorrectly) {
  std::unique_ptr<Udaf> udaf = Derive("qm");
  Rng rng(7);
  std::vector<double> xs(100);
  for (double& v : xs) v = rng.NextDoubleIn(1.0, 5.0);

  std::vector<Value> whole = udaf->Initialize();
  std::vector<Value> left = udaf->Initialize();
  std::vector<Value> right = udaf->Initialize();
  for (size_t i = 0; i < xs.size(); ++i) {
    udaf->Update(&whole, {Value(xs[i])});
    udaf->Update(i % 2 == 0 ? &left : &right, {Value(xs[i])});
  }
  udaf->Merge(&left, right);
  ASSERT_OK_AND_ASSIGN(Value merged, udaf->Evaluate(left));
  ASSERT_OK_AND_ASSIGN(Value direct, udaf->Evaluate(whole));
  ExpectClose(direct.AsDouble(), merged.AsDouble(), 1e-9);
}

TEST(InterpretedUdafTest, GmHandlesNegatives) {
  // gm is exp(Σ ln x / n): ln of a negative is NaN, as in no-share mode —
  // no hidden sign channel.
  EXPECT_TRUE(std::isnan(RunUdaf(*Derive("gm"), {-2.0, 2.0, -2.0})));
  EXPECT_TRUE(std::isnan(RunUdaf(*Derive("gm"), {-1.0, 4.0})));
  // An even count of negatives still makes Π x positive for gm_prod.
  ExpectClose(2.0, RunUdaf(*Derive("gm_prod"), {-2.0, 2.0, -2.0, 2.0}),
              1e-12);
}

}  // namespace
}  // namespace sudaf
