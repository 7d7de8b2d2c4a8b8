// The shared vector expression DAG (engine/slot_program.h): constant
// exponents lowered against std::pow, the slot builder against the scalar
// EvalPow, and the compiled terminate program against the scalar
// reference across several kVector blocks.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/slot_program.h"
#include "expr/evaluator.h"
#include "expr/parser.h"
#include "gtest/gtest.h"
#include "sql/statement.h"
#include "sudaf/rewriter.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool SameValue(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Every exponent LowerPow lowers: ±0, ±0.5 and the integers ±1..±16.
std::vector<double> LoweredExponents() {
  std::vector<double> cs = {0.0, -0.0, 0.5, -0.5};
  for (int k = 1; k <= 16; ++k) {
    cs.push_back(k);
    cs.push_back(-k);
  }
  return cs;
}

// Roundings the lowering of x^c takes: k − 1 multiplies (or one sqrt),
// plus one for the reciprocal.
int Roundings(double c) {
  const PowLowering p = LowerPow(c);
  int r = p.kind == PowLowering::Kind::kChain ? p.factors - 1 : 1;
  return r + (p.recip ? 1 : 0);
}

TEST(ConstantPowTest, LoweringCoversTheDocumentedExponents) {
  for (double c : LoweredExponents()) {
    EXPECT_NE(LowerPow(c).kind, PowLowering::Kind::kPow) << c;
  }
  for (double c : {1.5, 1.0 / 3.0, 17.0, -17.0, 0.25, kInf, -kInf,
                   std::nan("")}) {
    EXPECT_EQ(LowerPow(c).kind, PowLowering::Kind::kPow) << c;
    EXPECT_TRUE(SameValue(EvalPow(2.5, c), std::pow(2.5, c))) << c;
  }
  EXPECT_EQ(LowerPow(-0.5).kind, PowLowering::Kind::kHalf);
  EXPECT_TRUE(LowerPow(-0.5).recip);
  EXPECT_EQ(LowerPow(4.0).factors, 4);
}

// Special inputs give std::pow's value exactly.
TEST(ConstantPowTest, SpecialValuesMatchStdPowExactly) {
  const double specials[] = {0.0, -0.0, kInf, -kInf, std::nan(""), 1.0,
                             -1.0};
  for (double c : LoweredExponents()) {
    for (double x : specials) {
      const double got = EvalPow(x, c);
      const double want = std::pow(x, c);
      EXPECT_TRUE(SameValue(got, want))
          << x << "^" << c << ": " << got << " vs std::pow " << want;
    }
  }
  // The two values where a bare sqrt would differ.
  EXPECT_TRUE(SameValue(PowHalf(-0.0), 0.0));
  EXPECT_EQ(PowHalf(-kInf), kInf);
  EXPECT_TRUE(std::isnan(PowHalf(-4.0)));
}

// Other inputs (negatives, subnormals, normals whose partial products
// stay normal) are within the lowering's roundings of std::pow, counted
// in units in the last place of std::pow's value.
TEST(ConstantPowTest, OtherValuesAreWithinTheChainsRoundings) {
  Rng rng(25);
  std::vector<double> xs = {4.9e-324, -4.9e-324, 2.5e-310, -1e-308,
                            std::numeric_limits<double>::denorm_min() * 3,
                            -3.0, -0.75, 2.0, 0.1, 10.0};
  for (int i = 0; i < 2000; ++i) {
    // |x| in [2^-60, 2^60): x^±16 stays in the normal range.
    const double m = rng.NextDoubleIn(1.0, 2.0);
    const double x = std::ldexp(m, static_cast<int>(rng.NextBelow(120)) - 60);
    xs.push_back(rng.NextBelow(2) == 0 ? x : -x);
  }
  for (double c : LoweredExponents()) {
    const double bound = Roundings(c);
    for (double x : xs) {
      const double got = EvalPow(x, c);
      const double want = std::pow(x, c);
      if (!std::isfinite(want) || want == 0.0 || std::isnan(got)) {
        EXPECT_TRUE(SameValue(got, want))
            << x << "^" << c << ": " << got << " vs " << want;
        continue;
      }
      const double ulp =
          std::nextafter(std::fabs(want), kInf) - std::fabs(want);
      EXPECT_LE(std::fabs(got - want), bound * ulp)
          << x << "^" << c << ": " << got << " vs " << want;
    }
  }
}

// A partial product that leaves the normal range loses what any such
// multiply loses: the documented limit of the chain.
TEST(ConstantPowTest, PartialProductsOutsideTheNormalRangeArePinned) {
  EXPECT_EQ(EvalPow(1e160, -2.0), 0.0);  // 1 / (1e160 · 1e160 = inf)
  EXPECT_GT(std::pow(1e160, -2.0), 0.0);  // a subnormal
  EXPECT_EQ(EvalPow(1e200, 2.0), kInf);
  EXPECT_EQ(std::pow(1e200, 2.0), kInf);
}

// The slot builder lowers through the same rule as EvalPow, bit for bit,
// with a folded exponent (1/2, -(3), 2*2) as with a literal one, and so do
// EvalTerminating and the row interpreter EvalRow.
TEST(ConstantPowTest, SlotProgramMatchesEvalPowBitwise) {
  std::vector<double> xs = {0.0, -0.0, kInf, -kInf, std::nan(""), 4.9e-324,
                            -2.5e-310, 1e160, -1e-160, 3.0, -0.7, 1.0 / 3};
  std::vector<const double*> states = {xs.data()};
  const int n = static_cast<int>(xs.size());
  std::vector<std::string> exps;
  for (double c : LoweredExponents()) {
    exps.push_back(FormatExactDouble(c));
  }
  for (const char* e : {"(1/2)", "-(3)", "(2*2)", "(-1/2)", "1.5", "(1/3)"}) {
    exps.push_back(e);
  }
  for (const std::string& e : exps) {
    ASSERT_OK_AND_ASSIGN(ExprPtr exponent, ParseExpression(e));
    double c = 0.0;
    ASSERT_TRUE(FoldConstant(*exponent, &c)) << e;
    ExprPtr row_pow =
        Expr::Binary(BinaryOp::kPow, Expr::Column("x"), exponent->Clone());
    ExprPtr pow = Expr::Binary(BinaryOp::kPow, Expr::StateRef(0),
                               std::move(exponent));
    SlotProgram program;
    ASSERT_OK_AND_ASSIGN(int root, program.Add(*pow, SlotLeaves{nullptr, 1}));
    program.MarkRoot(root);
    program.Finish();
    const bool lowered = LowerPow(c).kind != PowLowering::Kind::kPow;
    for (const Slot& s : program.slots()) {
      if (lowered) {
        EXPECT_NE(s.kind, Slot::Kind::kPow) << e;
      }
    }
    SlotBuffers buffers;
    buffers.Init(program, n);
    EvalVector(program, &buffers, 0, n, states.data());
    for (int r = 0; r < n; ++r) {
      const double got = buffers.ptr[root][r];
      ASSERT_OK_AND_ASSIGN(double want, EvalTerminating(*pow, {xs[r]}));
      EXPECT_TRUE(SameValue(got, want))
          << xs[r] << "^" << e << ": " << got << " vs " << want;
      EXPECT_TRUE(SameValue(want, EvalPow(xs[r], c)));
      RowAccessor accessor = [&xs](const std::string&,
                                   int64_t row) -> Result<Value> {
        return Value(xs[row]);
      };
      ASSERT_OK_AND_ASSIGN(Value row_value, EvalRow(*row_pow, accessor, r));
      EXPECT_TRUE(SameValue(row_value.AsDouble(), want))
          << xs[r] << "^" << e << " in EvalRow";
    }
  }
}

// A query's terminated items equal EvalTerminating over its own states,
// bit for bit, over more groups than one kVector block holds, and a
// program whose root is a bare state reads the column in place.
TEST(TerminateProgramTest, BlocksMatchScalarReferenceAcrossVectors) {
  const int groups = 2 * static_cast<int>(kVector) + 300;
  Rng rng(7);
  std::vector<int64_t> g;
  std::vector<double> x;
  for (int i = 0; i < 4 * groups; ++i) {
    g.push_back(i % groups);
    x.push_back(rng.NextDoubleIn(0.5, 40.0));
  }
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable(g, x, x));
  SudafSession session(&catalog);
  const std::string items =
      "sum(x), avg(x), var(x), stddev(x), kurtosis(x), qm(x), hm(x), "
      "skewness(x)";
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      ParseSelect("SELECT g, " + items + " FROM t GROUP BY g ORDER BY g"));
  ASSERT_OK_AND_ASSIGN(RewrittenQuery rw,
                       RewriteQuery(*stmt, session.library()));
  std::string states_sql = "SELECT g";
  for (const AggStateDef& s : rw.form().states) {
    states_sql += ", " + s.ToString();
  }
  states_sql += " FROM t GROUP BY g ORDER BY g";

  for (ExecMode mode : {ExecMode::kSudafShare, ExecMode::kSudafNoShare}) {
    ASSERT_OK_AND_ASSIGN(
        QueryResult states,
        session.Execute(states_sql, mode));
    ASSERT_OK_AND_ASSIGN(
        QueryResult result,
        session.Execute("SELECT g, " + items +
                            " FROM t GROUP BY g ORDER BY g",
                        mode));
    ASSERT_EQ(result.table->num_rows(), groups);
    EXPECT_EQ(result.stats.terminate_slots,
              rw.plan->terminate.num_evaluated_slots());
    EXPECT_EQ(result.stats.terminate_shared_slots,
              rw.plan->terminate.num_shared_slots());
    const size_t num_states = rw.form().states.size();
    for (int r = 0; r < groups; ++r) {
      std::vector<double> row(num_states);
      for (size_t s = 0; s < num_states; ++s) {
        row[s] = states.table->column(static_cast<int>(s) + 1)
                     .GetFloat64(r);
      }
      for (size_t i = 1; i < rw.items().size(); ++i) {
        const Expr& term = *rw.form().terminating[rw.items()[i]
                                                      .terminating_index];
        ASSERT_OK_AND_ASSIGN(double want, EvalTerminating(term, row));
        const double got =
            result.table->column(static_cast<int>(i)).GetFloat64(r);
        ASSERT_TRUE(SameValue(got, want))
            << term.ToString() << " group " << r << ": " << got << " vs "
            << want;
      }
    }
  }
}

}  // namespace
}  // namespace sudaf
