// Randomized end-to-end property tests.
//
// 1. Random UDAF expressions (built from the SUDAF primitive grammar) are
//    executed through the rewrite pipeline and compared against a direct
//    reference evaluation of the same mathematics — the rewrite must be
//    semantics-preserving for *every* expressible UDAF, not just the
//    library ones.
// 2. The share-mode execution must agree with no-share on arbitrary query
//    sequences (cache coherence under random interleavings).
// 3. The compiled terminate program is bit-identical to the scalar
//    per-group reference on every random UDAF, and shares subterms across
//    a query's items.

#include <cmath>
#include <cstring>
#include <sstream>

#include "common/rng.h"
#include "engine/slot_program.h"
#include "expr/evaluator.h"
#include "expr/parser.h"
#include "sql/statement.h"
#include "gtest/gtest.h"
#include "sudaf/rewriter.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

using testing_util::ExpectClose;

// Builds a random UDAF expression over column "x" from SUDAF's grammar:
// scalar chains inside sum/prod, combined with binary operators and count().
std::string RandomUdafExpression(Rng* rng, int depth = 0) {
  switch (depth < 2 ? rng->NextBelow(6) : rng->NextBelow(4)) {
    case 0: {  // sum of a scalar chain
      static const char* kChains[] = {"x",      "x^2",       "x^3",
                                      "2*x",    "ln(x)",     "sqrt(x)",
                                      "x^-1",   "ln(x)^2",   "exp(x/10)",
                                      "0.5*x^2"};
      std::ostringstream os;
      os << "sum(" << kChains[rng->NextBelow(10)] << ")";
      return os.str();
    }
    case 1:
      return "count()";
    case 2: {  // prod of a tame chain (values near 1 to avoid overflow)
      static const char* kChains[] = {"x^0.01", "exp(x/1000)"};
      std::ostringstream os;
      os << "prod(" << kChains[rng->NextBelow(2)] << ")";
      return os.str();
    }
    case 3: {
      std::ostringstream os;
      os << (rng->NextBelow(2) == 0 ? "min(x)" : "max(x)");
      return os.str();
    }
    case 4: {  // binary combination
      static const char* kOps[] = {"+", "-", "*", "/"};
      std::ostringstream os;
      os << "(" << RandomUdafExpression(rng, depth + 1) << " "
         << kOps[rng->NextBelow(4)] << " "
         << RandomUdafExpression(rng, depth + 1) << ")";
      return os.str();
    }
    default: {  // scalar wrapper
      static const char* kWraps[] = {"sqrt", "ln", "abs"};
      std::ostringstream os;
      os << kWraps[rng->NextBelow(3)] << "("
         << RandomUdafExpression(rng, depth + 1) << ")";
      return os.str();
    }
  }
}

// The compiled terminate program (SlotProgram over state columns) must
// equal the scalar EvalTerminating bit for bit on every row: here over the
// true state values and over rows that also reach ±0, negatives, ±inf,
// NaN, subnormals and rescaled states.
void ExpectProgramMatchesScalarTerminate(const Expr& term,
                                         const std::vector<double>& states,
                                         uint64_t seed) {
  Rng rng(seed);
  const int rows = 14;
  std::vector<std::vector<double>> cols(states.size(),
                                        std::vector<double>(rows));
  for (size_t s = 0; s < states.size(); ++s) {
    cols[s][0] = states[s];
    cols[s][1] = 0.0;
    cols[s][2] = -states[s];
    cols[s][3] = std::nan("");
    cols[s][4] = -0.0;
    cols[s][5] = HUGE_VAL;
    cols[s][6] = -HUGE_VAL;
    cols[s][7] = 4.9e-324;
    cols[s][8] = states[s] * 1e-310;
    cols[s][9] = -2.5e-310;
    for (int r = 10; r < rows; ++r) {
      cols[s][r] = states[s] * rng.NextDoubleIn(0.25, 4.0);
    }
  }
  std::vector<const double*> ptrs;
  for (const std::vector<double>& c : cols) ptrs.push_back(c.data());
  SlotProgram program;
  Result<int> root = program.Add(
      term, SlotLeaves{nullptr, static_cast<int>(states.size())});
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  program.MarkRoot(*root);
  program.Finish();
  SlotBuffers buffers;
  buffers.Init(program, rows);
  EvalVector(program, &buffers, 0, rows, ptrs.data());
  for (int r = 0; r < rows; ++r) {
    std::vector<double> row(states.size());
    for (size_t s = 0; s < states.size(); ++s) row[s] = cols[s][r];
    Result<double> want = EvalTerminating(term, row);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    const double got = buffers.ptr[*root][r];
    EXPECT_EQ(std::memcmp(&got, &*want, sizeof(double)), 0)
        << term.ToString() << " row " << r << ": " << got << " vs "
        << *want;
  }
}

// The slot of each item's terminating function in `plan`'s program.
const Slot& ItemSlot(const RewritePlan& plan, int item) {
  return plan.terminate.slots()[plan.terminate_roots[
      plan.items[item].terminating_index]];
}

// The terminate program shares subterms across a query's items and lowers
// constant exponents: var and stddev read one variance slot, (s1/s2)^2 is
// a multiply, and qm's ^(1/2) folds to 0.5 and becomes a sqrt slot.
TEST(TerminateProgramTest, SharesSubtermsAndLowersConstantPowers) {
  UdafLibrary library = UdafLibrary::Standard();
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      ParseSelect("SELECT g, avg(x), var(x), stddev(x) FROM t GROUP BY g"));
  ASSERT_OK_AND_ASSIGN(RewrittenQuery rw, RewriteQuery(*stmt, library));
  const RewritePlan& plan = *rw.plan;
  const Slot& var = ItemSlot(plan, 2);
  const Slot& stddev = ItemSlot(plan, 3);
  EXPECT_EQ(var.kind, Slot::Kind::kSub);
  EXPECT_EQ(stddev.kind, Slot::Kind::kSqrt);
  EXPECT_EQ(stddev.a, plan.terminate_roots[plan.items[2].terminating_index]);
  // avg's s1/s2 is var's mean, squared by one multiply.
  const int mean = plan.terminate_roots[plan.items[1].terminating_index];
  const Slot& square = plan.terminate.slots()[var.b];
  EXPECT_EQ(square.kind, Slot::Kind::kMul);
  EXPECT_EQ(square.a, mean);
  EXPECT_EQ(square.b, mean);
  for (const Slot& s : plan.terminate.slots()) {
    EXPECT_NE(s.kind, Slot::Kind::kPow);
  }
  // s1, s2, s3, s1/s2, s1/s2·s1/s2, s3/s2, the variance, its sqrt.
  EXPECT_EQ(plan.terminate.num_evaluated_slots(), 8);
  EXPECT_GE(plan.terminate.num_shared_slots(), 2);

  ASSERT_OK_AND_ASSIGN(auto qm_stmt, ParseSelect("SELECT qm(x) FROM t"));
  ASSERT_OK_AND_ASSIGN(RewrittenQuery qm, RewriteQuery(*qm_stmt, library));
  EXPECT_EQ(ItemSlot(*qm.plan, 0).kind, Slot::Kind::kPowHalf);
  for (const Slot& s : qm.plan->terminate.slots()) {
    EXPECT_NE(s.kind, Slot::Kind::kPow);
  }
}

class RandomUdafProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomUdafProperty, RewriteMatchesDirectEvaluation) {
  Rng rng(9000 + GetParam());

  // One group, positive data.
  const int n = 64;
  std::vector<int64_t> g(n, 0);
  std::vector<double> x(n);
  for (double& v : x) v = rng.NextDoubleIn(0.5, 4.0);
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable(g, x, x));
  SudafSession session(&catalog);

  for (int trial = 0; trial < 12; ++trial) {
    std::string expression = RandomUdafExpression(&rng);

    // Reference: substitute the aggregate calls by directly computed
    // values via the expression evaluator.
    auto parsed = ParseExpression(expression);
    ASSERT_TRUE(parsed.ok()) << expression;
    auto form = Canonicalize(**parsed);
    ASSERT_TRUE(form.ok()) << expression;
    std::vector<double> state_values;
    for (const AggStateDef& state : form->states) {
      double acc = state.op == AggOp::kProd ? 1.0 : 0.0;
      if (state.op == AggOp::kMin) acc = HUGE_VAL;
      if (state.op == AggOp::kMax) acc = -HUGE_VAL;
      if (state.op == AggOp::kCount) {
        acc = n;
      } else {
        for (double v : x) {
          RowAccessor accessor = [v](const std::string& col,
                                     int64_t) -> Result<Value> {
            if (col == "x") return Value(v);
            return Status::NotFound(col);
          };
          auto fv = EvalRow(*state.input, accessor, 0);
          ASSERT_TRUE(fv.ok()) << state.ToString();
          double f = fv->AsDouble();
          switch (state.op) {
            case AggOp::kSum:
              acc += f;
              break;
            case AggOp::kProd:
              acc *= f;
              break;
            case AggOp::kMin:
              acc = std::min(acc, f);
              break;
            case AggOp::kMax:
              acc = std::max(acc, f);
              break;
            default:
              break;
          }
        }
      }
      state_values.push_back(acc);
    }
    auto reference = EvalTerminating(*form->terminating[0], state_values);
    ASSERT_TRUE(reference.ok()) << expression;
    ExpectProgramMatchesScalarTerminate(*form->terminating[0], state_values,
                                        100 * GetParam() + trial);

    // Both SUDAF modes (share runs twice: cold + warm).
    std::string sql = "SELECT " + expression + " AS out FROM t";
    for (int run = 0; run < 3; ++run) {
      ExecMode mode = run == 0 ? ExecMode::kSudafNoShare
                               : ExecMode::kSudafShare;
      auto result = session.Execute(sql, mode);
      ASSERT_TRUE(result.ok()) << expression << ": "
                               << result.status().ToString();
      ASSERT_EQ((*result)->num_rows(), 1);
      double actual = (*result)->column(0).GetFloat64(0);
      ExpectClose(*reference, actual, 1e-7);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomUdafProperty, ::testing::Range(0, 10));

// Cache coherence: a random interleaving of library UDAFs over random
// grouped data — share mode must equal no-share on every query.
class RandomSequenceProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomSequenceProperty, ShareAgreesWithNoShareEverywhere) {
  Rng rng(7000 + GetParam());
  const int n = 400;
  std::vector<int64_t> g(n);
  std::vector<double> x(n), y(n);
  for (int i = 0; i < n; ++i) {
    g[i] = static_cast<int64_t>(rng.NextBelow(4));
    x[i] = rng.NextDoubleIn(0.5, 9.5);
    y[i] = rng.NextDoubleIn(0.5, 9.5);
  }
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable(g, x, y));
  SudafSession session(&catalog);

  const char* kAggs[] = {"sum",  "avg",      "var", "stddev",  "qm",
                         "cm",   "hm",       "gm",  "skewness", "kurtosis",
                         "min",  "max",      "count", "logsumexp"};
  for (int q = 0; q < 25; ++q) {
    std::string agg = kAggs[rng.NextBelow(14)];
    bool grouped = rng.NextBelow(2) == 0;
    std::string sql = grouped
                          ? "SELECT g, " + agg + "(x) FROM t GROUP BY g "
                            "ORDER BY g"
                          : "SELECT " + agg + "(x) FROM t";
    auto expected = session.Execute(sql, ExecMode::kSudafNoShare);
    auto actual = session.Execute(sql, ExecMode::kSudafShare);
    ASSERT_TRUE(expected.ok()) << sql;
    ASSERT_TRUE(actual.ok()) << sql;
    ASSERT_EQ((*expected)->num_rows(), (*actual)->num_rows()) << sql;
    int value_col = grouped ? 1 : 0;
    for (int64_t r = 0; r < (*expected)->num_rows(); ++r) {
      ExpectClose((*expected)->column(value_col).GetFloat64(r),
                  (*actual)->column(value_col).GetFloat64(r), 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSequenceProperty,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace sudaf
