// Tests for expr/: lexer, parser, AST utilities and evaluators.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "engine/input_binding.h"
#include "engine/slot_program.h"
#include "expr/evaluator.h"
#include "expr/lexer.h"
#include "expr/parser.h"
#include "gtest/gtest.h"
#include "storage/column.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

using testing_util::ExpectClose;

// --- Lexer -------------------------------------------------------------------

TEST(LexerTest, TokenizesMixedInput) {
  ASSERT_OK_AND_ASSIGN(std::vector<Token> tokens,
                       Tokenize("sum(x) >= 3.5e2 and s = 'it''s'"));
  ASSERT_EQ(tokens.back().kind, TokenKind::kEnd);
  EXPECT_TRUE(tokens[0].IsKeyword("SUM"));
  EXPECT_TRUE(tokens[1].IsSymbol("("));
  EXPECT_TRUE(tokens[4].IsSymbol(">="));
  EXPECT_DOUBLE_EQ(tokens[5].number, 350.0);
  EXPECT_FALSE(tokens[5].is_integer);
  // Escaped quote in string literal.
  EXPECT_EQ(tokens[9].kind, TokenKind::kString);
  EXPECT_EQ(tokens[9].text, "it's");
}

TEST(LexerTest, IntegerFlag) {
  ASSERT_OK_AND_ASSIGN(std::vector<Token> tokens, Tokenize("42 4.5 1e3"));
  EXPECT_TRUE(tokens[0].is_integer);
  EXPECT_FALSE(tokens[1].is_integer);
  EXPECT_FALSE(tokens[2].is_integer);
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("'abc").ok());
}

TEST(LexerTest, UnknownCharacterFails) {
  EXPECT_FALSE(Tokenize("a ? b").ok());
}

// --- Parser ------------------------------------------------------------------

TEST(ParserTest, Precedence) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, ParseExpression("1 + 2 * 3 ^ 2"));
  ASSERT_OK_AND_ASSIGN(Value v, EvalRow(*e, nullptr, 0));
  EXPECT_DOUBLE_EQ(v.AsDouble(), 19.0);
}

TEST(ParserTest, PowerIsRightAssociative) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, ParseExpression("2 ^ 3 ^ 2"));
  ASSERT_OK_AND_ASSIGN(Value v, EvalRow(*e, nullptr, 0));
  EXPECT_DOUBLE_EQ(v.AsDouble(), 512.0);  // 2^(3^2)
}

TEST(ParserTest, NegativeExponent) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, ParseExpression("2 ^ -2"));
  ASSERT_OK_AND_ASSIGN(Value v, EvalRow(*e, nullptr, 0));
  EXPECT_DOUBLE_EQ(v.AsDouble(), 0.25);
}

TEST(ParserTest, UnaryMinusBindsTighterThanMul) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, ParseExpression("-2 * 3"));
  ASSERT_OK_AND_ASSIGN(Value v, EvalRow(*e, nullptr, 0));
  EXPECT_DOUBLE_EQ(v.AsDouble(), -6.0);
}

TEST(ParserTest, AggregateCallsParseAsAggNodes) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, ParseExpression("sum(x^2) / count()"));
  std::vector<const Expr*> aggs;
  e->CollectAggCalls(&aggs);
  ASSERT_EQ(aggs.size(), 2u);
  EXPECT_EQ(aggs[0]->agg_op, AggOp::kSum);
  EXPECT_EQ(aggs[1]->agg_op, AggOp::kCount);
}

TEST(ParserTest, CountStarSupported) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, ParseExpression("count(*)"));
  EXPECT_EQ(e->kind, ExprKind::kAggCall);
  EXPECT_EQ(e->agg_op, AggOp::kCount);
  EXPECT_TRUE(e->args.empty());
}

TEST(ParserTest, ProdAlias) {
  ASSERT_OK_AND_ASSIGN(ExprPtr a, ParseExpression("prod(x)"));
  ASSERT_OK_AND_ASSIGN(ExprPtr b, ParseExpression("product(x)"));
  EXPECT_TRUE(a->Equals(*b));
}

TEST(ParserTest, FunctionNamesLowercased) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, ParseExpression("SQRT(x)"));
  EXPECT_EQ(e->func_name, "sqrt");
}

TEST(ParserTest, SumWithoutArgumentFails) {
  EXPECT_FALSE(ParseExpression("sum()").ok());
}

TEST(ParserTest, TrailingInputFails) {
  EXPECT_FALSE(ParseExpression("1 + 2 3").ok());
}

TEST(ParserTest, UnbalancedParensFails) {
  EXPECT_FALSE(ParseExpression("(1 + 2").ok());
}

TEST(ParserTest, ComparisonAndLogic) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e,
                       ParseExpression("1 < 2 and (3 >= 4 or 1 <> 2)"));
  ASSERT_OK_AND_ASSIGN(Value v, EvalRow(*e, nullptr, 0));
  EXPECT_DOUBLE_EQ(v.AsDouble(), 1.0);
}

// --- AST utilities ------------------------------------------------------------

TEST(ExprTest, CloneAndEquals) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, ParseExpression("sum(x*y) / count()"));
  ExprPtr copy = e->Clone();
  EXPECT_TRUE(e->Equals(*copy));
  ASSERT_OK_AND_ASSIGN(ExprPtr other, ParseExpression("sum(x*y) / sum(x)"));
  EXPECT_FALSE(e->Equals(*other));
}

TEST(ExprTest, CollectColumns) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, ParseExpression("a + b * a"));
  std::vector<std::string> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::vector<std::string>{"a", "b", "a"}));
}

TEST(ExprTest, ContainsAggregate) {
  ASSERT_OK_AND_ASSIGN(ExprPtr with, ParseExpression("1 + sum(x)"));
  ASSERT_OK_AND_ASSIGN(ExprPtr without, ParseExpression("1 + x"));
  EXPECT_TRUE(with->ContainsAggregate());
  EXPECT_FALSE(without->ContainsAggregate());
}

TEST(ExprTest, ExpandFunctionCalls) {
  ASSERT_OK_AND_ASSIGN(ExprPtr body, ParseExpression("sum(x)/count()"));
  ASSERT_OK_AND_ASSIGN(ExprPtr call, ParseExpression("1 + myavg(a*b)"));
  ExprPtr expanded = ExpandFunctionCalls(*call, "myavg", {"x"}, *body);
  ASSERT_OK_AND_ASSIGN(ExprPtr expected,
                       ParseExpression("1 + sum(a*b)/count()"));
  EXPECT_TRUE(expanded->Equals(*expected))
      << expanded->ToString() << " vs " << expected->ToString();
}

TEST(ExprTest, ExpandHandlesNestedCalls) {
  ASSERT_OK_AND_ASSIGN(ExprPtr body, ParseExpression("sum(x)"));
  ASSERT_OK_AND_ASSIGN(ExprPtr call, ParseExpression("f(f(a))"));
  ExprPtr expanded = ExpandFunctionCalls(*call, "f", {"x"}, *body);
  ASSERT_OK_AND_ASSIGN(ExprPtr expected, ParseExpression("sum(sum(a))"));
  EXPECT_TRUE(expanded->Equals(*expected)) << expanded->ToString();
}

// --- Evaluators -----------------------------------------------------------------

TEST(ScalarFuncTest, KnownFunctions) {
  ASSERT_OK_AND_ASSIGN(double s, ApplyScalarFunc("sqrt", {9.0}));
  EXPECT_DOUBLE_EQ(s, 3.0);
  ASSERT_OK_AND_ASSIGN(double l, ApplyScalarFunc("log", {2.0, 8.0}));
  EXPECT_DOUBLE_EQ(l, 3.0);
  ASSERT_OK_AND_ASSIGN(double g, ApplyScalarFunc("sgn", {-4.0}));
  EXPECT_DOUBLE_EQ(g, -1.0);
  ASSERT_OK_AND_ASSIGN(double n, ApplyScalarFunc("nullif", {2.0, 2.0}));
  EXPECT_TRUE(std::isnan(n));
  ASSERT_OK_AND_ASSIGN(double n2, ApplyScalarFunc("nullif", {2.0, 3.0}));
  EXPECT_DOUBLE_EQ(n2, 2.0);
}

TEST(ScalarFuncTest, UnknownAndWrongArity) {
  EXPECT_FALSE(ApplyScalarFunc("frobnicate", {1.0}).ok());
  EXPECT_FALSE(ApplyScalarFunc("sqrt", {1.0, 2.0}).ok());
  EXPECT_TRUE(IsKnownScalarFunc("ln"));
  EXPECT_FALSE(IsKnownScalarFunc("median"));
}

TEST(EvalRowTest, ColumnsAndStrings) {
  RowAccessor accessor = [](const std::string& col,
                            int64_t row) -> Result<Value> {
    if (col == "x") return Value(static_cast<double>(row) + 1.0);
    if (col == "s") return Value(std::string(row == 0 ? "TN" : "CA"));
    return Status::NotFound(col);
  };
  ASSERT_OK_AND_ASSIGN(ExprPtr e, ParseExpression("x * 2 + 1"));
  ASSERT_OK_AND_ASSIGN(Value v, EvalRow(*e, accessor, 2));
  EXPECT_DOUBLE_EQ(v.AsDouble(), 7.0);

  ASSERT_OK_AND_ASSIGN(ExprPtr pred, ParseExpression("s = 'TN'"));
  ASSERT_OK_AND_ASSIGN(Value p0, EvalRow(*pred, accessor, 0));
  ASSERT_OK_AND_ASSIGN(Value p1, EvalRow(*pred, accessor, 1));
  EXPECT_DOUBLE_EQ(p0.AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(p1.AsDouble(), 0.0);
}

TEST(EvalRowTest, StringNumberComparisonIsError) {
  RowAccessor accessor = [](const std::string&, int64_t) -> Result<Value> {
    return Value(std::string("a"));
  };
  ASSERT_OK_AND_ASSIGN(ExprPtr e, ParseExpression("s = 1"));
  EXPECT_FALSE(EvalRow(*e, accessor, 0).ok());
}

TEST(EvalRowTest, AggregateInRowContextIsError) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, ParseExpression("sum(x)"));
  EXPECT_FALSE(EvalRow(*e, nullptr, 0).ok());
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// EvalRow of `text` with x and y bound to the given values.
double EvalRowXY(const std::string& text, double x, double y = 0.0) {
  RowAccessor accessor = [x, y](const std::string& col,
                                int64_t) -> Result<Value> {
    if (col == "x") return Value(x);
    if (col == "y") return Value(y);
    return Status::NotFound(col);
  };
  Result<ExprPtr> e = ParseExpression(text);
  SUDAF_CHECK_MSG(e.ok(), e.status().ToString());
  Result<Value> v = EvalRow(**e, accessor, 0);
  SUDAF_CHECK_MSG(v.ok(), v.status().ToString());
  return v->AsDouble();
}

// A constant exponent, written as `^`, pow() or power(), literal or
// folded, goes through EvalPow bit for bit, at the values where the
// lowering and std::pow could part: ±0, -inf and NaN under ^0.5, ^-2.
TEST(EvalRowTest, ConstantExponentsFollowEvalPow) {
  const double inf = std::numeric_limits<double>::infinity();
  const double xs[] = {0.0,  -0.0, inf,   -inf, std::nan(""), 3.0,
                       -0.7, 1e160, 4.9e-324, 1.0 / 3};
  const std::pair<const char*, double> exps[] = {
      {"0.5", 0.5}, {"-2", -2.0}, {"3", 3.0},    {"(1/2)", 0.5},
      {"-(3)", -3.0}, {"(2*2)", 4.0}, {"0", 0.0}, {"-0.5", -0.5}};
  for (double x : xs) {
    for (const auto& [text, c] : exps) {
      const double want = EvalPow(x, c);
      for (const std::string& form :
           {"x^" + std::string(text), "pow(x, " + std::string(text) + ")",
            "power(x, " + std::string(text) + ")"}) {
        const double got = EvalRowXY(form, x);
        EXPECT_TRUE(SameBits(got, want) || (std::isnan(got) &&
                                            std::isnan(want)))
            << form << " at x=" << x << ": " << got << " vs " << want;
      }
    }
  }
  // The cases a plain sqrt or std::pow would answer differently.
  EXPECT_TRUE(SameBits(EvalRowXY("x^0.5", -0.0), 0.0));
  EXPECT_EQ(EvalRowXY("x^0.5", -inf), inf);
  EXPECT_TRUE(SameBits(EvalRowXY("x^-2", -0.0), inf));
  EXPECT_TRUE(SameBits(EvalRowXY("x^-2", -inf), 0.0));
}

// Other exponents still call std::pow: a constant LowerPow keeps, and one
// that is not constant.
TEST(EvalRowTest, OtherExponentsCallStdPow) {
  for (double x : {2.5, 0.3, 7.0, -0.0}) {
    EXPECT_TRUE(SameBits(EvalRowXY("x^1.5", x), std::pow(x, 1.5))) << x;
    EXPECT_TRUE(SameBits(EvalRowXY("pow(x, 1/3)", x), std::pow(x, 1.0 / 3)))
        << x;
    for (double y : {3.0, -2.0, 0.5}) {
      EXPECT_TRUE(SameBits(EvalRowXY("x^y", x, y), std::pow(x, y)))
          << x << "^" << y;
    }
  }
}

// Compiles `text` into a SlotProgram over column `col` (bound as "x") and
// evaluates its root over the column's rows.
Result<std::vector<double>> EvalOverColumn(const std::string& text,
                                           const Column& col) {
  SUDAF_ASSIGN_OR_RETURN(ExprPtr e, ParseExpression(text));
  const ColumnBinder binder =
      [&col](const std::string& name) -> Result<BoundColumn> {
    if (name != "x") return Status::NotFound(name);
    return BoundColumn{&col, nullptr, 0};
  };
  SlotProgram program;
  SUDAF_ASSIGN_OR_RETURN(int root, program.Add(*e, SlotLeaves{&binder}));
  program.MarkRoot(root);
  program.Finish();
  SlotBuffers buffers;
  buffers.Init(program, col.size());
  EvalVector(program, &buffers, 0, col.size());
  return std::vector<double>(buffers.ptr[root],
                             buffers.ptr[root] + col.size());
}

TEST(EvalVectorTest, ComputesPerRow) {
  Column x(DataType::kFloat64);
  for (double v : {1.0, 2.0, 3.0}) x.AppendFloat64(v);
  ASSERT_OK_AND_ASSIGN(std::vector<double> out,
                       EvalOverColumn("sqrt(x^2 * 4)", x));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[2], 6.0);
}

TEST(EvalVectorTest, IntColumnsWiden) {
  Column x(DataType::kInt64);
  x.AppendInt64(4);
  ASSERT_OK_AND_ASSIGN(std::vector<double> out, EvalOverColumn("x / 8", x));
  EXPECT_DOUBLE_EQ(out[0], 0.5);
}

TEST(EvalVectorTest, StringColumnIsError) {
  Column s(DataType::kString);
  s.AppendString("a");
  EXPECT_FALSE(EvalOverColumn("x + 1", s).ok());
}

TEST(EvalTerminatingTest, StateRefsAndFunctions) {
  // T = sqrt(s3/s1 - (s2/s1)^2), the stddev terminating function.
  ExprPtr t = Expr::Func(
      "sqrt",
      [] {
        std::vector<ExprPtr> args;
        args.push_back(Expr::Binary(
            BinaryOp::kSub,
            Expr::Binary(BinaryOp::kDiv, Expr::StateRef(2),
                         Expr::StateRef(0)),
            Expr::Binary(BinaryOp::kPow,
                         Expr::Binary(BinaryOp::kDiv, Expr::StateRef(1),
                                      Expr::StateRef(0)),
                         Expr::Number(2.0))));
        return args;
      }());
  // X = {1, 2, 3}: n=3, Σx=6, Σx²=14 -> stddev = sqrt(14/3 - 4).
  ASSERT_OK_AND_ASSIGN(double v, EvalTerminating(*t, {3.0, 6.0, 14.0}));
  ExpectClose(std::sqrt(14.0 / 3.0 - 4.0), v);
}

TEST(EvalTerminatingTest, ColumnRefIsError) {
  ASSERT_OK_AND_ASSIGN(ExprPtr e, ParseExpression("x + 1"));
  EXPECT_FALSE(EvalTerminating(*e, {}).ok());
}

TEST(EvalTerminatingTest, OutOfRangeStateIsError) {
  ExprPtr e = Expr::StateRef(3);
  EXPECT_FALSE(EvalTerminating(*e, {1.0}).ok());
}

}  // namespace
}  // namespace sudaf
