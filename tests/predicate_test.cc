// Tests for the extended SQL predicate forms: NOT, BETWEEN, IN — parsed
// into the core operator set and evaluated through both the vectorized and
// the row-at-a-time filter paths.

#include "engine/executor.h"
#include "expr/evaluator.h"
#include "expr/parser.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

double EvalConst(const std::string& expression) {
  auto expr = ParseExpression(expression);
  SUDAF_CHECK_MSG(expr.ok(), expr.status().ToString());
  auto v = EvalRow(**expr, nullptr, 0);
  SUDAF_CHECK_MSG(v.ok(), v.status().ToString());
  return v->AsDouble();
}

TEST(PredicateParseTest, NotInvertsTruth) {
  EXPECT_DOUBLE_EQ(EvalConst("not 1 > 2"), 1.0);
  EXPECT_DOUBLE_EQ(EvalConst("not 2 > 1"), 0.0);
  EXPECT_DOUBLE_EQ(EvalConst("not not 5 = 5"), 1.0);
}

TEST(PredicateParseTest, NotBindsBetweenAndAndComparison) {
  // NOT a = b AND c = d ≡ (NOT (a = b)) AND (c = d)
  EXPECT_DOUBLE_EQ(EvalConst("not 1 = 2 and 3 = 3"), 1.0);
  EXPECT_DOUBLE_EQ(EvalConst("not (1 = 1 and 2 = 2)"), 0.0);
}

TEST(PredicateParseTest, Between) {
  EXPECT_DOUBLE_EQ(EvalConst("5 between 1 and 9"), 1.0);
  EXPECT_DOUBLE_EQ(EvalConst("5 between 6 and 9"), 0.0);
  EXPECT_DOUBLE_EQ(EvalConst("5 between 5 and 5"), 1.0);  // inclusive
  EXPECT_DOUBLE_EQ(EvalConst("5 not between 6 and 9"), 1.0);
}

TEST(PredicateParseTest, BetweenDesugarsToRange) {
  auto expr = ParseExpression("x between 2 and 4");
  ASSERT_TRUE(expr.ok());
  auto expected = ParseExpression("x >= 2 and x <= 4");
  EXPECT_TRUE((*expr)->Equals(**expected)) << (*expr)->ToString();
}

TEST(PredicateParseTest, InList) {
  EXPECT_DOUBLE_EQ(EvalConst("3 in (1, 2, 3)"), 1.0);
  EXPECT_DOUBLE_EQ(EvalConst("4 in (1, 2, 3)"), 0.0);
  EXPECT_DOUBLE_EQ(EvalConst("4 not in (1, 2, 3)"), 1.0);
}

TEST(PredicateParseTest, InDesugarsToEqualityChain) {
  auto expr = ParseExpression("x in (1, 2)");
  ASSERT_TRUE(expr.ok());
  auto expected = ParseExpression("x = 1 or x = 2");
  EXPECT_TRUE((*expr)->Equals(**expected)) << (*expr)->ToString();
}

TEST(PredicateParseTest, MalformedForms) {
  EXPECT_FALSE(ParseExpression("x between 1").ok());
  EXPECT_FALSE(ParseExpression("x in 1, 2").ok());
  EXPECT_FALSE(ParseExpression("x in (1, 2").ok());
}

class PredicateEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema;
    ASSERT_OK(schema.AddField({"k", DataType::kInt64}));
    ASSERT_OK(schema.AddField({"v", DataType::kFloat64}));
    ASSERT_OK(schema.AddField({"tag", DataType::kString}));
    auto table = std::make_unique<Table>(std::move(schema));
    const char* tags[] = {"a", "b", "c"};
    for (int i = 0; i < 30; ++i) {
      table->AppendRow({Value(int64_t{i}), Value(i * 1.0),
                        Value(std::string(tags[i % 3]))});
    }
    catalog_.PutTable("t", std::move(table));
    executor_ = std::make_unique<Executor>(&catalog_);
  }

  double Count(const std::string& where) {
    auto stmt = ParseSelect("SELECT count(*) FROM t WHERE " + where);
    SUDAF_CHECK_MSG(stmt.ok(), stmt.status().ToString());
    auto result = executor_->Execute(**stmt);
    SUDAF_CHECK_MSG(result.ok(), result.status().ToString());
    return (*result)->column(0).GetFloat64(0);
  }

  Catalog catalog_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(PredicateEngineTest, BetweenOnNumericColumn) {
  EXPECT_DOUBLE_EQ(Count("k between 10 and 19"), 10.0);
}

TEST_F(PredicateEngineTest, InOnStringColumn) {
  // Exercises the row-at-a-time fallback (strings are not vectorizable).
  EXPECT_DOUBLE_EQ(Count("tag in ('a', 'c')"), 20.0);
  EXPECT_DOUBLE_EQ(Count("tag not in ('a', 'c')"), 10.0);
}

TEST_F(PredicateEngineTest, NotOverVectorizedPredicate) {
  EXPECT_DOUBLE_EQ(Count("not v < 10"), 20.0);
}

TEST_F(PredicateEngineTest, MixedVectorizedAndFallback) {
  EXPECT_DOUBLE_EQ(Count("v between 0 and 14 and tag = 'a'"), 5.0);
}

}  // namespace
}  // namespace sudaf
