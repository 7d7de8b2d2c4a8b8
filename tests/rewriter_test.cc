// Tests for sudaf/rewriter: the declarative UDAF library, macro expansion,
// query rewriting (Q1 -> RQ1) and native-terminating-function plans.

#include "expr/parser.h"
#include "gtest/gtest.h"
#include "sudaf/rewriter.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

TEST(UdafLibraryTest, StandardLibraryContents) {
  UdafLibrary lib = UdafLibrary::Standard();
  for (const char* name : {"avg", "var", "stddev", "qm", "cm", "apm", "hm",
                           "gm", "skewness", "kurtosis", "theta1", "theta0",
                           "covar", "corr", "logsumexp"}) {
    EXPECT_NE(lib.GetExpr(name), nullptr) << name;
  }
  EXPECT_EQ(lib.GetExpr("nonexistent"), nullptr);
}

TEST(UdafLibraryTest, DefineValidation) {
  UdafLibrary lib;
  EXPECT_OK(lib.Define("mymean", {"x"}, "sum(x)/count()"));
  // Scalar functions cannot be shadowed.
  EXPECT_FALSE(lib.Define("sqrt", {"x"}, "sum(x)").ok());
  // Definitions must aggregate.
  EXPECT_FALSE(lib.Define("notagg", {"x"}, "x + 1").ok());
  // Parse errors propagate.
  EXPECT_FALSE(lib.Define("broken", {"x"}, "sum(x").ok());
}

TEST(UdafLibraryTest, ExpandSubstitutesArguments) {
  UdafLibrary lib;
  ASSERT_OK(lib.Define("mymean", {"x"}, "sum(x)/count()"));
  auto expr = ParseExpression("1 + mymean(a*b)");
  ASSERT_TRUE(expr.ok());
  ASSERT_OK_AND_ASSIGN(ExprPtr expanded, lib.Expand(**expr));
  auto expected = ParseExpression("1 + sum(a*b)/count()");
  EXPECT_TRUE(expanded->Equals(**expected)) << expanded->ToString();
}

TEST(UdafLibraryTest, DefinitionsMayReferenceOtherDefinitions) {
  // theta0 references theta1 and expands to a pure-primitive expression.
  UdafLibrary lib = UdafLibrary::Standard();
  auto expr = ParseExpression("theta0(a, b)");
  ASSERT_TRUE(expr.ok());
  ASSERT_OK_AND_ASSIGN(ExprPtr expanded, lib.Expand(**expr));
  EXPECT_FALSE(expanded->ContainsFunc("theta1"));
  EXPECT_FALSE(expanded->ContainsFunc("theta0"));
  EXPECT_TRUE(expanded->ContainsAggregate());
}

TEST(UdafLibraryTest, RecursiveDefinitionsAreRejectedAtExpand) {
  UdafLibrary lib;
  ASSERT_OK(lib.Define("loop", {"x"}, "loop(x) + sum(x)"));
  auto expr = ParseExpression("loop(a)");
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(lib.Expand(**expr).ok());
}

TEST(RewriteQueryTest, Q1ProducesFivePartialAggregates) {
  // The motivating example: theta1 + two avgs share the five states
  // s1..s5 of RQ1.
  UdafLibrary lib = UdafLibrary::Standard();
  auto stmt = ParseSelect(
      "SELECT ss_item_sk, d_year, avg(ss_list_price), avg(ss_sales_price), "
      "theta1(ss_list_price, ss_sales_price) "
      "FROM store_sales, store, date_dim "
      "WHERE ss_sold_date_sk = d_date_sk AND ss_store_sk = s_store_sk AND "
      "s_state = 'TN' GROUP BY ss_item_sk, d_year");
  ASSERT_TRUE(stmt.ok());
  ASSERT_OK_AND_ASSIGN(RewrittenQuery rewritten,
                       RewriteQuery(**stmt, lib));
  EXPECT_EQ(rewritten.form().states.size(), 5u);
  ASSERT_EQ(rewritten.items().size(), 5u);
  EXPECT_EQ(rewritten.items()[0].group_key_index, 0);
  EXPECT_EQ(rewritten.items()[1].group_key_index, 1);
  EXPECT_GE(rewritten.items()[2].terminating_index, 0);
}

TEST(RewriteQueryTest, Q2SharesStatesWithinTheQuery) {
  // qm + stddev need only {Σx², count, Σx} — three states, not six.
  UdafLibrary lib = UdafLibrary::Standard();
  auto stmt =
      ParseSelect("SELECT g, qm(x), stddev(x) FROM t GROUP BY g");
  ASSERT_TRUE(stmt.ok());
  ASSERT_OK_AND_ASSIGN(RewrittenQuery rewritten, RewriteQuery(**stmt, lib));
  EXPECT_EQ(rewritten.form().states.size(), 3u);
}

TEST(RewriteQueryTest, ExplainRendersRqForm) {
  UdafLibrary lib = UdafLibrary::Standard();
  auto stmt = ParseSelect("SELECT g, qm(x) FROM t GROUP BY g");
  ASSERT_TRUE(stmt.ok());
  ASSERT_OK_AND_ASSIGN(RewrittenQuery rewritten, RewriteQuery(**stmt, lib));
  std::string explain = rewritten.Explain(**stmt);
  EXPECT_NE(explain.find("s1"), std::string::npos);
  EXPECT_NE(explain.find("GROUP BY g"), std::string::npos);
  EXPECT_NE(explain.find("sum("), std::string::npos);
}

TEST(RewriteQueryTest, NonAggregateItemFails) {
  UdafLibrary lib = UdafLibrary::Standard();
  auto stmt = ParseSelect("SELECT x + 1 FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(RewriteQuery(**stmt, lib).ok());
}

TEST(RewriteQueryTest, SelectKeyMustBeGrouped) {
  UdafLibrary lib = UdafLibrary::Standard();
  auto stmt = ParseSelect("SELECT g, sum(x) FROM t GROUP BY h");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(RewriteQuery(**stmt, lib).ok());
}

TEST(RewriteQueryTest, NativeUdafPlansItsStates) {
  UdafLibrary lib = UdafLibrary::Standard();
  NativeUdaf native;
  native.name = "mid_range";
  native.state_templates = {"min(x)", "max(x)"};
  native.terminate = [](const std::vector<double>& s) -> Result<double> {
    return (s[0] + s[1]) / 2.0;
  };
  ASSERT_OK(lib.DefineNative(std::move(native)));

  auto stmt = ParseSelect("SELECT mid_range(v) FROM t");
  ASSERT_TRUE(stmt.ok());
  ASSERT_OK_AND_ASSIGN(RewrittenQuery rewritten, RewriteQuery(**stmt, lib));
  ASSERT_EQ(rewritten.items().size(), 1u);
  EXPECT_NE(rewritten.items()[0].native, nullptr);
  EXPECT_EQ(rewritten.items()[0].native_term_indices.size(), 2u);
  EXPECT_EQ(rewritten.form().states.size(), 2u);
}

TEST(RewriteQueryTest, NativeUdafRequiresColumnArgument) {
  UdafLibrary lib = UdafLibrary::Standard();
  NativeUdaf native;
  native.name = "needs_col";
  native.state_templates = {"min(x)"};
  native.terminate = [](const std::vector<double>& s) -> Result<double> {
    return s[0];
  };
  ASSERT_OK(lib.DefineNative(std::move(native)));
  auto stmt = ParseSelect("SELECT needs_col(v + 1) FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(RewriteQuery(**stmt, lib).ok());
}

TEST(RewriteQueryTest, InlineExpressionsWork) {
  // Users can write raw mathematical expressions in the select list.
  UdafLibrary lib = UdafLibrary::Standard();
  auto stmt =
      ParseSelect("SELECT sum(x^2)/sum(x) AS contraharmonic FROM t");
  ASSERT_TRUE(stmt.ok());
  ASSERT_OK_AND_ASSIGN(RewrittenQuery rewritten, RewriteQuery(**stmt, lib));
  EXPECT_EQ(rewritten.form().states.size(), 2u);
  EXPECT_EQ(rewritten.items()[0].output_name, "contraharmonic");
}

}  // namespace
}  // namespace sudaf
