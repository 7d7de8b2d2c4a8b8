#ifndef SUDAF_TESTS_TEST_UTIL_H_
#define SUDAF_TESTS_TEST_UTIL_H_

// Shared helpers for the SUDAF test suite.

#include <unistd.h>

#include <cctype>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/catalog.h"

namespace sudaf {

// gtest helpers for Status/Result.
#define ASSERT_OK(expr)                                 \
  do {                                                  \
    const ::sudaf::Status _st = (expr);                 \
    ASSERT_TRUE(_st.ok()) << _st.ToString();            \
  } while (false)

#define EXPECT_OK(expr)                                 \
  do {                                                  \
    const ::sudaf::Status _st = (expr);                 \
    EXPECT_TRUE(_st.ok()) << _st.ToString();            \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                   \
  ASSERT_OK_AND_ASSIGN_IMPL(SUDAF_CONCAT(_r_, __LINE__), lhs, rexpr)
#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, rexpr)         \
  auto tmp = (rexpr);                                      \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();        \
  lhs = std::move(tmp).value();

namespace testing_util {

// Builds a single-table catalog: t(g INT64, x FLOAT64, y FLOAT64) with the
// given rows.
inline std::unique_ptr<Table> MakeXyTable(
    const std::vector<int64_t>& g, const std::vector<double>& x,
    const std::vector<double>& y) {
  Schema schema;
  SUDAF_CHECK(schema.AddField({"g", DataType::kInt64}).ok());
  SUDAF_CHECK(schema.AddField({"x", DataType::kFloat64}).ok());
  SUDAF_CHECK(schema.AddField({"y", DataType::kFloat64}).ok());
  auto table = std::make_unique<Table>(std::move(schema));
  for (size_t i = 0; i < g.size(); ++i) {
    table->column(0).AppendInt64(g[i]);
    table->column(1).AppendFloat64(x[i]);
    table->column(2).AppendFloat64(y[i]);
  }
  table->FinishBulkAppend();
  return table;
}

// A scratch path under ::testing::TempDir() private to the running test
// case: `stem`, the suite and test names, and the process id. Test cases
// that run at the same time (ctest -j starts one process per case) never
// share files through it, so one case's cleanup cannot remove another's
// directory. Nothing is created.
inline std::string UniqueTempDir(const std::string& stem) {
  std::string name = stem;
  if (const ::testing::TestInfo* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    name += std::string("_") + info->test_suite_name() + "_" + info->name();
  }
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return ::testing::TempDir() + name + "_" + std::to_string(getpid());
}

// Relative-tolerance comparison that treats two NaNs as equal.
inline void ExpectClose(double expected, double actual, double tol = 1e-9) {
  if (std::isnan(expected) && std::isnan(actual)) return;
  if (std::isinf(expected) || std::isinf(actual)) {
    EXPECT_EQ(expected, actual);
    return;
  }
  EXPECT_NEAR(actual, expected,
              tol * std::max({1.0, std::fabs(expected), std::fabs(actual)}))
      << "expected " << expected << ", got " << actual;
}

}  // namespace testing_util
}  // namespace sudaf

#endif  // SUDAF_TESTS_TEST_UTIL_H_
