// Tests for the typed ORDER BY kernel (engine/ordering.h) and the ordering
// rules every execution path inherits from it: NaN above every number,
// int64 keys compared exactly, ties kept in row order.

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "engine/ordering.h"
#include "gtest/gtest.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr int64_t k2To53 = int64_t{1} << 53;

Column DoubleColumn(const std::vector<double>& v) {
  Column c(DataType::kFloat64);
  for (double x : v) c.AppendFloat64(x);
  return c;
}

Column IntColumn(const std::vector<int64_t>& v) {
  Column c(DataType::kInt64);
  for (int64_t x : v) c.AppendInt64(x);
  return c;
}

TEST(OrderRowsTest, NaNSortsAboveEveryNumber) {
  Column c = DoubleColumn({3.0, kNaN, -HUGE_VAL, kNaN, HUGE_VAL, 1.0});
  EXPECT_EQ(OrderRows({{&c, true}}, 6, -1),
            (std::vector<int64_t>{2, 5, 0, 4, 1, 3}));
  // Descending puts NaN first; NaN ties keep row order.
  EXPECT_EQ(OrderRows({{&c, false}}, 6, -1),
            (std::vector<int64_t>{1, 3, 4, 0, 5, 2}));
  EXPECT_EQ(OrderRows({{&c, false}}, 6, 3), (std::vector<int64_t>{1, 3, 4}));
}

TEST(OrderRowsTest, NegativeZeroTiesWithZero) {
  Column c = DoubleColumn({0.0, -0.0, 0.0});
  EXPECT_EQ(OrderRows({{&c, true}}, 3, -1), (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(OrderRows({{&c, false}}, 3, -1), (std::vector<int64_t>{0, 1, 2}));
}

TEST(OrderRowsTest, Int64KeysCompareExactly) {
  // Through double, 2^53 + 1 rounds to 2^53 and the two keys would tie.
  Column c = IntColumn({k2To53 + 1, k2To53, k2To53 + 1, k2To53 - 1});
  EXPECT_EQ(OrderRows({{&c, true}}, 4, -1),
            (std::vector<int64_t>{3, 1, 0, 2}));
  EXPECT_EQ(OrderRows({{&c, false}}, 4, -1),
            (std::vector<int64_t>{0, 2, 1, 3}));
}

TEST(OrderRowsTest, StringsOrderByContentNotDictionaryCode) {
  Column c(DataType::kString);
  for (const char* s : {"pear", "apple", "zoo", "apple", "fig"}) {
    c.AppendString(s);
  }
  EXPECT_EQ(OrderRows({{&c, true}}, 5, -1),
            (std::vector<int64_t>{1, 3, 4, 0, 2}));
  EXPECT_EQ(OrderRows({{&c, false}}, 5, 2), (std::vector<int64_t>{2, 0}));
}

TEST(OrderRowsTest, NoKeysKeepsRowOrderAndCuts) {
  EXPECT_EQ(OrderRows({}, 4, -1), (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(OrderRows({}, 4, 2), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(OrderRows({}, 4, 0), (std::vector<int64_t>{}));
  EXPECT_EQ(OrderRows({}, 4, 9), (std::vector<int64_t>{0, 1, 2, 3}));
}

// The top-k cut equals the prefix of a full stable sort, on multi-key data
// with many ties and NaNs, for every LIMIT.
TEST(OrderRowsTest, PartialSortEqualsStableSortPrefix) {
  Rng rng(4242);
  const int64_t n = 300;
  std::vector<int64_t> a(n);
  std::vector<double> b(n);
  for (int64_t i = 0; i < n; ++i) {
    a[i] = static_cast<int64_t>(rng.NextBelow(5));
    b[i] = rng.NextBelow(10) == 0 ? kNaN
                                  : static_cast<double>(rng.NextBelow(7));
  }
  Column ca = IntColumn(a);
  Column cb = DoubleColumn(b);
  auto b_less = [&b](int64_t x, int64_t y) {
    const bool nx = std::isnan(b[x]);
    const bool ny = std::isnan(b[y]);
    if (nx != ny) return ny;
    return !nx && b[x] < b[y];
  };
  for (bool a_asc : {true, false}) {
    for (bool b_asc : {true, false}) {
      std::vector<int64_t> want(n);
      for (int64_t i = 0; i < n; ++i) want[i] = i;
      std::stable_sort(want.begin(), want.end(), [&](int64_t x, int64_t y) {
        if (a[x] != a[y]) return a_asc ? a[x] < a[y] : a[x] > a[y];
        return b_asc ? b_less(x, y) : b_less(y, x);
      });
      for (int64_t limit : {int64_t{-1}, int64_t{0}, int64_t{1}, int64_t{7},
                            int64_t{150}, n, n + 5}) {
        std::vector<int64_t> cut = want;
        if (limit >= 0 && limit < n) cut.resize(limit);
        EXPECT_EQ(OrderRows({{&ca, a_asc}, {&cb, b_asc}}, n, limit), cut)
            << "a_asc " << a_asc << " b_asc " << b_asc << " limit " << limit;
      }
    }
  }
}

// One INT64 key takes OrderRows's (key, row) pair sort. It must give the
// order of the generic comparator, here a stable sort on
// CompareColumnRows: random keys with many duplicates plus the int64
// limits and 2^53 ± 1, ascending and descending, with and without LIMIT.
TEST(OrderRowsTest, SingleInt64KeyMatchesGenericComparator) {
  Rng rng(99);
  const int64_t n = 500;
  const std::vector<int64_t> extremes = {
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min() + 1, -1, 0, k2To53 - 1, k2To53,
      k2To53 + 1};
  std::vector<int64_t> v(n);
  for (int64_t i = 0; i < n; ++i) {
    v[i] = rng.NextBelow(4) == 0
               ? extremes[rng.NextBelow(extremes.size())]
               : static_cast<int64_t>(rng.NextBelow(40)) - 20;
  }
  Column c = IntColumn(v);
  for (bool asc : {true, false}) {
    std::vector<int64_t> want(n);
    for (int64_t i = 0; i < n; ++i) want[i] = i;
    std::stable_sort(want.begin(), want.end(), [&](int64_t x, int64_t y) {
      const int cmp = CompareColumnRows(c, x, y);
      return asc ? cmp < 0 : cmp > 0;
    });
    for (int64_t limit : {int64_t{-1}, int64_t{0}, int64_t{1}, int64_t{13},
                          int64_t{250}, n - 1, n, n + 5}) {
      std::vector<int64_t> cut = want;
      if (limit >= 0 && limit < n) cut.resize(limit);
      EXPECT_EQ(OrderRows({{&c, asc}}, n, limit), cut)
          << "asc " << asc << " limit " << limit;
    }
  }
}

// The (key, row) pair sort that the counting path must reproduce.
std::vector<int64_t> PairSortOrder(const std::vector<int64_t>& v, bool asc) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (size_t r = 0; r < v.size(); ++r) {
    pairs.push_back({asc ? v[r] : ~v[r], static_cast<int64_t>(r)});
  }
  std::sort(pairs.begin(), pairs.end());
  std::vector<int64_t> order;
  for (const auto& p : pairs) order.push_back(p.second);
  return order;
}

// One INT64 key over a range at most a few times the row count, with no
// LIMIT cut, is ordered by counting: the pair sort's order exactly, with
// duplicates, both directions, negative keys and ranges at both int64 ends
// (where the descending flip and the range width would overflow signed
// arithmetic).
TEST(OrderRowsTest, DenseInt64KeysCountToThePairSortOrder) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(7);
  for (int64_t base : {int64_t{0}, int64_t{-500}, kMin, kMax - 299}) {
    std::vector<int64_t> v(300);
    for (int64_t& x : v) x = base + static_cast<int64_t>(rng.NextBelow(300));
    v[0] = base;  // pin both ends of the range
    v[1] = base + 299;
    Column c = IntColumn(v);
    for (bool asc : {true, false}) {
      SCOPED_TRACE(testing::Message() << "base " << base << " asc " << asc);
      for (int64_t limit : {int64_t{-1}, int64_t{300}, int64_t{301}}) {
        EXPECT_TRUE(OrderRowsCountsKeys({{&c, asc}}, 300, limit));
        EXPECT_EQ(OrderRows({{&c, asc}}, 300, limit), PairSortOrder(v, asc));
      }
    }
  }
  // The full int64 range has width 2^64 - 1, whose domain (width + 1)
  // wraps to 0: it must fall back.
  Column wide = IntColumn({kMax, kMin, 0, kMin, kMax});
  for (bool asc : {true, false}) {
    EXPECT_FALSE(OrderRowsCountsKeys({{&wide, asc}}, 5, -1));
    EXPECT_EQ(OrderRows({{&wide, asc}}, 5, -1),
              PairSortOrder({kMax, kMin, 0, kMin, kMax}, asc));
  }
}

// The counting path stays out of a sparse range, a LIMIT that cuts (the
// partial sort only orders the kept prefix), 0 and 1 rows, and every other
// key shape; each still gives the pair sort's order.
TEST(OrderRowsTest, CountingFallsBackOutsideDenseUncutInt64Keys) {
  const std::vector<int64_t> sparse = {5, int64_t{1} << 40, -3, 5, 9};
  Column cs = IntColumn(sparse);
  EXPECT_FALSE(OrderRowsCountsKeys({{&cs, true}}, 5, -1));
  EXPECT_EQ(OrderRows({{&cs, true}}, 5, -1), PairSortOrder(sparse, true));
  EXPECT_EQ(OrderRows({{&cs, false}}, 5, -1), PairSortOrder(sparse, false));

  const std::vector<int64_t> dense = {3, 1, 2, 1, 0, 3};
  Column cd = IntColumn(dense);
  EXPECT_TRUE(OrderRowsCountsKeys({{&cd, true}}, 6, -1));
  for (int64_t limit : {0, 1, 5}) {
    EXPECT_FALSE(OrderRowsCountsKeys({{&cd, true}}, 6, limit));
    std::vector<int64_t> want = PairSortOrder(dense, false);
    want.resize(limit);
    EXPECT_EQ(OrderRows({{&cd, false}}, 6, limit), want) << limit;
  }

  Column empty = IntColumn({});
  EXPECT_FALSE(OrderRowsCountsKeys({{&empty, true}}, 0, -1));
  EXPECT_EQ(OrderRows({{&empty, true}}, 0, -1), (std::vector<int64_t>{}));
  Column one = IntColumn({42});
  EXPECT_FALSE(OrderRowsCountsKeys({{&one, false}}, 1, -1));
  EXPECT_EQ(OrderRows({{&one, false}}, 1, -1), (std::vector<int64_t>{0}));

  Column doubles = DoubleColumn({1.0, 0.0, 1.0});
  EXPECT_FALSE(OrderRowsCountsKeys({{&doubles, true}}, 3, -1));
  EXPECT_FALSE(OrderRowsCountsKeys({{&cd, true}, {&cd, false}}, 6, -1));
}

TEST(ValueCompareTest, Int64ExactAndNaNAboveNumbers) {
  EXPECT_LT(Value(k2To53).Compare(Value(k2To53 + 1)), 0);
  EXPECT_GT(Value(k2To53 + 1).Compare(Value(k2To53)), 0);
  EXPECT_GT(Value(kNaN).Compare(Value(HUGE_VAL)), 0);
  EXPECT_LT(Value(int64_t{7}).Compare(Value(kNaN)), 0);
  EXPECT_EQ(Value(kNaN).Compare(Value(kNaN)), 0);
  EXPECT_LT(Value(kNaN).Compare(Value(std::string("a"))), 0);
}

// --- Through SQL, in every execution mode -----------------------------------

class OrderingSqlTest : public ::testing::Test {
 protected:
  static constexpr ExecMode kModes[] = {
      ExecMode::kEngine, ExecMode::kSudafNoShare, ExecMode::kSudafShare};
};

// kurtosis of a constant group is 0/0 (the power-sum variance cancels to
// exactly 0), a NaN key that must sort last ascending and first
// descending.
TEST_F(OrderingSqlTest, OrderByKurtosisPutsConstantGroupLast) {
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable(
                            {1, 1, 1, 2, 2, 2, 3, 3, 3, 3},
                            {1, 2, 4, 2, 2, 2, 5, 1, 2, 9},
                            {0, 0, 0, 0, 0, 0, 0, 0, 0, 0}));
  SudafSession session(&catalog);
  for (ExecMode mode : kModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    ASSERT_OK_AND_ASSIGN(
        QueryResult asc,
        session.Execute("SELECT g, kurtosis(x) k FROM t GROUP BY g ORDER BY k",
                        mode));
    ASSERT_EQ(asc->num_rows(), 3);
    EXPECT_TRUE(std::isnan(asc->column(1).GetFloat64(2)));
    EXPECT_EQ(asc->column(0).GetInt64(2), 2);
    EXPECT_LE(asc->column(1).GetFloat64(0), asc->column(1).GetFloat64(1));

    ASSERT_OK_AND_ASSIGN(
        QueryResult desc,
        session.Execute(
            "SELECT g, kurtosis(x) k FROM t GROUP BY g ORDER BY k DESC LIMIT 2",
            mode));
    ASSERT_EQ(desc->num_rows(), 2);
    EXPECT_EQ(desc->column(0).GetInt64(0), 2);
    EXPECT_TRUE(std::isnan(desc->column(1).GetFloat64(0)));
  }
}

TEST_F(OrderingSqlTest, Int64GroupKeysAbove2To53OrderExactly) {
  Catalog catalog;
  // First appearance (group order) is 2^53 + 1, then 2^53: a double-based
  // comparison ties them and keeps that order.
  catalog.PutTable("t", testing_util::MakeXyTable(
                            {k2To53 + 1, k2To53, k2To53 + 1, k2To53 + 2},
                            {1, 2, 3, 4}, {0, 0, 0, 0}));
  SudafSession session(&catalog);
  for (ExecMode mode : kModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    ASSERT_OK_AND_ASSIGN(
        QueryResult asc,
        session.Execute("SELECT g, sum(x) s FROM t GROUP BY g ORDER BY g",
                        mode));
    ASSERT_EQ(asc->num_rows(), 3);
    EXPECT_EQ(asc->column(0).GetInt64(0), k2To53);
    EXPECT_EQ(asc->column(0).GetInt64(1), k2To53 + 1);
    EXPECT_EQ(asc->column(0).GetInt64(2), k2To53 + 2);
    EXPECT_EQ(asc->column(1).GetFloat64(1), 4.0);

    ASSERT_OK_AND_ASSIGN(
        QueryResult desc,
        session.Execute(
            "SELECT g, sum(x) s FROM t GROUP BY g ORDER BY g DESC LIMIT 2",
            mode));
    ASSERT_EQ(desc->num_rows(), 2);
    EXPECT_EQ(desc->column(0).GetInt64(0), k2To53 + 2);
    EXPECT_EQ(desc->column(0).GetInt64(1), k2To53 + 1);
  }
}

// String keys order by content, and a LIMIT's output keeps only the
// strings it returns.
TEST_F(OrderingSqlTest, StringGroupKeysOrderByContent) {
  Schema schema;
  ASSERT_OK(schema.AddField({"s", DataType::kString}));
  ASSERT_OK(schema.AddField({"x", DataType::kFloat64}));
  auto t = std::make_unique<Table>(std::move(schema));
  const std::vector<std::string> keys = {"pear", "apple", "zoo", "fig",
                                         "apple", "kiwi"};
  for (size_t i = 0; i < keys.size(); ++i) {
    t->column(0).AppendString(keys[i]);
    t->column(1).AppendFloat64(static_cast<double>(i));
  }
  t->FinishBulkAppend();
  Catalog catalog;
  catalog.PutTable("t", std::move(t));
  SudafSession session(&catalog);
  for (ExecMode mode : kModes) {
    SCOPED_TRACE(static_cast<int>(mode));
    ASSERT_OK_AND_ASSIGN(
        QueryResult r,
        session.Execute(
            "SELECT s, sum(x) v FROM t GROUP BY s ORDER BY s DESC LIMIT 3",
            mode));
    ASSERT_EQ(r->num_rows(), 3);
    EXPECT_EQ(r->column(0).GetString(0), "zoo");
    EXPECT_EQ(r->column(0).GetString(1), "pear");
    EXPECT_EQ(r->column(0).GetString(2), "kiwi");
    EXPECT_EQ(r->column(0).dictionary().size(), 3u);
  }
}

}  // namespace
}  // namespace sudaf
