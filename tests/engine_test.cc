// Tests for engine/: planning, filtering, hash joins, grouping and
// engine-native execution.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/rng.h"
#include "engine/executor.h"
#include "gtest/gtest.h"
#include "sudaf/rewriter.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

using testing_util::ExpectClose;

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // fact(fk INT64, v FLOAT64), dim(dk INT64, tag STRING, band INT64)
    Schema fact_schema;
    ASSERT_OK(fact_schema.AddField({"fk", DataType::kInt64}));
    ASSERT_OK(fact_schema.AddField({"v", DataType::kFloat64}));
    auto fact = std::make_unique<Table>(std::move(fact_schema));
    // Rows: fk cycles 1..3, v = 1..9.
    for (int i = 0; i < 9; ++i) {
      fact->column(0).AppendInt64(1 + i % 3);
      fact->column(1).AppendFloat64(i + 1.0);
    }
    fact->FinishBulkAppend();

    Schema dim_schema;
    ASSERT_OK(dim_schema.AddField({"dk", DataType::kInt64}));
    ASSERT_OK(dim_schema.AddField({"tag", DataType::kString}));
    ASSERT_OK(dim_schema.AddField({"band", DataType::kInt64}));
    auto dim = std::make_unique<Table>(std::move(dim_schema));
    dim->AppendRow({Value(int64_t{1}), Value(std::string("a")),
                    Value(int64_t{10})});
    dim->AppendRow({Value(int64_t{2}), Value(std::string("b")),
                    Value(int64_t{10})});
    dim->AppendRow({Value(int64_t{3}), Value(std::string("a")),
                    Value(int64_t{20})});
    dim->FinishBulkAppend();

    catalog_.PutTable("fact", std::move(fact));
    catalog_.PutTable("dim", std::move(dim));
    executor_ = std::make_unique<Executor>(&catalog_, nullptr, &library_);
  }

  // Runs and returns the single double of a one-row one-column result.
  double RunScalar(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    SUDAF_CHECK_MSG(stmt.ok(), stmt.status().ToString());
    auto result = executor_->Execute(**stmt);
    SUDAF_CHECK_MSG(result.ok(), result.status().ToString());
    SUDAF_CHECK((*result)->num_rows() == 1);
    return (*result)->column(0).GetNumeric(0);
  }

  Catalog catalog_;
  UdafLibrary library_ = UdafLibrary::Standard();
  std::unique_ptr<Executor> executor_;
};

TEST_F(EngineTest, UngroupedSum) {
  EXPECT_DOUBLE_EQ(RunScalar("SELECT sum(v) FROM fact"), 45.0);
}

TEST_F(EngineTest, FilterPushdown) {
  EXPECT_DOUBLE_EQ(RunScalar("SELECT count(*) FROM fact WHERE v > 5"), 4.0);
}

TEST_F(EngineTest, ExpressionInsideAggregate) {
  // Σ (v² + 1) over v = 1..9.
  double expected = 0.0;
  for (int i = 1; i <= 9; ++i) expected += i * i + 1.0;
  EXPECT_DOUBLE_EQ(RunScalar("SELECT sum(v^2 + 1) FROM fact"), expected);
}

TEST_F(EngineTest, GroupByIntKey) {
  ASSERT_OK_AND_ASSIGN(auto stmt,
                       ParseSelect("SELECT fk, sum(v) FROM fact GROUP BY fk "
                                   "ORDER BY fk"));
  ASSERT_OK_AND_ASSIGN(auto result, executor_->Execute(*stmt));
  ASSERT_EQ(result->num_rows(), 3);
  // fk=1 -> v ∈ {1,4,7}; fk=2 -> {2,5,8}; fk=3 -> {3,6,9}.
  EXPECT_DOUBLE_EQ(result->column(1).GetFloat64(0), 12.0);
  EXPECT_DOUBLE_EQ(result->column(1).GetFloat64(1), 15.0);
  EXPECT_DOUBLE_EQ(result->column(1).GetFloat64(2), 18.0);
}

TEST_F(EngineTest, JoinWithStringFilterAndGroupByString) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      ParseSelect("SELECT tag, sum(v) FROM fact, dim "
                  "WHERE fk = dk GROUP BY tag ORDER BY tag"));
  ASSERT_OK_AND_ASSIGN(auto result, executor_->Execute(*stmt));
  ASSERT_EQ(result->num_rows(), 2);
  EXPECT_EQ(result->column(0).GetString(0), "a");
  EXPECT_DOUBLE_EQ(result->column(1).GetFloat64(0), 12.0 + 18.0);  // fk 1,3
  EXPECT_DOUBLE_EQ(result->column(1).GetFloat64(1), 15.0);          // fk 2
}

TEST_F(EngineTest, JoinPlusDimensionPredicate) {
  EXPECT_DOUBLE_EQ(
      RunScalar("SELECT sum(v) FROM fact, dim WHERE fk = dk AND tag = 'a'"),
      30.0);
}

TEST_F(EngineTest, OrPredicateOnSingleTable) {
  EXPECT_DOUBLE_EQ(
      RunScalar(
          "SELECT count(*) FROM fact, dim WHERE fk = dk AND "
          "(tag = 'b' or band = 20)"),
      6.0);  // fk=2 (3 rows) + fk=3 (3 rows)
}

TEST_F(EngineTest, CompositeGroupKeys) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      ParseSelect("SELECT tag, band, count(*) FROM fact, dim WHERE fk = dk "
                  "GROUP BY tag, band ORDER BY tag, band"));
  ASSERT_OK_AND_ASSIGN(auto result, executor_->Execute(*stmt));
  ASSERT_EQ(result->num_rows(), 3);  // (a,10), (a,20), (b,10)
  EXPECT_EQ(result->column(0).GetString(0), "a");
  EXPECT_EQ(result->column(1).GetInt64(0), 10);
  EXPECT_DOUBLE_EQ(result->column(2).GetFloat64(0), 3.0);
}

TEST_F(EngineTest, OrderByDescAndLimit) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt, ParseSelect("SELECT fk, max(v) m FROM fact GROUP BY fk "
                             "ORDER BY m DESC LIMIT 2"));
  ASSERT_OK_AND_ASSIGN(auto result, executor_->Execute(*stmt));
  ASSERT_EQ(result->num_rows(), 2);
  EXPECT_DOUBLE_EQ(result->column(1).GetFloat64(0), 9.0);
  EXPECT_DOUBLE_EQ(result->column(1).GetFloat64(1), 8.0);
}

TEST_F(EngineTest, NativeAvgVarStddev) {
  // v = 1..9: mean 5, population variance 60/9.
  ExpectClose(5.0, RunScalar("SELECT avg(v) FROM fact"));
  ExpectClose(60.0 / 9.0, RunScalar("SELECT var(v) FROM fact"));
  ExpectClose(std::sqrt(60.0 / 9.0), RunScalar("SELECT stddev(v) FROM fact"));
}

TEST_F(EngineTest, HardcodedUdafViaIume) {
  double expected = 0.0;
  for (int i = 1; i <= 9; ++i) expected += i * i;
  ExpectClose(std::sqrt(expected / 9.0), RunScalar("SELECT qm(v) FROM fact"));
}

TEST_F(EngineTest, UdafWithTwoColumns) {
  // theta1(v, v) = 1 exactly.
  ExpectClose(1.0, RunScalar("SELECT theta1(v, v) FROM fact"));
}

TEST_F(EngineTest, UdafArgumentErrorsAreReported) {
  for (const char* sql : {"SELECT qm(tag) FROM dim",     // not numeric
                          "SELECT qm(v, v) FROM fact",   // wrong arity
                          "SELECT qm(nosuch + 1) FROM fact",  // no column
                          "SELECT nosuch(v) FROM fact"}) {
    ASSERT_OK_AND_ASSIGN(auto stmt, ParseSelect(sql));
    EXPECT_FALSE(executor_->Execute(*stmt).ok()) << sql;
  }
}

// A derived UDAF runs over argument expressions: qm(v + 1) reads v.
TEST_F(EngineTest, UdafArgumentsMayBeExpressions) {
  ASSERT_OK_AND_ASSIGN(auto stmt,
                       ParseSelect("SELECT qm(v + 1), qm(v) FROM fact"));
  ASSERT_OK_AND_ASSIGN(auto result, executor_->Execute(*stmt));
  ASSERT_OK_AND_ASSIGN(auto values,
                       ParseSelect("SELECT sum((v + 1)^2), count(v) FROM fact"));
  ASSERT_OK_AND_ASSIGN(auto sums, executor_->Execute(*values));
  ExpectClose(std::sqrt(sums->column(0).GetFloat64(0) /
                        sums->column(1).GetFloat64(0)),
              result->column(0).GetFloat64(0), 1e-12);
  EXPECT_NE(result->column(0).GetFloat64(0), result->column(1).GetFloat64(0));
}

TEST_F(EngineTest, PartitionedExecutionMatchesSerial) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt, ParseSelect("SELECT fk, qm(v) FROM fact GROUP BY fk "
                             "ORDER BY fk"));
  ASSERT_OK_AND_ASSIGN(auto serial, executor_->Execute(*stmt));
  ExecOptions opts;
  opts.partitioned = true;
  opts.num_partitions = 3;
  ASSERT_OK_AND_ASSIGN(auto partitioned, executor_->Execute(*stmt, opts));
  ASSERT_EQ(serial->num_rows(), partitioned->num_rows());
  for (int64_t r = 0; r < serial->num_rows(); ++r) {
    ExpectClose(serial->column(1).GetFloat64(r),
                partitioned->column(1).GetFloat64(r));
  }
}

TEST_F(EngineTest, SelectColumnNotInGroupByFails) {
  ASSERT_OK_AND_ASSIGN(auto stmt,
                       ParseSelect("SELECT v, sum(v) FROM fact GROUP BY fk"));
  EXPECT_FALSE(executor_->Execute(*stmt).ok());
}

TEST_F(EngineTest, UnknownColumnFails) {
  ASSERT_OK_AND_ASSIGN(auto stmt, ParseSelect("SELECT sum(zzz) FROM fact"));
  EXPECT_FALSE(executor_->Execute(*stmt).ok());
}

TEST_F(EngineTest, UnknownTableFails) {
  ASSERT_OK_AND_ASSIGN(auto stmt, ParseSelect("SELECT sum(v) FROM nope"));
  EXPECT_FALSE(executor_->Execute(*stmt).ok());
}

TEST_F(EngineTest, DisconnectedJoinFails) {
  ASSERT_OK_AND_ASSIGN(auto stmt,
                       ParseSelect("SELECT sum(v) FROM fact, dim"));
  EXPECT_FALSE(executor_->Execute(*stmt).ok());
}

TEST_F(EngineTest, AmbiguousColumnFails) {
  Schema other;
  ASSERT_OK(other.AddField({"v", DataType::kFloat64}));
  ASSERT_OK(other.AddField({"fk2", DataType::kInt64}));
  auto table = std::make_unique<Table>(std::move(other));
  table->AppendRow({Value(1.0), Value(int64_t{1})});
  catalog_.PutTable("other", std::move(table));
  ASSERT_OK_AND_ASSIGN(
      auto stmt, ParseSelect("SELECT sum(v) FROM fact, other WHERE fk = fk2"));
  EXPECT_FALSE(executor_->Execute(*stmt).ok());
}

TEST_F(EngineTest, EmptyJoinResultYieldsNoGroups) {
  ASSERT_OK_AND_ASSIGN(
      auto stmt,
      ParseSelect("SELECT fk, sum(v) FROM fact, dim WHERE fk = dk AND "
                  "tag = 'zzz' GROUP BY fk"));
  ASSERT_OK_AND_ASSIGN(auto result, executor_->Execute(*stmt));
  EXPECT_EQ(result->num_rows(), 0);
}

TEST_F(EngineTest, GatherRowsReordersAll) {
  ASSERT_OK_AND_ASSIGN(Table * dim, catalog_.GetTable("dim"));
  auto picked = GatherRows(*dim, {2, 0});
  ASSERT_EQ(picked->num_rows(), 2);
  EXPECT_EQ(picked->column(1).GetString(0), "a");
  EXPECT_EQ(picked->column(0).GetInt64(0), 3);
  EXPECT_EQ(picked->column(0).GetInt64(1), 1);
}

// --- MergeGroupKeys: matching a delta's keys onto cached keys ---------------

// A group-key table over `keys`: one INT64 column, or (as_strings) the
// same keys as decimal STRINGs, or (with_zero) INT64 keys beside a
// constant INT64 column. The last always matches through the hash loop.
std::unique_ptr<Table> KeyTable(const std::vector<int64_t>& keys,
                                bool as_strings = false,
                                bool with_zero = false) {
  Schema schema;
  SUDAF_CHECK(schema
                  .AddField({"k", as_strings ? DataType::kString
                                             : DataType::kInt64})
                  .ok());
  if (with_zero) SUDAF_CHECK(schema.AddField({"z", DataType::kInt64}).ok());
  auto table = std::make_unique<Table>(std::move(schema));
  for (int64_t k : keys) {
    if (as_strings) {
      table->column(0).AppendString(std::to_string(k));
    } else {
      table->column(0).AppendInt64(k);
    }
    if (with_zero) table->column(1).AppendInt64(0);
  }
  table->FinishBulkAppend();
  return table;
}

struct Match {
  std::vector<int32_t> remap;
  std::vector<int64_t> new_rows;
  bool operator==(const Match&) const = default;
};

// Merges the key table of `more` onto that of `keys`: the remap of each
// row of `more`, and the rows of `more` that `keys` lacks, in the order
// the merged table appends them.
Match MatchOn(const std::vector<int64_t>& keys,
              const std::vector<int64_t>& more, bool as_strings,
              bool with_zero) {
  const std::unique_ptr<Table> a = KeyTable(keys, as_strings, with_zero);
  const std::unique_ptr<Table> b = KeyTable(more, as_strings, with_zero);
  const MergedGroupKeys merged = MergeGroupKeys(
      {{a.get(), a->num_rows()}, {b.get(), b->num_rows()}});
  Match m;
  m.remap = merged.remaps[1];
  for (size_t g = 0; g < more.size(); ++g) {
    if (m.remap[g] >= static_cast<int32_t>(keys.size())) {
      m.new_rows.push_back(static_cast<int64_t>(g));
    }
  }
  // The cached rows keep their ids, and the merged table is the cached
  // keys followed by the new rows.
  std::vector<int32_t> identity(keys.size());
  for (size_t r = 0; r < keys.size(); ++r) {
    identity[r] = static_cast<int32_t>(r);
  }
  EXPECT_EQ(merged.remaps[0], identity);
  EXPECT_EQ(merged.num_groups,
            static_cast<int32_t>(keys.size() + m.new_rows.size()));
  EXPECT_EQ(merged.keys->num_rows(), merged.num_groups);
  for (int64_t r = 0; r < merged.keys->num_rows(); ++r) {
    const Table& src = r < a->num_rows() ? *a : *b;
    const int64_t row =
        r < a->num_rows() ? r : m.new_rows[r - a->num_rows()];
    for (int c = 0; c < src.num_columns(); ++c) {
      EXPECT_EQ(merged.keys->column(c).GetValue(r).ToString(),
                src.column(c).GetValue(row).ToString());
    }
  }
  return m;
}

// Expects the single-INT64-column match of (keys, more) to equal the hash
// matches of the same keys as strings and beside a constant column, and
// to send every row of `more` to the row holding its key.
void ExpectMatchesHashPath(const std::vector<int64_t>& keys,
                           const std::vector<int64_t>& more) {
  const Match got = MatchOn(keys, more, false, false);
  EXPECT_EQ(got, MatchOn(keys, more, true, false));
  EXPECT_EQ(got, MatchOn(keys, more, false, true));
  ASSERT_EQ(got.remap.size(), more.size());
  std::vector<int64_t> extended = keys;
  for (int64_t g : got.new_rows) extended.push_back(more[g]);
  for (size_t g = 0; g < more.size(); ++g) {
    EXPECT_EQ(extended[got.remap[g]], more[g]) << g;
  }
}

// Distinct keys drawn from [lo, lo + span), in random order.
std::vector<int64_t> DistinctKeys(Rng* rng, int64_t lo, int64_t span,
                                  int64_t n) {
  std::vector<int64_t> all(span);
  for (int64_t i = 0; i < span; ++i) all[i] = lo + i;
  for (int64_t i = span - 1; i > 0; --i) {
    std::swap(all[i], all[rng->NextBelow(static_cast<uint64_t>(i) + 1)]);
  }
  all.resize(n);
  return all;
}

TEST(MatchGroupKeysTest, DenseInt64KeysMatchLikeTheHash) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(11);
  for (int64_t lo : {int64_t{0}, int64_t{-700}, kMin, kMax - 1599}) {
    SCOPED_TRACE(lo);
    // Cached keys in [lo, lo + 1000); delta keys overlap them and add new
    // ones up to lo + 1600.
    ExpectMatchesHashPath(DistinctKeys(&rng, lo, 1000, 1000),
                          DistinctKeys(&rng, lo + 400, 1200, 900));
  }
  ExpectMatchesHashPath({}, {4, 2, 9});
  ExpectMatchesHashPath({4, 2, 9}, {});
  ExpectMatchesHashPath({}, {});
}

TEST(MatchGroupKeysTest, WideRangeFallsBackToTheHash) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  ExpectMatchesHashPath({0, int64_t{1} << 40, 5, kMin},
                        {5, 7, int64_t{1} << 40, kMax, -(int64_t{1} << 50)});
  Rng rng(12);
  ExpectMatchesHashPath(DistinctKeys(&rng, 0, 5000, 500),
                        DistinctKeys(&rng, 2000, 5000, 500));
}

// --- MergeGroupKeys over k key tables ----------------------------------------

// Rows of (k1 dense INT64, kw wide INT64, ks STRING, k2 small INT64). The
// first `no_late_strings` rows never hold the strings "late0".."late4",
// so a table cut from them lacks strings later tables share.
std::unique_ptr<Table> MergeSource(int64_t n, int64_t no_late_strings,
                                   Rng* rng) {
  Schema schema;
  SUDAF_CHECK(schema.AddField({"k1", DataType::kInt64}).ok());
  SUDAF_CHECK(schema.AddField({"kw", DataType::kInt64}).ok());
  SUDAF_CHECK(schema.AddField({"ks", DataType::kString}).ok());
  SUDAF_CHECK(schema.AddField({"k2", DataType::kInt64}).ok());
  auto table = std::make_unique<Table>(std::move(schema));
  for (int64_t i = 0; i < n; ++i) {
    const int64_t v = static_cast<int64_t>(rng->NextBelow(300));
    table->column(0).AppendInt64(v - 150);
    table->column(1).AppendInt64((v % 97) * 1000000007LL);
    const uint64_t s = rng->NextBelow(i < no_late_strings ? 30 : 35);
    table->column(2).AppendString(s < 30 ? "s" + std::to_string(s)
                                         : "late" + std::to_string(s - 30));
    table->column(3).AppendInt64(static_cast<int64_t>(rng->NextBelow(4)));
  }
  table->FinishBulkAppend();
  return table;
}

// Rows [lo, hi) of `t` as a table of their own: STRING columns get their
// own dictionary, in the part's first-occurrence order.
std::unique_ptr<Table> RowsOf(const Table& t, int64_t lo, int64_t hi) {
  std::vector<int64_t> rows;
  for (int64_t r = lo; r < hi; ++r) rows.push_back(r);
  return GatherRows(t, rows);
}

PreparedInput GroupAll(const Table& t, const std::vector<std::string>& keys) {
  PreparedInput in;
  in.source = &t;
  in.num_input_rows = t.num_rows();
  SUDAF_CHECK(BuildGroups(keys, &in).ok());
  return in;
}

// Splits `source` at `cuts` into k key tables (each grouped on its own),
// merges them, and expects the ids, key rows and STRING dictionaries that
// BuildGroups gives the concatenated rows.
void ExpectMergeEqualsConcatenation(const Table& source,
                                    const std::vector<std::string>& keys,
                                    const std::vector<int64_t>& cuts) {
  const PreparedInput whole = GroupAll(source, keys);
  std::vector<std::unique_ptr<Table>> parts;
  std::vector<PreparedInput> grouped;
  std::vector<GroupKeyTable> tables;
  int64_t lo = 0;
  for (size_t t = 0; t <= cuts.size(); ++t) {
    const int64_t hi = t < cuts.size() ? cuts[t] : source.num_rows();
    parts.push_back(RowsOf(source, lo, hi));
    grouped.push_back(GroupAll(*parts.back(), keys));
    lo = hi;
  }
  for (const PreparedInput& g : grouped) {
    tables.push_back({g.group_keys.get(), g.num_groups});
  }
  const MergedGroupKeys merged = MergeGroupKeys(tables);

  ASSERT_EQ(merged.num_groups, whole.num_groups);
  ASSERT_EQ(merged.remaps.size(), tables.size());
  int64_t offset = 0;
  for (size_t t = 0; t < grouped.size(); ++t) {
    ASSERT_EQ(merged.remaps[t].size(),
              static_cast<size_t>(grouped[t].num_groups))
        << "table " << t;
    for (int64_t i = 0; i < grouped[t].num_input_rows; ++i) {
      ASSERT_EQ(merged.remaps[t][grouped[t].group_ids[i]],
                whole.group_ids[offset + i])
          << "table " << t << " row " << i;
    }
    offset += grouped[t].num_input_rows;
  }
  const Table& a = *merged.keys;
  const Table& b = *whole.group_keys;
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int c = 0; c < a.num_columns(); ++c) {
    ASSERT_EQ(a.column(c).type(), b.column(c).type());
    ASSERT_EQ(a.column(c).num_chunks(), 1);
    if (a.column(c).type() == DataType::kString) {
      EXPECT_EQ(a.column(c).string_codes(), b.column(c).string_codes());
      EXPECT_EQ(a.column(c).dictionary(), b.column(c).dictionary());
    } else {
      EXPECT_EQ(a.column(c).ints(), b.column(c).ints());
    }
  }
}

TEST(MergeGroupKeysTest, KTablesEqualGroupingTheConcatenatedRows) {
  constexpr int64_t kRows = 6000;
  Rng rng(20261020);
  const std::unique_ptr<Table> source = MergeSource(kRows, 1500, &rng);
  const std::vector<std::vector<std::string>> key_sets = {
      {"k1"}, {"kw"}, {"ks"}, {"k1", "ks"}, {"ks", "k2"}, {}};
  const std::vector<std::vector<int64_t>> splits = {
      {1500, 3000},                    // k = 3
      {1500, 1500, 2000, 4100, 5999},  // k = 6, one empty, one single row
      {10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 1500},  // k = 12
  };
  for (const std::vector<std::string>& keys : key_sets) {
    for (const std::vector<int64_t>& cuts : splits) {
      std::string what = "keys:";
      for (const std::string& k : keys) what += " " + k;
      SCOPED_TRACE(what + ", k = " + std::to_string(cuts.size() + 1));
      ExpectMergeEqualsConcatenation(*source, keys, cuts);
    }
  }
}

// The first table lacks every "late" string, and two later tables hold
// them in different dictionary orders: each must land on one merged group.
TEST(MergeGroupKeysTest, StringsAbsentFromTheFirstTableShareOneId) {
  auto strings = [](const std::vector<std::string>& keys) {
    Schema schema;
    SUDAF_CHECK(schema.AddField({"ks", DataType::kString}).ok());
    auto t = std::make_unique<Table>(std::move(schema));
    for (const std::string& k : keys) t->column(0).AppendString(k);
    t->FinishBulkAppend();
    return t;
  };
  const auto a = strings({"x", "y"});
  const auto b = strings({"late1", "y", "late0"});
  const auto c = strings({"late0", "z", "late1", "x"});
  const MergedGroupKeys m =
      MergeGroupKeys({{a.get(), 2}, {b.get(), 3}, {c.get(), 4}});
  EXPECT_EQ(m.num_groups, 5);
  EXPECT_EQ(m.remaps[0], (std::vector<int32_t>{0, 1}));
  EXPECT_EQ(m.remaps[1], (std::vector<int32_t>{2, 1, 3}));
  EXPECT_EQ(m.remaps[2], (std::vector<int32_t>{3, 4, 2, 0}));
  EXPECT_EQ(m.keys->column(0).dictionary(),
            (std::vector<std::string>{"x", "y", "late1", "late0", "z"}));
}

TEST(MergeGroupKeysTest, UngroupedTablesMergeIntoOneGroup) {
  const Table none{Schema()};
  MergedGroupKeys m = MergeGroupKeys({{&none, 1}, {&none, 0}, {&none, 1}});
  EXPECT_EQ(m.num_groups, 1);
  EXPECT_EQ(m.keys->num_columns(), 0);
  EXPECT_EQ(m.remaps[0], std::vector<int32_t>{0});
  EXPECT_TRUE(m.remaps[1].empty());
  EXPECT_EQ(m.remaps[2], std::vector<int32_t>{0});
  m = MergeGroupKeys({{&none, 0}, {&none, 0}, {&none, 0}});
  EXPECT_EQ(m.num_groups, 0);
}

}  // namespace
}  // namespace sudaf
