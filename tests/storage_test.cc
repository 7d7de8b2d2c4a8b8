// Tests for storage/: Schema, Column (incl. dictionary encoding and the
// chunk layout appends build), Table, Catalog.

#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

TEST(SchemaTest, AddAndFind) {
  Schema schema;
  ASSERT_OK(schema.AddField({"a", DataType::kInt64}));
  ASSERT_OK(schema.AddField({"b", DataType::kString}));
  EXPECT_EQ(schema.num_fields(), 2);
  EXPECT_EQ(schema.FindField("a"), 0);
  EXPECT_EQ(schema.FindField("b"), 1);
  EXPECT_EQ(schema.FindField("c"), -1);
}

TEST(SchemaTest, RejectsDuplicates) {
  Schema schema;
  ASSERT_OK(schema.AddField({"a", DataType::kInt64}));
  Status st = schema.AddField({"a", DataType::kFloat64});
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, ToStringListsFields) {
  Schema schema;
  ASSERT_OK(schema.AddField({"a", DataType::kInt64}));
  EXPECT_EQ(schema.ToString(), "(a INT64)");
}

TEST(ColumnTest, Int64RoundTrip) {
  Column col(DataType::kInt64);
  col.AppendInt64(5);
  col.AppendInt64(-7);
  EXPECT_EQ(col.size(), 2);
  EXPECT_EQ(col.GetInt64(0), 5);
  EXPECT_EQ(col.GetInt64(1), -7);
  EXPECT_DOUBLE_EQ(col.GetNumeric(1), -7.0);
}

TEST(ColumnTest, StringDictionaryEncodesDuplicates) {
  Column col(DataType::kString);
  col.AppendString("TN");
  col.AppendString("CA");
  col.AppendString("TN");
  EXPECT_EQ(col.size(), 3);
  EXPECT_EQ(col.GetString(2), "TN");
  EXPECT_EQ(col.GetStringCode(0), col.GetStringCode(2));
  EXPECT_NE(col.GetStringCode(0), col.GetStringCode(1));
  EXPECT_EQ(col.dictionary().size(), 2u);
}

TEST(ColumnTest, LookupDictionary) {
  Column col(DataType::kString);
  col.AppendString("a");
  col.AppendString("b");
  EXPECT_EQ(col.LookupDictionary("b"), col.GetStringCode(1));
  EXPECT_EQ(col.LookupDictionary("zzz"), -1);
}

TEST(ColumnTest, AppendRowsCopiesTypedAndKeepsOnlyUsedStrings) {
  Column words(DataType::kString);
  for (const char* w : {"ant", "bee", "cat", "dog", "elk"}) {
    words.AppendString(w);
  }
  const std::vector<int64_t> rows = {3, 0, 3};
  Column picked(DataType::kString);
  picked.AppendRows(words, rows.data(), 3);
  ASSERT_EQ(picked.size(), 3);
  EXPECT_EQ(picked.GetString(0), "dog");
  EXPECT_EQ(picked.GetString(1), "ant");
  EXPECT_EQ(picked.GetString(2), "dog");
  EXPECT_EQ(picked.dictionary().size(), 2u);

  Column nums(DataType::kFloat64);
  for (double v : {0.5, -0.0, 2.5, 7.0}) nums.AppendFloat64(v);
  Column out(DataType::kFloat64);
  out.AppendRows(nums, rows.data(), 2);
  ASSERT_EQ(out.size(), 2);
  EXPECT_EQ(out.GetFloat64(0), 7.0);
  EXPECT_EQ(out.GetFloat64(1), 0.5);
}

TEST(ColumnTest, AppendValueChecksTypes) {
  Column col(DataType::kFloat64);
  col.AppendValue(Value(1.5));
  col.AppendValue(Value(int64_t{2}));  // numeric coercion allowed
  EXPECT_DOUBLE_EQ(col.GetFloat64(1), 2.0);
}

TEST(TableTest, AppendRowAndRead) {
  Schema schema;
  ASSERT_OK(schema.AddField({"id", DataType::kInt64}));
  ASSERT_OK(schema.AddField({"name", DataType::kString}));
  Table table(std::move(schema));
  table.AppendRow({Value(int64_t{1}), Value(std::string("one"))});
  table.AppendRow({Value(int64_t{2}), Value(std::string("two"))});
  EXPECT_EQ(table.num_rows(), 2);
  ASSERT_OK_AND_ASSIGN(const Column* name_col, table.GetColumn("name"));
  EXPECT_EQ(name_col->GetString(1), "two");
}

TEST(TableTest, GetColumnMissing) {
  Table table{Schema()};
  EXPECT_FALSE(table.GetColumn("nope").ok());
}

TEST(TableTest, FinishBulkAppendSetsRowCount) {
  Schema schema;
  ASSERT_OK(schema.AddField({"x", DataType::kFloat64}));
  Table table(std::move(schema));
  table.column(0).AppendFloat64(1.0);
  table.column(0).AppendFloat64(2.0);
  table.FinishBulkAppend();
  EXPECT_EQ(table.num_rows(), 2);
}

TEST(TableTest, ToStringTruncates) {
  auto table = testing_util::MakeXyTable({1, 2, 3}, {1, 2, 3}, {1, 2, 3});
  std::string s = table->ToString(2);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

TEST(CatalogTest, AddGetHas) {
  Catalog catalog;
  ASSERT_OK(catalog.AddTable("t",
                             testing_util::MakeXyTable({1}, {1.0}, {2.0})));
  EXPECT_TRUE(catalog.HasTable("t"));
  ASSERT_OK_AND_ASSIGN(Table * t, catalog.GetTable("t"));
  EXPECT_EQ(t->num_rows(), 1);
  EXPECT_FALSE(catalog.GetTable("u").ok());
}

TEST(CatalogTest, AddRejectsDuplicate) {
  Catalog catalog;
  ASSERT_OK(catalog.AddTable("t",
                             testing_util::MakeXyTable({1}, {1.0}, {2.0})));
  Status st =
      catalog.AddTable("t", testing_util::MakeXyTable({1}, {1.0}, {2.0}));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, PutReplaces) {
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable({1}, {1.0}, {2.0}));
  catalog.PutTable("t", testing_util::MakeXyTable({1, 2}, {1, 2}, {3, 4}));
  ASSERT_OK_AND_ASSIGN(Table * t, catalog.GetTable("t"));
  EXPECT_EQ(t->num_rows(), 2);
}

TEST(CatalogTest, ExternalTablesShadowOwned) {
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable({1}, {1.0}, {2.0}));
  auto external = testing_util::MakeXyTable({1, 2, 3}, {1, 2, 3}, {4, 5, 6});
  catalog.PutExternalTable("t", external.get());
  ASSERT_OK_AND_ASSIGN(Table * t, catalog.GetTable("t"));
  EXPECT_EQ(t->num_rows(), 3);
  // TableNames does not double-count.
  EXPECT_EQ(catalog.TableNames().size(), 1u);
}

// ---------------------------------------------------------------------------
// Chunked storage: Catalog::AppendRows adds a delta as a new chunk
// ---------------------------------------------------------------------------

// t(i INT64, f FLOAT64, s STRING) with rows [first, first + n): i = row,
// f = row + 0.25, s = one of five words picked by the row.
std::unique_ptr<Table> MakeMixedTable(int64_t first, int64_t n) {
  static const char* const kWords[] = {"ant", "bee", "cat", "dog", "elk"};
  Schema schema;
  SUDAF_CHECK(schema.AddField({"i", DataType::kInt64}).ok());
  SUDAF_CHECK(schema.AddField({"f", DataType::kFloat64}).ok());
  SUDAF_CHECK(schema.AddField({"s", DataType::kString}).ok());
  auto t = std::make_unique<Table>(std::move(schema));
  for (int64_t r = first; r < first + n; ++r) {
    t->AppendRow({Value(r), Value(static_cast<double>(r) + 0.25),
                  Value(std::string(kWords[(r * 7) % 5]))});
  }
  return t;
}

// Same type and same bits.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kInt64:
      return a.int64() == b.int64();
    case DataType::kFloat64: {
      const double x = a.float64();
      const double y = b.float64();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case DataType::kString:
      return a.string() == b.string();
  }
  return false;
}

// Checks every row of `t` against MakeMixedTable's formula.
void ExpectMixedRows(const Table& t) {
  static const char* const kWords[] = {"ant", "bee", "cat", "dog", "elk"};
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    ASSERT_EQ(t.column(0).GetInt64(r), r);
    ASSERT_EQ(t.column(0).GetNumeric(r), static_cast<double>(r));
    ASSERT_EQ(t.column(1).GetFloat64(r), static_cast<double>(r) + 0.25);
    ASSERT_EQ(t.column(1).GetNumeric(r), static_cast<double>(r) + 0.25);
    ASSERT_EQ(t.column(2).GetString(r), kWords[(r * 7) % 5]);
    ASSERT_EQ(t.column(2).GetValue(r).string(), kWords[(r * 7) % 5]);
  }
}

// Rows per chunk of `col`.
std::vector<int64_t> ChunkRows(const Column& col) {
  std::vector<int64_t> rows;
  for (int c = 0; c < col.num_chunks(); ++c) {
    rows.push_back(col.chunk_end(c) - col.chunk_begin(c));
  }
  return rows;
}

// A catalog table "t" of 8 base rows grown by deltas of 4, 2 and 1 rows:
// no delta reaches its predecessor's size, so nothing coalesces and the
// table holds chunks [0, 8) [8, 12) [12, 14) [14, 15).
Catalog MakeGrownCatalog() {
  Catalog cat;
  cat.PutTable("t", MakeMixedTable(0, 8));
  SUDAF_CHECK(cat.AppendRows("t", *MakeMixedTable(8, 4)).ok());
  SUDAF_CHECK(cat.AppendRows("t", *MakeMixedTable(12, 2)).ok());
  SUDAF_CHECK(cat.AppendRows("t", *MakeMixedTable(14, 1)).ok());
  return cat;
}

TEST(ChunkedColumnTest, AccessorsAtAndAcrossChunkBoundaries) {
  Catalog cat = MakeGrownCatalog();
  const Table& t = **cat.GetTable("t");
  ASSERT_EQ(t.num_rows(), 15);
  EXPECT_EQ(t.ChunkEnds(), (std::vector<int64_t>{8, 12, 14, 15}));
  for (int c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(ChunkRows(t.column(c)), (std::vector<int64_t>{8, 4, 2, 1}));
  }
  ExpectMixedRows(t);

  const Column& ints = t.column(0);
  for (int64_t r : {0, 7, 8, 11, 12, 13, 14}) {
    const int c = ints.ChunkOf(r);
    EXPECT_LE(ints.chunk_begin(c), r);
    EXPECT_LT(r, ints.chunk_end(c));
    EXPECT_EQ(ints.ChunkData<int64_t>(c)[r - ints.chunk_begin(c)], r);
  }
  EXPECT_EQ(*ints.RangeData<int64_t>(8, 12), 8);

  // Spans split [5, 14) at the chunk ends 8 and 12, in row order.
  std::vector<std::pair<int64_t, int64_t>> spans;
  std::vector<int64_t> seen;
  ints.ForEachSpan<int64_t>(5, 14, [&](const int64_t* v, int64_t a,
                                       int64_t b) {
    spans.push_back({a, b});
    for (int64_t i = 0; i < b - a; ++i) seen.push_back(v[i]);
  });
  EXPECT_EQ(spans, (std::vector<std::pair<int64_t, int64_t>>{
                       {5, 8}, {8, 12}, {12, 14}}));
  EXPECT_EQ(seen, (std::vector<int64_t>{5, 6, 7, 8, 9, 10, 11, 12, 13}));

  // Row ids in any order, gathered, appended and bound.
  const std::vector<int64_t> rows = {14, 0, 9, 8, 7, 13, 12, 3, 11};
  const int64_t n = static_cast<int64_t>(rows.size());
  for (int c = 0; c < t.num_columns(); ++c) {
    Column gathered(t.column(c).type());
    gathered.PrepareGatherFrom(t.column(c), n);
    gathered.GatherRange(t.column(c), rows.data(), 0, n);
    Column appended(t.column(c).type());
    appended.AppendRows(t.column(c), rows.data(), n);
    ASSERT_EQ(gathered.num_chunks(), 1);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_TRUE(SameValue(gathered.GetValue(i), t.column(c).GetValue(rows[i])));
      EXPECT_TRUE(SameValue(appended.GetValue(i), t.column(c).GetValue(rows[i])));
    }
  }
}

TEST(ChunkedColumnTest, AppendedChunkSizesFollowTheBinaryCounterRule) {
  // A 1000-row base outweighs every delta run here, so it never merges;
  // after k one-row appends the delta chunks are the binary digits of k,
  // largest first: 11 = 8 + 2 + 1.
  Catalog cat;
  cat.PutTable("t", MakeMixedTable(0, 1000));
  const int64_t row_bytes = 8 + 8 + 4;  // INT64, FLOAT64, STRING code
  int64_t copied = 0;
  for (int k = 1; k <= 33; ++k) {
    SCOPED_TRACE("appends=" + std::to_string(k));
    ASSERT_OK(cat.AppendRows("t", *MakeMixedTable(999 + k, 1)));
    const Table& t = **cat.GetTable("t");
    std::vector<int64_t> want = {1000};
    for (int bit = 5; bit >= 0; --bit) {
      if ((k >> bit) & 1) want.push_back(int64_t{1} << bit);
    }
    for (int c = 0; c < t.num_columns(); ++c) {
      ASSERT_EQ(ChunkRows(t.column(c)), want);
    }
    // This append copied its row, then carried like a binary increment:
    // each of the m = ctz(k) merges copied both chunks, 2 + 4 + ... + 2^m
    // rows in all.
    const int m = std::countr_zero(static_cast<unsigned>(k));
    copied += row_bytes * (1 + (int64_t{2} << m) - 2);
    EXPECT_EQ(cat.append_bytes_copied(), copied);
    // The stated bound: at most (1 + ceil(log2 k)) copies of each appended
    // row, and never a copy of the base chunk.
    const int64_t log2k = std::bit_width(static_cast<unsigned>(k - 1));
    EXPECT_LE(copied, (1 + log2k) * k * row_bytes);
    ExpectMixedRows(t);
  }
}

TEST(ChunkedColumnTest, EmptyTableTakesTheFirstDeltaAsItsOnlyChunk) {
  Catalog cat;
  cat.PutTable("t", MakeMixedTable(0, 0));
  ASSERT_OK(cat.AppendRows("t", *MakeMixedTable(0, 3)));
  ASSERT_OK(cat.AppendRows("t", *MakeMixedTable(3, 0)));  // no-op
  const Table& t = **cat.GetTable("t");
  EXPECT_EQ(t.ChunkEnds(), (std::vector<int64_t>{3}));
  EXPECT_EQ(cat.append_bytes_copied(), 3 * (8 + 8 + 4));
  // Equal-sized deltas merge pairwise: 3 + 3 -> 6.
  ASSERT_OK(cat.AppendRows("t", *MakeMixedTable(3, 3)));
  EXPECT_EQ(t.ChunkEnds(), (std::vector<int64_t>{6}));
  ExpectMixedRows(t);
}

TEST(ChunkedColumnTest, StringCodesAndDictionaryAreSharedAcrossChunks) {
  Schema schema;
  ASSERT_OK(schema.AddField({"s", DataType::kString}));
  auto words = [&](std::vector<std::string> w) {
    auto t = std::make_unique<Table>(schema);
    for (std::string& v : w) t->AppendRow({Value(std::move(v))});
    return t;
  };
  Catalog cat;
  cat.PutTable("t", words({"oslo", "rome", "oslo", "lima"}));
  ASSERT_OK(cat.AppendRows("t", *words({"rome", "bern"})));
  const Column& col = (**cat.GetTable("t")).column(0);
  ASSERT_EQ(col.num_chunks(), 2);
  // "rome" in chunk 1 carries the code it has in chunk 0; "bern" is new
  // to the one column-wide dictionary.
  EXPECT_EQ(col.GetStringCode(4), col.GetStringCode(1));
  EXPECT_EQ(col.dictionary(),
            (std::vector<std::string>{"oslo", "rome", "lima", "bern"}));
  EXPECT_EQ(col.LookupDictionary("bern"), col.GetStringCode(5));
  EXPECT_EQ(col.ChunkData<int32_t>(1)[0], col.ChunkData<int32_t>(0)[1]);
  EXPECT_EQ(col.GetString(5), "bern");
}

TEST(ChunkedColumnTest, ApproxBytesSumsTheChunks) {
  Catalog cat = MakeGrownCatalog();
  const Table& grown = **cat.GetTable("t");
  auto flat = MakeMixedTable(0, 15);
  ASSERT_EQ(flat->column(0).num_chunks(), 1);
  EXPECT_EQ(grown.ApproxBytes(), flat->ApproxBytes());
  for (int c = 0; c < grown.num_columns(); ++c) {
    EXPECT_EQ(grown.column(c).ApproxBytes(), flat->column(c).ApproxBytes());
  }
}

TEST(ChunkedColumnDeathTest, WholeBufferReadOfAMultiChunkColumnDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Catalog cat = MakeGrownCatalog();
  const Table& t = **cat.GetTable("t");
  EXPECT_DEATH((void)t.column(0).ints(), "multi-chunk");
  EXPECT_DEATH((void)t.column(1).doubles(), "multi-chunk");
  EXPECT_DEATH((void)t.column(2).string_codes(), "multi-chunk");
  EXPECT_DEATH((void)t.column(0).RangeData<int64_t>(6, 10), "straddles");
}

TEST(ChunkedColumnTest, OwnerAppendsExtendTheLastChunkOfAnExternalTable) {
  auto owned = MakeMixedTable(0, 8);
  Catalog cat;
  cat.PutExternalTable("t", owned.get());
  ASSERT_OK(cat.AppendRows("t", *MakeMixedTable(8, 4)));
  // The owner appends in place and declares it.
  auto more = MakeMixedTable(12, 3);
  for (int64_t r = 0; r < more->num_rows(); ++r) {
    owned->column(0).AppendInt64(more->column(0).GetInt64(r));
    owned->column(1).AppendFloat64(more->column(1).GetFloat64(r));
    owned->column(2).AppendString(more->column(2).GetString(r));
  }
  owned->FinishBulkAppend();
  ASSERT_OK(cat.NotifyAppend("t"));
  EXPECT_EQ(cat.TableSegments("t"), (std::vector<int64_t>{8, 12, 15}));
  EXPECT_EQ(owned->ChunkEnds(), (std::vector<int64_t>{8, 15}));
  ExpectMixedRows(*owned);
  // The next catalog append lands as a chunk of its own: 6 rows stay
  // apart from the 7 before them, then 7 more carry into the base.
  ASSERT_OK(cat.AppendRows("t", *MakeMixedTable(15, 6)));
  EXPECT_EQ(owned->ChunkEnds(), (std::vector<int64_t>{8, 15, 21}));
  ExpectMixedRows(*owned);
  ASSERT_OK(cat.AppendRows("t", *MakeMixedTable(21, 7)));
  EXPECT_EQ(owned->ChunkEnds(), (std::vector<int64_t>{28}));
  ExpectMixedRows(*owned);
}

// Appending a table to itself must read the source rows as they were
// before the append, for every column type and either append path.
TEST(ChunkedColumnTest, SelfAppendEqualsAppendingACopy) {
  for (int64_t base_rows : {int64_t{6}, int64_t{0}}) {
    SCOPED_TRACE("base rows " + std::to_string(base_rows));
    Catalog self;
    Catalog copy;
    self.PutTable("t", MakeMixedTable(0, base_rows));
    copy.PutTable("t", MakeMixedTable(0, base_rows));
    ASSERT_OK(self.AppendRows("t", *MakeMixedTable(base_rows, 3)));
    ASSERT_OK(copy.AppendRows("t", *MakeMixedTable(base_rows, 3)));
    for (int round = 0; round < 3; ++round) {
      Table* t = *self.GetTable("t");
      ASSERT_OK(self.AppendRows("t", *t));
      Table* c = *copy.GetTable("t");
      auto snapshot = std::make_unique<Table>(c->schema());
      snapshot->AppendTable(*c);
      ASSERT_OK(copy.AppendRows("t", *snapshot));
    }
    const Table& a = **self.GetTable("t");
    const Table& b = **copy.GetTable("t");
    ASSERT_EQ(a.num_rows(), (base_rows + 3) * 8);
    ASSERT_EQ(a.num_rows(), b.num_rows());
    EXPECT_EQ(a.ChunkEnds(), b.ChunkEnds());
    EXPECT_EQ(self.append_bytes_copied(), copy.append_bytes_copied());
    for (int c = 0; c < a.num_columns(); ++c) {
      EXPECT_EQ(a.column(c).dictionary(), b.column(c).dictionary());
      for (int64_t r = 0; r < a.num_rows(); ++r) {
        ASSERT_TRUE(SameValue(a.column(c).GetValue(r), b.column(c).GetValue(r)));
      }
    }

    // Table::AppendTable of itself extends the last chunk the same way.
    auto flat = MakeMixedTable(0, base_rows + 3);
    flat->AppendTable(*flat);
    ASSERT_EQ(flat->num_rows(), 2 * (base_rows + 3));
    for (int c = 0; c < flat->num_columns(); ++c) {
      for (int64_t r = 0; r < base_rows + 3; ++r) {
        ASSERT_TRUE(SameValue(flat->column(c).GetValue(r),
                              flat->column(c).GetValue(r + base_rows + 3)));
      }
    }
  }
}

}  // namespace
}  // namespace sudaf
