// Tests for storage/: Schema, Column (incl. dictionary encoding), Table,
// Catalog.

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

}  // namespace
}  // namespace sudaf
