// Assorted cross-cutting regression tests: symbolic space at l=3, chunked
// sharing under partitioned execution, HAVING interaction with the cache,
// multi-key ordering, and CSV-loaded tables flowing through SUDAF.

#include <cstdio>
#include <fstream>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/csv.h"
#include "sudaf/chunked.h"
#include "sudaf/symbolic.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

using testing_util::ExpectClose;

TEST(SymbolicSpaceL3Test, SizeMatchesBoundAndClassesNest) {
  SymbolicSpace l2 = SymbolicSpace::Build(2);
  SymbolicSpace l3 = SymbolicSpace::Build(3);
  EXPECT_EQ(l3.states().size(), 170u);  // 2(4^4-1)/3
  // Growing l only refines: l3 has at least as many classes as l2.
  EXPECT_GE(l3.num_classes(), l2.num_classes());
}

TEST(ChunkedPartitionedTest, AgreesUnderSparkExecution) {
  Schema schema;
  ASSERT_OK(schema.AddField({"ts", DataType::kInt64}));
  ASSERT_OK(schema.AddField({"v", DataType::kFloat64}));
  auto table = std::make_unique<Table>(std::move(schema));
  Rng rng(99);
  for (int i = 0; i < 4000; ++i) {
    table->column(0).AppendInt64(rng.NextBelow(400));
    table->column(1).AppendFloat64(rng.NextDoubleIn(1.0, 5.0));
  }
  table->FinishBulkAppend();
  Catalog catalog;
  catalog.PutTable("t", std::move(table));

  ExecOptions spark;
  spark.partitioned = true;
  spark.num_partitions = 4;
  SudafSession session(&catalog, SessionOptions{}.set_exec(spark));
  ChunkedSharingSession chunked(&session, "t", "ts", 100);

  const std::string sql =
      "SELECT stddev(v), qm(v) FROM t WHERE ts >= 100 AND ts < 300";
  auto direct = session.Execute(sql, ExecMode::kSudafNoShare);
  auto via_chunks = chunked.Execute(sql);
  ASSERT_TRUE(direct.ok() && via_chunks.ok());
  for (int c = 0; c < 2; ++c) {
    ExpectClose((*direct)->column(c).GetFloat64(0),
                (*via_chunks)->column(c).GetFloat64(0), 1e-9);
  }
}

TEST(HavingCacheTest, HavingDoesNotFragmentTheCache) {
  // HAVING runs after aggregation, so two queries differing only in HAVING
  // have the same data signature and share all states.
  std::vector<int64_t> g = {0, 0, 1, 1, 1, 2};
  std::vector<double> x = {1, 2, 3, 4, 5, 6};
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable(g, x, x));
  SudafSession session(&catalog);

  auto first = session.Execute(
      "SELECT g, avg(x) m FROM t GROUP BY g HAVING m > 1",
      ExecMode::kSudafShare);
  ASSERT_TRUE(first.ok());
  auto second = session.Execute(
      "SELECT g, avg(x) m FROM t GROUP BY g HAVING m > 4",
      ExecMode::kSudafShare);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.states_from_cache, 2);
  EXPECT_FALSE(second->stats.scanned_base_data);
  EXPECT_EQ((*second)->num_rows(), 1);
}

TEST(MultiKeyOrderTest, OrdersByTwoKeysWithDirections) {
  std::vector<int64_t> g = {1, 1, 2, 2};
  std::vector<double> x = {5, 5, 7, 7};
  std::vector<double> y = {1, 2, 1, 2};
  Catalog catalog;
  Schema schema;
  ASSERT_OK(schema.AddField({"a", DataType::kInt64}));
  ASSERT_OK(schema.AddField({"b", DataType::kInt64}));
  ASSERT_OK(schema.AddField({"v", DataType::kFloat64}));
  auto table = std::make_unique<Table>(std::move(schema));
  for (int i = 0; i < 4; ++i) {
    table->AppendRow({Value(g[i]), Value(static_cast<int64_t>(y[i])),
                      Value(x[i])});
  }
  catalog.PutTable("t", std::move(table));
  SudafSession session(&catalog);
  auto result = session.Execute(
      "SELECT a, b, sum(v) FROM t GROUP BY a, b ORDER BY a DESC, b ASC",
      ExecMode::kSudafNoShare);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ((*result)->num_rows(), 4);
  EXPECT_EQ((*result)->column(0).GetInt64(0), 2);
  EXPECT_EQ((*result)->column(1).GetInt64(0), 1);
  EXPECT_EQ((*result)->column(0).GetInt64(3), 1);
  EXPECT_EQ((*result)->column(1).GetInt64(3), 2);
}

TEST(CsvToSudafTest, ImportedTableRunsThroughTheWholePipeline) {
  std::string path = testing::TempDir() + "/pipeline.csv";
  {
    std::ofstream out(path);
    out << "city,pop\n";
    out << "a,10\nb,20\na,30\nb,40\na,50\n";
  }
  ASSERT_OK_AND_ASSIGN(auto table, ReadCsvInferSchema(path));
  Catalog catalog;
  catalog.PutTable("cities", std::move(table));
  SudafSession session(&catalog);
  auto result = session.Execute(
      "SELECT city, qm(pop) FROM cities GROUP BY city ORDER BY city",
      ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ((*result)->num_rows(), 2);
  ExpectClose(std::sqrt((100.0 + 900.0 + 2500.0) / 3.0),
              (*result)->column(1).GetFloat64(0));
}

TEST(LazyTerminatingTest, NativeSolverRunsOnlyForLimitedGroups) {
  // 50 groups, LIMIT 3 ordered by key: the MomentSolver should not run 50
  // times. We detect this through a counting native UDAF.
  std::vector<int64_t> g;
  std::vector<double> x;
  Rng rng(123);
  for (int i = 0; i < 500; ++i) {
    g.push_back(static_cast<int64_t>(rng.NextBelow(50)));
    x.push_back(rng.NextDoubleIn(1.0, 2.0));
  }
  Catalog catalog;
  catalog.PutTable("t", testing_util::MakeXyTable(g, x, x));
  SudafSession session(&catalog);

  auto calls = std::make_shared<int>(0);
  NativeUdaf udaf;
  udaf.name = "counting_mid";
  udaf.state_templates = {"min(x)", "max(x)"};
  udaf.terminate =
      [calls](const std::vector<double>& s) -> Result<double> {
    ++*calls;
    return (s[0] + s[1]) / 2.0;
  };
  ASSERT_OK(session.library().DefineNative(std::move(udaf)));

  auto result = session.Execute(
      "SELECT g, counting_mid(x) FROM t GROUP BY g ORDER BY g LIMIT 3",
      ExecMode::kSudafNoShare);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ((*result)->num_rows(), 3);
  EXPECT_EQ(*calls, 3);  // not 50
}

}  // namespace
}  // namespace sudaf
