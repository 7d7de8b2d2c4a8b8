// Tests for sudaf/chunked: data-dimension sharing over predefined chunks
// (the extension sketched in Sections 2 and 8 of the paper).

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "sudaf/chunked.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

using testing_util::ExpectClose;

// events(ts INT64 in [0, 1000), grp INT64 in [0, 3), v FLOAT64)
std::unique_ptr<Table> MakeEvents(int rows, uint64_t seed) {
  Schema schema;
  SUDAF_CHECK(schema.AddField({"ts", DataType::kInt64}).ok());
  SUDAF_CHECK(schema.AddField({"grp", DataType::kInt64}).ok());
  SUDAF_CHECK(schema.AddField({"v", DataType::kFloat64}).ok());
  auto events = std::make_unique<Table>(std::move(schema));
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    events->column(0).AppendInt64(rng.NextBelow(1000));
    events->column(1).AppendInt64(rng.NextBelow(3));
    events->column(2).AppendFloat64(rng.NextDoubleIn(0.5, 9.5));
  }
  events->FinishBulkAppend();
  return events;
}

// Every numeric cell's bit pattern, row-major.
std::vector<uint64_t> Bits(const Table& t) {
  std::vector<uint64_t> bits;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      const double v = t.column(c).GetNumeric(r);
      uint64_t b;
      std::memcpy(&b, &v, sizeof(b));
      bits.push_back(b);
    }
  }
  return bits;
}

class ChunkedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.PutTable("events", MakeEvents(5000, 808));
    session_ = std::make_unique<SudafSession>(&catalog_);
    chunked_ = std::make_unique<ChunkedSharingSession>(
        session_.get(), "events", "ts", /*chunk_width=*/100);
  }

  void ExpectMatchesDirect(const std::string& sql, double tol = 1e-9) {
    auto direct = session_->Execute(sql, ExecMode::kSudafNoShare);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    auto via_chunks = chunked_->Execute(sql);
    ASSERT_TRUE(via_chunks.ok()) << via_chunks.status().ToString();
    ASSERT_EQ((*direct)->num_rows(), (*via_chunks)->num_rows());
    for (int c = 0; c < (*direct)->num_columns(); ++c) {
      for (int64_t r = 0; r < (*direct)->num_rows(); ++r) {
        ExpectClose((*direct)->column(c).GetNumeric(r),
                    (*via_chunks)->column(c).GetNumeric(r), tol);
      }
    }
  }

  Catalog catalog_;
  std::unique_ptr<SudafSession> session_;
  std::unique_ptr<ChunkedSharingSession> chunked_;
};

TEST_F(ChunkedTest, RangeQueryMatchesDirectExecution) {
  ExpectMatchesDirect(
      "SELECT qm(v), stddev(v) FROM events WHERE ts >= 200 AND ts < 600");
  EXPECT_EQ(chunked_->last_stats().chunks_needed, 4);
  EXPECT_EQ(chunked_->last_stats().chunks_computed, 4);
}

TEST_F(ChunkedTest, OverlappingRangeReusesCommonChunks) {
  ExpectMatchesDirect("SELECT qm(v) FROM events WHERE ts >= 0 AND ts < 400");
  EXPECT_EQ(chunked_->last_stats().chunks_computed, 4);
  // Overlap [200, 600): chunks 2,3 cached, 4,5 fresh — and a *different*
  // UDAF still shares (stddev needs Σv², Σv, count; qm cached Σv², count).
  ExpectMatchesDirect(
      "SELECT stddev(v) FROM events WHERE ts >= 200 AND ts < 600");
  EXPECT_EQ(chunked_->last_stats().chunks_from_cache, 0);
  EXPECT_EQ(chunked_->last_stats().chunks_computed, 4);
  // Third query entirely inside cached territory: zero computation.
  ExpectMatchesDirect(
      "SELECT var(v), avg(v) FROM events WHERE ts >= 200 AND ts < 500");
  EXPECT_EQ(chunked_->last_stats().chunks_from_cache, 3);
  EXPECT_EQ(chunked_->last_stats().chunks_computed, 0);
}

TEST_F(ChunkedTest, FullDomainQueryWithoutPredicate) {
  ExpectMatchesDirect("SELECT avg(v), qm(v) FROM events");
  EXPECT_EQ(chunked_->last_stats().chunks_needed, 10);
}

TEST_F(ChunkedTest, GroupByMergesPerChunkGroups) {
  ExpectMatchesDirect(
      "SELECT grp, qm(v), count(v) FROM events WHERE ts >= 100 AND ts < 900 "
      "GROUP BY grp ORDER BY grp");
}

TEST_F(ChunkedTest, ResidualPredicatesPartitionTheCache) {
  ExpectMatchesDirect(
      "SELECT sum(v) FROM events WHERE ts >= 0 AND ts < 300 AND grp = 1");
  int64_t after_first = session_->cache().num_entries();
  // Same range, different residual predicate: must not share.
  ExpectMatchesDirect(
      "SELECT sum(v) FROM events WHERE ts >= 0 AND ts < 300 AND grp = 2");
  EXPECT_EQ(chunked_->last_stats().chunks_from_cache, 0);
  EXPECT_GT(session_->cache().num_entries(), after_first);
}

TEST_F(ChunkedTest, CrossShapeSharingWithinChunks) {
  ExpectMatchesDirect(
      "SELECT sum(v^2) FROM events WHERE ts >= 0 AND ts < 200");
  // Σ4v² served from the per-chunk Σv² representatives.
  ExpectMatchesDirect(
      "SELECT sum(4*v^2) FROM events WHERE ts >= 0 AND ts < 200");
  EXPECT_EQ(chunked_->last_stats().chunks_computed, 0);
}

TEST_F(ChunkedTest, LogDomainStatesMergeAcrossChunks) {
  ExpectMatchesDirect(
      "SELECT gm(v) FROM events WHERE ts >= 0 AND ts < 500", 1e-8);
  // prod over the same range comes from the merged log channels.
  ExpectMatchesDirect(
      "SELECT sum(ln(v)) FROM events WHERE ts >= 0 AND ts < 500", 1e-8);
  EXPECT_EQ(chunked_->last_stats().chunks_computed, 0);
}

TEST_F(ChunkedTest, MisalignedRangeIsRejected) {
  auto result = chunked_->Execute(
      "SELECT qm(v) FROM events WHERE ts >= 150 AND ts < 600");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

TEST_F(ChunkedTest, UnsupportedChunkPredicateIsRejected) {
  auto result = chunked_->Execute(
      "SELECT qm(v) FROM events WHERE ts = 100");
  EXPECT_FALSE(result.ok());
}

TEST_F(ChunkedTest, WrongTableIsRejected) {
  catalog_.PutTable("other", testing_util::MakeXyTable({1}, {1.0}, {1.0}));
  auto result = chunked_->Execute("SELECT sum(x) FROM other");
  EXPECT_FALSE(result.ok());
}

TEST_F(ChunkedTest, MinMaxMergeWithTheirOwnOps) {
  ExpectMatchesDirect(
      "SELECT min(v), max(v) FROM events WHERE ts >= 300 AND ts < 800");
}

// Chunk states carry the table's epochs: an append or a replace of the
// table discards them, and the next call recomputes every chunk.
TEST_F(ChunkedTest, AppendRowsInvalidatesChunkStates) {
  const std::string sql =
      "SELECT sum(v), count(*) FROM events WHERE ts >= 0 AND ts < 400";
  ExpectMatchesDirect(sql);
  const Table& events = **catalog_.GetTable("events");
  auto copy = std::make_unique<Table>(events.schema());
  copy->AppendTable(events);
  ASSERT_OK(catalog_.AppendRows("events", *copy));
  ExpectMatchesDirect(sql);
  EXPECT_EQ(chunked_->last_stats().chunks_from_cache, 0);
  EXPECT_EQ(chunked_->last_stats().chunks_computed, 4);
  EXPECT_EQ(session_->cache().counters().full_invalidations, 4);
}

TEST_F(ChunkedTest, PutTableInvalidatesChunkStates) {
  const std::string sql =
      "SELECT sum(v), count(*) FROM events WHERE ts >= 0 AND ts < 400";
  ExpectMatchesDirect(sql);
  catalog_.PutTable("events", MakeEvents(300, 909));
  ExpectMatchesDirect(sql);
  EXPECT_EQ(chunked_->last_stats().chunks_from_cache, 0);
  EXPECT_EQ(chunked_->last_stats().chunks_computed, 4);
}

// Chunk sets are charged against the session cache's byte budget: they
// show up in ApproxBytes, stay within a tiny max_bytes (evicting one
// another), and the answers stay right.
TEST_F(ChunkedTest, ChunkStatesStayWithinTheCacheBudget) {
  CachePolicy policy;
  policy.max_bytes = 4096;
  session_->set_cache_policy(policy);
  ExpectMatchesDirect(
      "SELECT grp, qm(v), stddev(v) FROM events WHERE ts >= 0 AND ts < 400 "
      "GROUP BY grp ORDER BY grp");
  EXPECT_GT(session_->cache().ApproxBytes(), 0);
  EXPECT_LE(session_->cache().ApproxBytes(), policy.max_bytes);
  ExpectMatchesDirect(
      "SELECT grp, var(v), avg(v) FROM events GROUP BY grp ORDER BY grp");
  EXPECT_LE(session_->cache().ApproxBytes(), policy.max_bytes);
  EXPECT_GT(session_->cache().counters().evictions, 0);
  EXPECT_EQ(session_->metrics().Snapshot().counter("sudaf.cache.evictions"),
            session_->cache().counters().evictions);
}

// Chunk sets are journaled like any other set, and their signatures name
// the table ("T:" prefix) that recovery's epoch gate reads: a reopened
// session serves every chunk from the recovered cache.
TEST_F(ChunkedTest, ChunkSetsSurviveAReopen) {
  const std::string dir = testing_util::UniqueTempDir("sudaf_chunked");
  std::filesystem::remove_all(dir);
  const std::string sql =
      "SELECT grp, qm(v), gm(v) FROM events WHERE ts >= 300 AND ts < 800 "
      "AND v > 1 GROUP BY grp ORDER BY grp";
  std::vector<uint64_t> first;
  {
    SudafSession a(&catalog_);
    ASSERT_OK(a.EnableCachePersistence(dir));
    ChunkedSharingSession chunked(&a, "events", "ts", 100);
    auto result = chunked.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(chunked.last_stats().chunks_computed, 5);
    first = Bits(**result);
  }
  SudafSession b(&catalog_);
  ASSERT_OK(b.EnableCachePersistence(dir));
  EXPECT_GT(b.cache().num_entries(), 0);
  ChunkedSharingSession chunked(&b, "events", "ts", 100);
  auto result = chunked.Execute(sql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(chunked.last_stats().chunks_needed, 5);
  EXPECT_EQ(chunked.last_stats().chunks_from_cache, 5);
  EXPECT_EQ(Bits(**result), first);
  b.DisableCachePersistence();
  std::filesystem::remove_all(dir);
}

// Two instances over one session, on two threads: each call's stats come
// from its own registry, so neither counts the other's chunks, and the
// answers equal serial runs bit for bit.
TEST_F(ChunkedTest, ConcurrentInstancesMatchSerialRuns) {
  // Each client has its own residual predicate, so the two never share a
  // chunk set and the serial stats are exact for the concurrent run too.
  auto client_queries = [](int grp) {
    const std::string where = " WHERE grp = " + std::to_string(grp);
    return std::vector<std::string>{
        "SELECT qm(v), stddev(v) FROM events" + where +
            " AND ts >= 0 AND ts < 600",
        "SELECT var(v) FROM events" + where + " AND ts >= 300 AND ts < 900",
        "SELECT avg(v), max(v) FROM events" + where,
        "SELECT qm(v) FROM events" + where + " AND ts >= 100 AND ts < 500",
    };
  };
  struct Run {
    std::vector<std::vector<uint64_t>> bits;
    std::vector<int> needed, from_cache, computed;
  };
  std::atomic<int> waiting{0};
  auto run_client = [&](SudafSession* session, int grp, Run* out) {
    ChunkedSharingSession chunked(session, "events", "ts", 100);
    // Start the two clients together (a no-op for the serial runs).
    --waiting;
    while (waiting.load() > 0) std::this_thread::yield();
    for (int round = 0; round < 10; ++round) {
      for (const std::string& sql : client_queries(grp)) {
        auto result = chunked.Execute(sql);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        out->bits.push_back(Bits(**result));
        out->needed.push_back(chunked.last_stats().chunks_needed);
        out->from_cache.push_back(chunked.last_stats().chunks_from_cache);
        out->computed.push_back(chunked.last_stats().chunks_computed);
      }
    }
  };
  std::vector<Run> serial(2);
  {
    SudafSession session(&catalog_);
    run_client(&session, 1, &serial[0]);
    run_client(&session, 2, &serial[1]);
  }
  std::vector<Run> concurrent(2);
  {
    waiting = 2;
    std::thread t1(run_client, session_.get(), 1, &concurrent[0]);
    std::thread t2(run_client, session_.get(), 2, &concurrent[1]);
    t1.join();
    t2.join();
  }
  for (int c = 0; c < 2; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    EXPECT_EQ(concurrent[c].bits, serial[c].bits);
    EXPECT_EQ(concurrent[c].needed, serial[c].needed);
    EXPECT_EQ(concurrent[c].from_cache, serial[c].from_cache);
    EXPECT_EQ(concurrent[c].computed, serial[c].computed);
  }
}

// Chunks below zero: a row's chunk is counted from the scan's first
// chunk boundary, so ts = -5 lies in [-100, 0), not in chunk 0.
TEST(ChunkedNegativeTest, NegativeChunkValuesMatchDirectExecution) {
  // MakeEvents' rows with ts shifted into [-500, 500).
  std::unique_ptr<Table> events = MakeEvents(5000, 909);
  auto shifted = std::make_unique<Table>(events->schema());
  for (int64_t r = 0; r < events->num_rows(); ++r) {
    shifted->column(0).AppendInt64(events->column(0).GetInt64(r) - 500);
    shifted->column(1).AppendInt64(events->column(1).GetInt64(r));
    shifted->column(2).AppendFloat64(events->column(2).GetFloat64(r));
  }
  shifted->FinishBulkAppend();
  Catalog catalog;
  catalog.PutTable("events", std::move(shifted));
  SudafSession session(&catalog);
  ChunkedSharingSession chunked(&session, "events", "ts", 100);
  for (const std::string sql :
       {"SELECT grp, sum(v), count(v) FROM events GROUP BY grp ORDER BY grp",
        // Served from the chunks the full-domain query cached.
        "SELECT grp, sum(v), count(v) FROM events WHERE ts >= 0 AND "
        "ts < 100 GROUP BY grp ORDER BY grp",
        "SELECT grp, sum(v), count(v) FROM events WHERE ts < 200 "
        "GROUP BY grp ORDER BY grp"}) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(QueryResult want,
                         session.Execute(sql, ExecMode::kSudafNoShare));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Table> got, chunked.Execute(sql));
    ASSERT_EQ(got->num_rows(), want->num_rows());
    for (int64_t r = 0; r < got->num_rows(); ++r) {
      EXPECT_EQ(got->column(0).GetInt64(r), want->column(0).GetInt64(r));
      ExpectClose(want->column(1).GetNumeric(r), got->column(1).GetNumeric(r),
                  1e-9);
      EXPECT_EQ(got->column(2).GetNumeric(r), want->column(2).GetNumeric(r));
    }
  }
}

// Over rows in chunk-column order, merging the chunks' groupings in chunk
// order reproduces a direct execution's first-occurrence key order: with
// no ORDER BY, the chunked answer's key column equals the direct one row
// for row, whether a chunk comes from the cache or from the covering scan.
TEST(ChunkedKeyOrderTest, GroupedKeysFollowDirectExecutionOrder) {
  Schema schema;
  ASSERT_OK(schema.AddField({"ts", DataType::kInt64}));
  ASSERT_OK(schema.AddField({"tag", DataType::kString}));
  ASSERT_OK(schema.AddField({"v", DataType::kFloat64}));
  auto events = std::make_unique<Table>(std::move(schema));
  Rng rng(2026);
  for (int64_t ts = 0; ts < 1000; ++ts) {
    for (int r = 0; r < 4; ++r) {
      events->column(0).AppendInt64(ts);
      // Tags spread as ts grows, so later chunks bring new keys.
      events->column(1).AppendString(
          "t" + std::to_string(rng.NextBelow(static_cast<uint64_t>(
                    5 + ts / 20))));
      events->column(2).AppendFloat64(rng.NextDoubleIn(0.5, 9.5));
    }
  }
  events->FinishBulkAppend();
  Catalog catalog;
  catalog.PutTable("events", std::move(events));
  SudafSession session(&catalog);
  ChunkedSharingSession chunked(&session, "events", "ts", 100);

  auto expect_same_keys = [&](const std::string& sql) {
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(QueryResult want,
                         session.Execute(sql, ExecMode::kSudafNoShare));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Table> got, chunked.Execute(sql));
    ASSERT_EQ(got->num_rows(), want->num_rows());
    ASSERT_GT(got->num_rows(), 20);
    for (int64_t r = 0; r < got->num_rows(); ++r) {
      ASSERT_EQ(got->column(0).GetString(r), want->column(0).GetString(r))
          << "row " << r;
      EXPECT_EQ(got->column(1).GetNumeric(r), want->column(1).GetNumeric(r))
          << "row " << r;
    }
  };
  expect_same_keys(
      "SELECT tag, count(v) FROM events WHERE ts >= 300 AND ts < 600 "
      "GROUP BY tag");
  EXPECT_EQ(chunked.last_stats().chunks_computed, 3);
  // Cached chunks 3-5 merge with chunks computed before and after them.
  expect_same_keys(
      "SELECT tag, count(v) FROM events WHERE ts >= 100 AND ts < 900 "
      "GROUP BY tag");
  EXPECT_EQ(chunked.last_stats().chunks_from_cache, 3);
  EXPECT_EQ(chunked.last_stats().chunks_computed, 5);
}

}  // namespace
}  // namespace sudaf
