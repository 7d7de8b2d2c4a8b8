// Session-level tests of a query group's cache reads: one probe per
// representative, one fused pass over exactly the representatives the
// probe missed, and one copy per representative a member serves.
//   - A stale probed set (its group count differs from the scan's) serves
//     none of its hits.
//   - One representative read by several states of one member, alone and
//     in a shared-scan batch, serves each state and counts as documented.
//   - Concurrent partial hits under a running integrity scrubber stay
//     bit-identical to cold runs.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "sudaf/cache.h"
#include "sudaf/scrubber.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

// Every cell's bits, column by column.
std::string Fingerprint(const Table& t) {
  std::string fp;
  for (int c = 0; c < t.num_columns(); ++c) {
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      if (t.column(c).type() == DataType::kInt64) {
        int64_t v = t.column(c).GetInt64(r);
        fp.append(reinterpret_cast<const char*>(&v), sizeof(v));
      } else {
        double v = t.column(c).GetFloat64(r);
        fp.append(reinterpret_cast<const char*>(&v), sizeof(v));
      }
    }
  }
  return fp;
}

// t(g, x, y): `rows` rows in 8 groups, x in [0.9, 1.1) so that products
// of a group's values stay finite.
void LoadTable(Catalog* catalog, int64_t rows) {
  std::vector<int64_t> g(rows);
  std::vector<double> x(rows);
  for (int64_t i = 0; i < rows; ++i) {
    g[i] = i % 8;
    x[i] = 0.9 + 0.2 * static_cast<double>((i * 37) % 101) / 101.0;
  }
  catalog->PutTable("t", testing_util::MakeXyTable(g, x, x));
}

// The answer of `sql` run alone in a fresh session.
std::string ColdFingerprint(Catalog* catalog, const std::string& sql,
                            ExecMode mode) {
  SudafSession cold(catalog);
  auto result = cold.Execute(sql, mode);
  SUDAF_CHECK_MSG(result.ok(), result.status().ToString());
  return Fingerprint(**result);
}

class ProbeServeTest : public ::testing::Test {
 protected:
  void SetUp() override { LoadTable(&catalog_, 400); }

  Catalog catalog_;
};

// A set under the query's signature and epochs whose group count is one
// less than the scan's is stale: its Σx hit is not served, both states
// are computed, and GetOrCreate discards the set.
TEST_F(ProbeServeTest, StalePartialHitIsComputedNotServed) {
  SudafSession session(&catalog_);
  ASSERT_TRUE(session
                  .Execute("SELECT g, sum(x) FROM t GROUP BY g",
                           ExecMode::kSudafShare)
                  .ok());
  ASSERT_EQ(session.cache().sets().size(), 1u);
  const StateCache::GroupSetPtr cached =
      session.cache().sets().begin()->second;
  ASSERT_EQ(cached->num_groups, 8);
  ASSERT_EQ(cached->entries.size(), 1u);

  StateCache::GroupSet stale;
  stale.data_sig = cached->data_sig;
  stale.num_groups = cached->num_groups - 1;
  stale.epochs = cached->epochs;
  stale.covered_rows = cached->covered_rows;
  stale.group_keys = std::make_unique<Table>(cached->group_keys->schema());
  std::vector<int64_t> kept(stale.num_groups);
  for (int32_t r = 0; r < stale.num_groups; ++r) kept[r] = r;
  for (int c = 0; c < cached->group_keys->num_columns(); ++c) {
    stale.group_keys->column(c).AppendRows(cached->group_keys->column(c),
                                           kept.data(), stale.num_groups);
  }
  stale.group_keys->FinishBulkAppend();
  StateCache::Entry sum_x = cached->entries.begin()->second;
  sum_x.main.resize(stale.num_groups);
  stale.entries.emplace(cached->entries.begin()->first, std::move(sum_x));
  session.cache().AdoptSet(std::move(stale));

  const std::string sql = "SELECT g, sum(x), sum(x*x) FROM t GROUP BY g";
  auto result = session.Execute(sql, ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Fingerprint(**result),
            ColdFingerprint(&catalog_, sql, ExecMode::kSudafNoShare));
  EXPECT_EQ(result->stats.cache_stale_discards, 1);
  EXPECT_EQ(result->stats.states_from_cache, 0);
  EXPECT_EQ(result->stats.states_computed, 2);
  EXPECT_TRUE(result->stats.scanned_base_data);
}

// prod(x) and prod(x^2) share one class with Σ ln x, so each member reads
// that representative for two states. With Σ ln x cached, both states
// count states_from_cache; with Σx cached instead, Σ ln x is computed once
// for the whole batch, and the member that did not compute it counts it
// once in states_from_batch. serve_rows counts every state at every
// returned row: 3 states × 8 groups, or × 3 rows under ORDER BY g LIMIT 3.
TEST_F(ProbeServeTest, OneRepresentativeServesSeveralStates) {
  const std::string all =
      "SELECT g, prod(x), prod(x^2), sum(x) FROM t GROUP BY g";
  const std::string top =
      "SELECT g, prod(x), prod(x^2), sum(x) FROM t GROUP BY g "
      "ORDER BY g LIMIT 3";
  const std::string cold_all =
      ColdFingerprint(&catalog_, all, ExecMode::kSudafShare);
  const std::string cold_top =
      ColdFingerprint(&catalog_, top, ExecMode::kSudafShare);

  struct Case {
    const char* warm;  // caches one of the two representatives
    int from_cache;    // per member
    int computed;      // by the member that owns the missed representative
  };
  const Case cases[] = {
      {"SELECT g, prod(x) FROM t GROUP BY g", 2, 1},
      {"SELECT g, sum(x) FROM t GROUP BY g", 1, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.warm);
    {
      SudafSession solo(&catalog_);
      ASSERT_TRUE(solo.Execute(c.warm, ExecMode::kSudafShare).ok());
      auto result = solo.Execute(all, ExecMode::kSudafShare);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(Fingerprint(**result), cold_all);
      EXPECT_EQ(result->stats.states_from_cache, c.from_cache);
      EXPECT_EQ(result->stats.states_computed, c.computed);
      EXPECT_EQ(result->stats.states_from_batch, 0);
      EXPECT_EQ(result->stats.serve_rows, 3 * 8);
    }
    SudafSession batched(&catalog_);
    ASSERT_TRUE(batched.Execute(c.warm, ExecMode::kSudafShare).ok());
    BatchExecStats bstats;
    std::vector<Result<QueryResult>> results =
        batched.ExecuteBatch({all, top}, ExecMode::kSudafShare, &bstats);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(bstats.groups_shared, 1);
    ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
    ASSERT_TRUE(results[1].ok()) << results[1].status().ToString();
    EXPECT_EQ(Fingerprint(**results[0]), cold_all);
    EXPECT_EQ(Fingerprint(**results[1]), cold_top);

    const ExecStats& first = results[0]->stats;
    EXPECT_EQ(first.states_from_cache, c.from_cache);
    EXPECT_EQ(first.states_computed, c.computed);
    EXPECT_EQ(first.states_from_batch, 0);
    EXPECT_EQ(first.serve_rows, 3 * 8);

    const ExecStats& second = results[1]->stats;
    EXPECT_EQ(second.states_from_cache, c.from_cache);
    EXPECT_EQ(second.states_computed, 0);
    EXPECT_EQ(second.states_from_batch, 1);
    EXPECT_EQ(second.serve_rows, 3 * 3);
  }
}

// Eight threads run partial-hit queries on one session while the
// integrity scrubber passes over the cache every millisecond. A byte
// budget of a few sets keeps evicting, so the select lists keep meeting
// sets that hold some of their representatives and lack others. Even
// threads run each query alone, odd threads in batches of two sharing one
// scan. Every answer must be bit-identical to a cold run.
TEST(ProbeServeConcurrencyTest, PartialHitsUnderScrubberMatchColdBits) {
  Catalog catalog;
  LoadTable(&catalog, 2000);
  const std::vector<std::string> filters = {"x > 0.92", "x > 0.95",
                                            "x > 0.98", "x > 1.01"};
  const std::vector<std::string> lists = {
      "g, sum(x)", "g, sum(x), sum(x*x)", "g, prod(x), prod(x^2), sum(x*x)",
      "g, var(x), kurtosis(x)"};
  std::vector<std::string> sqls;
  std::vector<std::string> cold;
  for (const std::string& where : filters) {
    for (const std::string& list : lists) {
      sqls.push_back("SELECT " + list + " FROM t WHERE " + where +
                     " GROUP BY g");
      cold.push_back(ColdFingerprint(&catalog, sqls.back(),
                                     ExecMode::kSudafShare));
    }
  }

  SudafSession session(&catalog, SessionOptions{}.set_cache_max_bytes(3000));
  ScrubOptions scrub_opts;
  scrub_opts.interval_ms = 1;
  IntegrityScrubber scrubber(&session, scrub_opts);
  ASSERT_OK(scrubber.Start());

  constexpr int kThreads = 8;
  constexpr int kRounds = 64;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::atomic<int> partial_hits{0};
  auto check = [&](const Result<QueryResult>& result, size_t q) {
    if (!result.ok()) {
      failures.fetch_add(1);
      return;
    }
    if (Fingerprint(**result) != cold[q]) mismatches.fetch_add(1);
    if (result->stats.states_from_cache > 0 &&
        result->stats.states_computed > 0) {
      partial_hits.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Stay on one filter for a few rounds so lists meet each other's
        // sets, then move on.
        const size_t f = static_cast<size_t>((round / 4 + t) % 4);
        const size_t a = f * lists.size() + (round + t) % lists.size();
        if (t % 2 == 0) {
          check(session.Execute(sqls[a], ExecMode::kSudafShare), a);
          continue;
        }
        const size_t b = f * lists.size() + (round + t + 1) % lists.size();
        std::vector<Result<QueryResult>> results =
            session.ExecuteBatch({sqls[a], sqls[b]}, ExecMode::kSudafShare);
        check(results[0], a);
        check(results[1], b);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  scrubber.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(partial_hits.load(), 0);
  EXPECT_GT(session.cache().counters().evictions, 0);
  EXPECT_GT(scrubber.passes(), 0);
}

}  // namespace
}  // namespace sudaf
