// Hardened-execution tests: QueryGuard (cancellation / deadline / memory
// budget), failpoint injection at every registered site, poison-safe state
// sharing, and epoch-based cache invalidation (docs/robustness.md).

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/query_guard.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "storage/csv.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

using testing_util::ExpectClose;

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// QueryGuard units
// ---------------------------------------------------------------------------

TEST(QueryGuardTest, DefaultGuardNeverTrips) {
  QueryGuard guard;
  EXPECT_OK(guard.Check());
  EXPECT_OK(guard.ChargeMemory(1 << 30));  // budget 0 = disabled
  EXPECT_EQ(guard.checks(), 1);
}

TEST(QueryGuardTest, CancelTokenTripsCheck) {
  CancelToken token;
  QueryGuard guard;
  guard.set_cancel_token(&token);
  EXPECT_OK(guard.Check());
  token.Cancel();
  EXPECT_EQ(guard.Check().code(), StatusCode::kCancelled);
  token.Reset();
  EXPECT_OK(guard.Check());
}

TEST(QueryGuardTest, DeadlineTripsAndClears) {
  QueryGuard guard;
  guard.ArmDeadline(0);  // already expired
  EXPECT_EQ(guard.Check().code(), StatusCode::kDeadlineExceeded);
  guard.ArmDeadline(60000);
  EXPECT_OK(guard.Check());
  guard.ArmDeadline(-5);
  EXPECT_EQ(guard.Check().code(), StatusCode::kDeadlineExceeded);
  guard.ClearDeadline();
  EXPECT_OK(guard.Check());
}

TEST(QueryGuardTest, MemoryBudgetFailsClosed) {
  QueryGuard guard;
  guard.set_memory_budget(1000);
  EXPECT_OK(guard.ChargeMemory(600));
  Status st = guard.ChargeMemory(600);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // The failed charge stays recorded: even a tiny follow-up fails.
  EXPECT_EQ(guard.ChargeMemory(1).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.memory_charged(), 1201);
  guard.ResetMemoryCharge();
  EXPECT_OK(guard.ChargeMemory(600));
}

// ---------------------------------------------------------------------------
// FailPoint units
// ---------------------------------------------------------------------------

class FailPointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoint::DeactivateAll(); }
};

TEST_F(FailPointTest, InactiveSiteIsOk) {
  EXPECT_OK(FailPoint::Check("robustness_test:unused"));
}

TEST_F(FailPointTest, SkipAndCountSemantics) {
  FailPoint::Activate("robustness_test:site", Status::Internal("injected"),
                      /*skip=*/2, /*count=*/2);
  EXPECT_OK(FailPoint::Check("robustness_test:site"));
  EXPECT_OK(FailPoint::Check("robustness_test:site"));
  EXPECT_EQ(FailPoint::Check("robustness_test:site").code(),
            StatusCode::kInternal);
  EXPECT_EQ(FailPoint::Check("robustness_test:site").code(),
            StatusCode::kInternal);
  // Spec exhausted: the site expires on its own, and with no active site
  // left the fast path stops counting hits.
  EXPECT_OK(FailPoint::Check("robustness_test:site"));
  EXPECT_EQ(FailPoint::Hits("robustness_test:site"), 4);
}

TEST_F(FailPointTest, DeactivateDisarms) {
  FailPoint::Activate("robustness_test:site", Status::Internal("injected"));
  FailPoint::Deactivate("robustness_test:site");
  EXPECT_OK(FailPoint::Check("robustness_test:site"));
}

TEST_F(FailPointTest, InjectedStatusIsCopiedVerbatim) {
  FailPoint::Activate("robustness_test:site",
                      Status::Cancelled("simulated cancel"));
  Status st = FailPoint::Check("robustness_test:site");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(st.message(), "simulated cancel");
}

// ---------------------------------------------------------------------------
// FailPoint::ActivateFromEnv (the SUDAF_FAILPOINTS grammar)
// ---------------------------------------------------------------------------

TEST_F(FailPointTest, EnvSpecBareSiteFiresOnce) {
  ASSERT_OK_AND_ASSIGN(int armed,
                       FailPoint::ActivateFromEnv("env_test:bare"));
  EXPECT_EQ(armed, 1);
  Status st = FailPoint::Check("env_test:bare");
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  // The injected message names the site, so CI logs are attributable.
  EXPECT_NE(st.message().find("env_test:bare"), std::string::npos);
  EXPECT_OK(FailPoint::Check("env_test:bare"));  // fired once, expired
}

TEST_F(FailPointTest, EnvSpecSkipAndCountArgs) {
  ASSERT_OK_AND_ASSIGN(
      int armed, FailPoint::ActivateFromEnv("env_test:sc=skip:2:count:2"));
  EXPECT_EQ(armed, 1);
  EXPECT_OK(FailPoint::Check("env_test:sc"));
  EXPECT_OK(FailPoint::Check("env_test:sc"));
  EXPECT_FALSE(FailPoint::Check("env_test:sc").ok());
  EXPECT_FALSE(FailPoint::Check("env_test:sc").ok());
  EXPECT_OK(FailPoint::Check("env_test:sc"));
}

TEST_F(FailPointTest, EnvSpecBareCountFiresForever) {
  ASSERT_OK_AND_ASSIGN(int armed,
                       FailPoint::ActivateFromEnv("env_test:all=count"));
  EXPECT_EQ(armed, 1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(FailPoint::Check("env_test:all").ok()) << i;
  }
}

TEST_F(FailPointTest, EnvSpecArmsMultipleSites) {
  ASSERT_OK_AND_ASSIGN(
      int armed,
      FailPoint::ActivateFromEnv("env_test:one,env_test:two=skip:1"));
  EXPECT_EQ(armed, 2);
  EXPECT_FALSE(FailPoint::Check("env_test:one").ok());
  EXPECT_OK(FailPoint::Check("env_test:two"));
  EXPECT_FALSE(FailPoint::Check("env_test:two").ok());
}

TEST_F(FailPointTest, EnvSpecMalformedArmsNothing) {
  for (const char* bad :
       {"=skip:1", "env_test:a=skip", "env_test:a=skip:x",
        "env_test:a=bogus:1", "env_test:ok,env_test:b=wat"}) {
    auto result = FailPoint::ActivateFromEnv(bad);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  // All-or-nothing: the valid prefix of a malformed spec was not armed.
  EXPECT_OK(FailPoint::Check("env_test:ok"));
}

TEST_F(FailPointTest, EnvSpecReadsTheEnvironmentVariable) {
  ASSERT_EQ(setenv("SUDAF_FAILPOINTS", "env_test:fromenv", 1), 0);
  ASSERT_OK_AND_ASSIGN(int armed, FailPoint::ActivateFromEnv());
  EXPECT_EQ(armed, 1);
  EXPECT_FALSE(FailPoint::Check("env_test:fromenv").ok());
  ASSERT_EQ(unsetenv("SUDAF_FAILPOINTS"), 0);
  // Absent variable arms nothing and is not an error.
  ASSERT_OK_AND_ASSIGN(armed, FailPoint::ActivateFromEnv());
  EXPECT_EQ(armed, 0);
}

// ---------------------------------------------------------------------------
// ThreadPool::TryParallelFor
// ---------------------------------------------------------------------------

class ThreadPoolRobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoint::DeactivateAll(); }
};

TEST_F(ThreadPoolRobustnessTest, AllTasksOkReturnsOk) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> ran(16);
  EXPECT_OK(pool.TryParallelFor(16, [&](int64_t t) {
    ran[t].fetch_add(1);
    return Status::OK();
  }));
  for (auto& r : ran) EXPECT_EQ(r.load(), 1);
}

TEST_F(ThreadPoolRobustnessTest, LowestIndexedErrorWinsDeterministically) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    Status st = pool.TryParallelFor(64, [&](int64_t t) -> Status {
      if (t == 7) return Status::Internal("task 7");
      if (t == 31) return Status::InvalidArgument("task 31");
      return Status::OK();
    });
    ASSERT_EQ(st.code(), StatusCode::kInternal);
    ASSERT_EQ(st.message(), "task 7");
  }
}

// A task claimed before a higher-indexed task fails must still run, or the
// higher task's error would win. Spinning load threads preempt claimers
// between the claim and the fail-fast check, which opens that window.
TEST_F(ThreadPoolRobustnessTest, LowerIndexedTasksRunAfterAHigherFailure) {
  constexpr int kRounds = 20000;
  ThreadPool pool(4);
  const int load = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  std::atomic<bool> stop{false};
  std::vector<std::thread> spinners;
  for (int i = 0; i < load; ++i) {
    spinners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  int wrong_status = 0;
  int skipped_low = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::array<std::atomic<bool>, 7> ran{};
    Status st = pool.TryParallelFor(64, [&](int64_t t) -> Status {
      if (t < 7) ran[t].store(true);
      if (t == 7) return Status::Internal("task 7");
      if (t == 31) return Status::InvalidArgument("task 31");
      return Status::OK();
    });
    if (st.code() != StatusCode::kInternal || st.message() != "task 7") {
      ++wrong_status;
    }
    if (!std::all_of(ran.begin(), ran.end(),
                     [](const std::atomic<bool>& r) { return r.load(); })) {
      ++skipped_low;
    }
  }
  stop.store(true);
  for (auto& t : spinners) t.join();
  EXPECT_EQ(wrong_status, 0) << "of " << kRounds << " rounds";
  EXPECT_EQ(skipped_low, 0) << "of " << kRounds << " rounds";
}

TEST_F(ThreadPoolRobustnessTest, DispatchFailpointPropagates) {
  ThreadPool pool(2);
  FailPoint::Activate("thread_pool:dispatch",
                      Status::Internal("dispatch fault"));
  Status st = pool.TryParallelFor(8, [](int64_t) { return Status::OK(); });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(st.message(), "dispatch fault");
  FailPoint::DeactivateAll();
  EXPECT_OK(pool.TryParallelFor(8, [](int64_t) { return Status::OK(); }));
}

TEST_F(ThreadPoolRobustnessTest, ZeroWorkerPoolStillPropagates) {
  ThreadPool pool(0);
  Status st = pool.TryParallelFor(4, [](int64_t t) -> Status {
    return t == 2 ? Status::Internal("serial failure") : Status::OK();
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// CSV scan failpoint
// ---------------------------------------------------------------------------

TEST_F(FailPointTest, CsvScanFaultSurfacesTypedError) {
  std::string path = ::testing::TempDir() + "/robustness_scan.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,2\n3,4\n5,6\n";
  }
  // Fail on the third record: the reader must return the injected error,
  // not a partial two-row table.
  FailPoint::Activate("csv:scan", Status::Internal("disk fault"), /*skip=*/2);
  auto result = ReadCsvInferSchema(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);

  FailPoint::DeactivateAll();
  auto retry = ReadCsvInferSchema(path);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ((*retry)->num_rows(), 3);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end: guards, injection, poison and epochs through SudafSession
// ---------------------------------------------------------------------------

class RobustSessionTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoint::DeactivateAll(); }

  // t(g INT64, x FLOAT64, y FLOAT64) with `rows` rows spread over 8 groups.
  void Load(int64_t rows) {
    std::vector<int64_t> g(rows);
    std::vector<double> x(rows);
    for (int64_t i = 0; i < rows; ++i) {
      g[i] = i % 8;
      x[i] = static_cast<double>(i % 100) + 0.5;
    }
    catalog_.PutTable("t", testing_util::MakeXyTable(g, x, x));
    session_ = std::make_unique<SudafSession>(&catalog_);
  }

  void SetGuard(const QueryGuard* guard, int morsel_size = 64) {
    ExecOptions opts = session_->exec_options();
    opts.guard = guard;
    opts.morsel_size = morsel_size;
    session_->set_default_exec_options(opts);
  }

  Catalog catalog_;
  std::unique_ptr<SudafSession> session_;
};

// Acceptance (a): a query cancelled mid-execution returns kCancelled and
// leaves no partial state in the cache.
TEST_F(RobustSessionTest, CancelMidMorselLeavesNoPartialCacheInsert) {
  Load(1000);
  QueryGuard guard;
  CancelToken token;
  guard.set_cancel_token(&token);
  SetGuard(&guard, /*morsel_size=*/64);

  // Trip the guard from inside the run: fail the 4th morsel with the exact
  // status a concurrent Cancel() would produce. (The guard itself is
  // checked at every morsel boundary — proven below via checks().)
  FailPoint::Activate("state_batch:morsel", Status::Cancelled("cancelled"),
                      /*skip=*/3);
  auto result = session_->Execute("SELECT g, var(x) FROM t GROUP BY g",
                                  ExecMode::kSudafShare);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(session_->cache().num_entries(), 0);  // nothing partial

  // Re-execution succeeds and repopulates the cache.
  FailPoint::DeactivateAll();
  auto retry = session_->Execute("SELECT g, var(x) FROM t GROUP BY g",
                                 ExecMode::kSudafShare);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_GT(session_->cache().num_entries(), 0);
  EXPECT_GT(guard.checks(), 3);  // consulted at morsel granularity
}

TEST_F(RobustSessionTest, PreCancelledTokenFailsBeforeScanning) {
  Load(100);
  QueryGuard guard;
  CancelToken token;
  token.Cancel();
  guard.set_cancel_token(&token);
  SetGuard(&guard);
  auto result = session_->Execute("SELECT g, sum(x) FROM t GROUP BY g",
                                  ExecMode::kSudafShare);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // Failed queries return no stats; the cancel fired before any scan, so
  // nothing was cached.
  EXPECT_EQ(session_->cache().num_entries(), 0u);
}

TEST_F(RobustSessionTest, ExpiredDeadlineSurfacesThroughExecute) {
  Load(100);
  QueryGuard guard;
  guard.ArmDeadline(0);
  SetGuard(&guard);
  for (ExecMode mode : {ExecMode::kEngine, ExecMode::kSudafNoShare,
                        ExecMode::kSudafShare}) {
    auto result = session_->Execute("SELECT g, avg(x) FROM t GROUP BY g",
                                    mode);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST_F(RobustSessionTest, MemoryBudgetRejectsLargeScan) {
  Load(10000);
  QueryGuard guard;
  guard.set_memory_budget(1024);  // far below the frame's footprint
  SetGuard(&guard);
  auto result = session_->Execute("SELECT g, sum(x) FROM t GROUP BY g",
                                  ExecMode::kSudafShare);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(session_->cache().num_entries(), 0);

  // Raising the budget (and resetting the charge) unblocks the query.
  guard.set_memory_budget(64 << 20);
  guard.ResetMemoryCharge();
  auto retry = session_->Execute("SELECT g, sum(x) FROM t GROUP BY g",
                                 ExecMode::kSudafShare);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
}

// Acceptance (b): an injected fault during cache insert leaves the cache
// empty and a re-execution succeeds.
TEST_F(RobustSessionTest, InsertFaultLeavesCacheEmptyAndRecovers) {
  Load(200);
  FailPoint::Activate("cache:insert", Status::Internal("injected insert"));
  auto result = session_->Execute("SELECT g, var(x) FROM t GROUP BY g",
                                  ExecMode::kSudafShare);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(session_->cache().num_entries(), 0);

  FailPoint::DeactivateAll();
  auto retry = session_->Execute("SELECT g, var(x) FROM t GROUP BY g",
                                 ExecMode::kSudafShare);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_GT(session_->cache().num_entries(), 0);

  // And the recovered entries actually serve the next query.
  auto third = session_->Execute("SELECT g, var(x) FROM t GROUP BY g",
                                 ExecMode::kSudafShare);
  ASSERT_TRUE(third.ok());
  EXPECT_GT(third->stats.states_from_cache, 0);
  EXPECT_FALSE(third->stats.scanned_base_data);
}

// The insert commit is two-phase: with several pending entries and a fault
// on the SECOND insert check, not even the first entry may land.
TEST_F(RobustSessionTest, MultiEntryInsertFaultIsAtomic) {
  Load(200);
  FailPoint::Activate("cache:insert", Status::Internal("injected insert"),
                      /*skip=*/1);
  // var(x) needs three states (count, sum, sum of squares) → three inserts.
  auto result = session_->Execute("SELECT g, var(x) FROM t GROUP BY g",
                                  ExecMode::kSudafShare);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(session_->cache().num_entries(), 0);
}

TEST_F(RobustSessionTest, ProbeFaultSurfacesWithoutCorruption) {
  Load(100);
  ASSERT_TRUE(session_
                  ->Execute("SELECT g, sum(x) FROM t GROUP BY g",
                            ExecMode::kSudafShare)
                  .ok());
  int64_t cached = session_->cache().num_entries();
  FailPoint::Activate("cache:probe", Status::Internal("injected probe"));
  auto result = session_->Execute("SELECT g, sum(x) FROM t GROUP BY g",
                                  ExecMode::kSudafShare);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(session_->cache().num_entries(), cached);  // untouched

  FailPoint::DeactivateAll();
  auto retry = session_->Execute("SELECT g, sum(x) FROM t GROUP BY g",
                                 ExecMode::kSudafShare);
  ASSERT_TRUE(retry.ok());
  EXPECT_GT(retry->stats.states_from_cache, 0);
}

// Acceptance (c): a sum overflowing to Inf is reported in ExecStats, never
// cached, and a later sharing query recomputes instead of reusing poison.
TEST_F(RobustSessionTest, OverflowedStateIsServedButNeverCached) {
  std::vector<int64_t> g = {0, 0};
  std::vector<double> x = {1e308, 1e308};  // sum overflows to +inf
  catalog_.PutTable("t", testing_util::MakeXyTable(g, x, x));
  session_ = std::make_unique<SudafSession>(&catalog_);

  auto first =
      session_->Execute("SELECT sum(x) FROM t", ExecMode::kSudafShare);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // The current query still gets the honest arithmetic answer...
  EXPECT_EQ((*first)->column(0).GetFloat64(0), kInf);
  // ...but the poisoned state is reported and not cached.
  EXPECT_GT(first->stats.states_poisoned, 0);
  EXPECT_EQ(session_->cache().num_entries(), 0);

  auto second =
      session_->Execute("SELECT sum(x) FROM t", ExecMode::kSudafShare);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->column(0).GetFloat64(0), kInf);
  EXPECT_EQ(second->stats.states_from_cache, 0);  // recomputed
  EXPECT_TRUE(second->stats.scanned_base_data);
}

TEST_F(RobustSessionTest, PoisonQuarantineIsPerState) {
  // One overflowing group poisons sum(x) for the whole group set, but
  // count(x) stays finite and cacheable.
  std::vector<int64_t> g = {0, 0, 1};
  std::vector<double> x = {1e308, 1e308, 2.0};
  catalog_.PutTable("t", testing_util::MakeXyTable(g, x, x));
  session_ = std::make_unique<SudafSession>(&catalog_);

  auto first = session_->Execute(
      "SELECT g, sum(x), count(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->stats.states_poisoned, 1);
  EXPECT_EQ(session_->cache().num_entries(), 1);  // count only

  auto second = session_->Execute(
      "SELECT g, sum(x), count(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.states_from_cache, 1);  // count reused
  EXPECT_EQ((*second)->column(1).GetFloat64(0), kInf);
  ExpectClose(1.0, (*second)->column(2).GetFloat64(1));
}

TEST_F(RobustSessionTest, PoisonedEntryPlantedInCacheIsEvictedOnProbe) {
  // Defense in depth: even if a poisoned entry somehow exists in the cache
  // (planted directly here), a probe evicts it instead of serving it.
  Load(100);
  std::string sql = "SELECT g, sum(x) FROM t GROUP BY g";
  ASSERT_TRUE(session_->Execute(sql, ExecMode::kSudafShare).ok());

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<SelectStatement> stmt,
                       ParseSelect(sql));
  StateCache::GroupSetPtr set =
      session_->cache()
          .Find(DataSignature(*stmt), catalog_.TablesEpochs(stmt->tables),
                /*can_refresh=*/false)
          .set;
  ASSERT_NE(set, nullptr);
  ASSERT_EQ(set->entries.size(), 1u);
  for (auto& [key, entry] : set->entries) {
    entry.main.assign(entry.main.size(), kInf);
  }

  auto result = session_->Execute(sql, ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.cache_poison_evictions, 1);
  EXPECT_EQ(result->stats.states_from_cache, 0);
  EXPECT_TRUE(std::isfinite((*result)->column(1).GetFloat64(0)));
}

// Acceptance (d): replacing a catalog table invalidates prior entries via
// the epoch — no manual Clear() involved.
TEST_F(RobustSessionTest, TableReplacementInvalidatesViaEpoch) {
  Load(100);
  std::string sql = "SELECT g, sum(x) FROM t GROUP BY g";
  ASSERT_TRUE(session_->Execute(sql, ExecMode::kSudafShare).ok());
  ASSERT_GT(session_->cache().num_entries(), 0);

  catalog_.PutTable(
      "t", testing_util::MakeXyTable({0, 1}, {10.0, 20.0}, {0.0, 0.0}));
  auto fresh = session_->Execute(sql, ExecMode::kSudafShare);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->stats.cache_epoch_invalidations, 1);
  EXPECT_EQ(fresh->stats.states_from_cache, 0);
  ASSERT_EQ((*fresh)->num_rows(), 2);
  ExpectClose(10.0, (*fresh)->column(1).GetFloat64(0));
  ExpectClose(20.0, (*fresh)->column(1).GetFloat64(1));
}

// Multi-table signatures snapshot the combined epoch: mutating EITHER
// joined table invalidates the cached join states.
TEST_F(RobustSessionTest, JoinSetInvalidatesWhenEitherTableMutates) {
  auto make_fact = [] {
    Schema s;
    SUDAF_CHECK(s.AddField({"fk", DataType::kInt64}).ok());
    SUDAF_CHECK(s.AddField({"v", DataType::kFloat64}).ok());
    auto t = std::make_unique<Table>(std::move(s));
    for (int64_t i = 0; i < 12; ++i) {
      t->column(0).AppendInt64(i % 3);
      t->column(1).AppendFloat64(static_cast<double>(i));
    }
    t->FinishBulkAppend();
    return t;
  };
  auto make_dim = [](int64_t keys) {
    Schema s;
    SUDAF_CHECK(s.AddField({"dk", DataType::kInt64}).ok());
    SUDAF_CHECK(s.AddField({"w", DataType::kFloat64}).ok());
    auto t = std::make_unique<Table>(std::move(s));
    for (int64_t k = 0; k < keys; ++k) {
      t->column(0).AppendInt64(k);
      t->column(1).AppendFloat64(static_cast<double>(k));
    }
    t->FinishBulkAppend();
    return t;
  };
  catalog_.PutTable("fact", make_fact());
  catalog_.PutTable("dim", make_dim(3));
  session_ = std::make_unique<SudafSession>(&catalog_);

  const std::string sql =
      "SELECT fk, sum(v) FROM fact, dim WHERE fk = dk GROUP BY fk";
  ASSERT_TRUE(session_->Execute(sql, ExecMode::kSudafShare).ok());
  ASSERT_GT(session_->cache().num_entries(), 0);

  // Mutate the DIMENSION side only; join states over (fact, dim) go.
  catalog_.PutTable("dim", make_dim(2));
  auto after_dim = session_->Execute(sql, ExecMode::kSudafShare);
  ASSERT_TRUE(after_dim.ok()) << after_dim.status().ToString();
  EXPECT_EQ(after_dim->stats.cache_epoch_invalidations, 1);
  EXPECT_EQ(after_dim->stats.states_from_cache, 0);
  ASSERT_EQ((*after_dim)->num_rows(), 2);  // key 2 no longer joins

  // Now the FACT side.
  catalog_.PutTable("fact", make_fact());
  auto after_fact = session_->Execute(sql, ExecMode::kSudafShare);
  ASSERT_TRUE(after_fact.ok());
  EXPECT_EQ(after_fact->stats.cache_epoch_invalidations, 1);
  EXPECT_EQ(after_fact->stats.states_from_cache, 0);

  // Stable epochs: an immediate re-run shares instead of recomputing.
  auto warm = session_->Execute(sql, ExecMode::kSudafShare);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.cache_epoch_invalidations, 0);
  EXPECT_GT(warm->stats.states_from_cache, 0);
}

TEST_F(RobustSessionTest, InPlaceMutationInvalidatesViaTouchTable) {
  // External tables are mutated by their owner; TouchTable declares the
  // mutation and the next probe recomputes.
  auto table = testing_util::MakeXyTable({0, 1}, {1.0, 2.0}, {0.0, 0.0});
  catalog_.PutExternalTable("t", table.get());
  session_ = std::make_unique<SudafSession>(&catalog_);
  std::string sql = "SELECT g, sum(x) FROM t GROUP BY g";
  ASSERT_TRUE(session_->Execute(sql, ExecMode::kSudafShare).ok());

  catalog_.TouchTable("t");
  auto result = session_->Execute(sql, ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.cache_epoch_invalidations, 1);
  EXPECT_EQ(result->stats.states_from_cache, 0);
}

TEST_F(RobustSessionTest, UnrelatedTableMutationDoesNotInvalidate) {
  Load(100);
  std::string sql = "SELECT g, sum(x) FROM t GROUP BY g";
  ASSERT_TRUE(session_->Execute(sql, ExecMode::kSudafShare).ok());

  catalog_.PutTable(
      "other", testing_util::MakeXyTable({0}, {1.0}, {1.0}));
  auto result = session_->Execute(sql, ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.cache_epoch_invalidations, 0);
  EXPECT_GT(result->stats.states_from_cache, 0);
}

// Guard checks also cover the parallel fused path (worker threads observe
// the same cancellation deterministically through TryParallelFor).
TEST_F(RobustSessionTest, ParallelFusedPathPropagatesInjectedCancel) {
  Load(5000);
  ExecOptions opts = session_->exec_options();
  opts.parallel = true;
  opts.num_threads = 4;
  opts.morsel_size = 64;
  session_->set_default_exec_options(opts);

  FailPoint::Activate("state_batch:morsel", Status::Cancelled("cancelled"),
                      /*skip=*/5, /*count=*/1000000);
  auto result = session_->Execute("SELECT g, var(x) FROM t GROUP BY g",
                                  ExecMode::kSudafShare);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(session_->cache().num_entries(), 0);

  FailPoint::DeactivateAll();
  auto retry = session_->Execute("SELECT g, var(x) FROM t GROUP BY g",
                                 ExecMode::kSudafShare);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
}

}  // namespace
}  // namespace sudaf
