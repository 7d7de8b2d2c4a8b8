// Tests for the concurrent query service (docs/service.md): retry policy
// determinism, FIFO admission with guard-aware queueing, the persistence
// circuit breaker, fused-path fallback, memory-pressure degradation, the
// thread-pool reentrancy contract the service relies on, and the chaos
// acceptance harness — N clients × M queries under cycling failpoints,
// every request ending in a definite Status and every OK answer bitwise
// equal to a serial cold run.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "agg/udaf.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/query_guard.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "storage/catalog.h"
#include "sudaf/cache_persist.h"
#include "sudaf/service.h"
#include "sudaf/session.h"
#include "tests/test_util.h"

namespace sudaf {
namespace {

// ---------------------------------------------------------------------------
// RetryPolicy
// ---------------------------------------------------------------------------

TEST(RetryPolicyTest, BackoffIsDeterministicCappedAndJittered) {
  RetryPolicy policy;  // base 1ms, cap 64ms
  // Deterministic: the same (request, attempt) always sleeps the same time.
  EXPECT_EQ(policy.BackoffMs(7, 1), policy.BackoffMs(7, 1));
  EXPECT_EQ(policy.BackoffMs(7, 3), policy.BackoffMs(7, 3));
  // Jitter keeps each backoff in [cap/2, cap).
  for (int attempt = 1; attempt <= 10; ++attempt) {
    double cap = std::min(policy.base_backoff_ms * (1 << (attempt - 1)),
                          policy.max_backoff_ms);
    double ms = policy.BackoffMs(42, attempt);
    EXPECT_GE(ms, cap * 0.5) << "attempt " << attempt;
    EXPECT_LT(ms, cap) << "attempt " << attempt;
  }
  // Uncorrelated across requests: a shed burst does not retry in lockstep.
  EXPECT_NE(policy.BackoffMs(1, 1), policy.BackoffMs(2, 1));
  // Growth saturates at the cap.
  EXPECT_LE(policy.BackoffMs(5, 50), policy.max_backoff_ms);
}

TEST(RetryPolicyTest, OnlyTransientFailuresRetry) {
  RetryPolicy policy;
  const Status shed = Status::ResourceExhausted("queue full");
  const Status io = Status::Internal("injected");
  // Shedding happened before any work ran: always retryable.
  EXPECT_TRUE(policy.ShouldRetry(shed, /*idempotent=*/true, false));
  EXPECT_TRUE(policy.ShouldRetry(shed, /*idempotent=*/false, false));
  // A mid-execution memory trip re-runs work: idempotent only.
  EXPECT_TRUE(policy.ShouldRetry(shed, /*idempotent=*/true, true));
  EXPECT_FALSE(policy.ShouldRetry(shed, /*idempotent=*/false, true));
  // Transient I/O faults may have had partial side effects.
  EXPECT_TRUE(policy.ShouldRetry(io, /*idempotent=*/true, true));
  EXPECT_FALSE(policy.ShouldRetry(io, /*idempotent=*/false, true));
  // Definite outcomes never retry.
  for (const Status& s :
       {Status::Cancelled("c"), Status::DeadlineExceeded("d"),
        Status::ParseError("p"), Status::InvalidArgument("i"),
        Status::NotFound("n")}) {
    EXPECT_FALSE(policy.ShouldRetry(s, true, false)) << s.ToString();
    EXPECT_FALSE(policy.ShouldRetry(s, true, true)) << s.ToString();
  }
}

// ---------------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------------

TEST(AdmissionTest, FastPathAdmitsUpToConcurrencyLimit) {
  AdmissionController adm(2, 4, nullptr);
  ASSERT_OK(adm.Admit(nullptr, 1.0));
  ASSERT_OK(adm.Admit(nullptr, 1.0));
  EXPECT_EQ(adm.inflight(), 2);
  adm.Release();
  adm.Release();
  EXPECT_EQ(adm.inflight(), 0);
}

TEST(AdmissionTest, ShedsImmediatelyWhenQueueIsFull) {
  AdmissionController adm(1, 0, nullptr);  // one slot, no queue
  ASSERT_OK(adm.Admit(nullptr, 1.0));
  Status s = adm.Admit(nullptr, 1.0);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  adm.Release();
  // The slot freed: the next arrival is admitted again.
  ASSERT_OK(adm.Admit(nullptr, 1.0));
  adm.Release();
}

TEST(AdmissionTest, SlotsAreGrantedInArrivalOrder) {
  AdmissionController adm(1, 4, nullptr);
  ASSERT_OK(adm.Admit(nullptr, 1.0));  // occupy the only slot

  std::atomic<int> order{0};
  int admitted_a = -1;
  int admitted_b = -1;
  std::thread a([&] {
    ASSERT_OK(adm.Admit(nullptr, 1.0));
    admitted_a = order.fetch_add(1);
    adm.Release();
  });
  while (adm.queue_depth() < 1) std::this_thread::yield();
  std::thread b([&] {
    ASSERT_OK(adm.Admit(nullptr, 1.0));
    admitted_b = order.fetch_add(1);
    adm.Release();
  });
  while (adm.queue_depth() < 2) std::this_thread::yield();

  adm.Release();
  a.join();
  b.join();
  // a arrived first, so a ran first.
  EXPECT_EQ(admitted_a, 0);
  EXPECT_EQ(admitted_b, 1);
}

// Satellite: an armed deadline fires WHILE QUEUED — the request does not
// wait out the queue only to fail later.
TEST(AdmissionTest, DeadlineFiresWhileQueued) {
  AdmissionController adm(1, 4, nullptr);
  ASSERT_OK(adm.Admit(nullptr, 1.0));  // never released during the wait

  QueryGuard guard;
  guard.ArmDeadline(30.0);
  Status s = adm.Admit(&guard, 2.0);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(adm.queue_depth(), 0);  // the abandoned ticket was removed

  // The slot owner is unaffected and later arrivals still get the slot.
  adm.Release();
  ASSERT_OK(adm.Admit(nullptr, 1.0));
  adm.Release();
}

TEST(AdmissionTest, CancelFiresWhileQueuedAndDoesNotBlockOthers) {
  AdmissionController adm(1, 4, nullptr);
  ASSERT_OK(adm.Admit(nullptr, 1.0));

  CancelToken token;
  QueryGuard guard;
  guard.set_cancel_token(&token);
  Status cancelled;
  std::thread waiter([&] { cancelled = adm.Admit(&guard, 2.0); });
  while (adm.queue_depth() < 1) std::this_thread::yield();
  token.Cancel();
  waiter.join();
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(adm.queue_depth(), 0);

  // The abandoned ticket does not stall the FIFO for the next arrival.
  std::thread next([&] { ASSERT_OK(adm.Admit(nullptr, 1.0)); });
  while (adm.queue_depth() < 1) std::this_thread::yield();
  adm.Release();
  next.join();
  adm.Release();
}

// ---------------------------------------------------------------------------
// ThreadPool reentrancy (the service runs queries that may ParallelFor
// from inside worker threads; a nested call must run inline, not deadlock
// on the pool's job mutex).
// ---------------------------------------------------------------------------

TEST(ThreadPoolReentrancyTest, NestedParallelForRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  ASSERT_OK(pool.TryParallelFor(4, [&](int64_t) -> Status {
    // Without the reentrancy guard this deadlocks: the worker would queue
    // a job on the pool it is itself servicing.
    return pool.TryParallelFor(4, [&](int64_t) -> Status {
      inner_runs.fetch_add(1);
      return Status::OK();
    });
  }));
  EXPECT_EQ(inner_runs.load(), 16);
}

TEST(ThreadPoolReentrancyTest, NestedFailurePropagatesThroughBothLevels) {
  ThreadPool pool(2);
  Status st = pool.TryParallelFor(2, [&](int64_t) -> Status {
    return pool.TryParallelFor(2, [&](int64_t t) -> Status {
      return t == 1 ? Status::Internal("inner fault") : Status::OK();
    });
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// QueryService
// ---------------------------------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoint::Reset();
    std::vector<int64_t> g;
    std::vector<double> x;
    std::vector<double> y;
    Rng rng(2024);
    for (int i = 0; i < 200; ++i) {
      g.push_back(static_cast<int64_t>(rng.NextBelow(8)));
      x.push_back(rng.NextDoubleIn(0.5, 9.5));
      y.push_back(rng.NextDoubleIn(-2.0, 2.0));
    }
    catalog_.PutTable("t", testing_util::MakeXyTable(g, x, y));
    session_ = std::make_unique<SudafSession>(&catalog_);
  }
  void TearDown() override {
    FailPoint::Reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

  void EnablePersistence() {
    dir_ = testing_util::UniqueTempDir("sudaf_service");
    std::filesystem::remove_all(dir_);
    ASSERT_OK(session_->EnableCachePersistence(dir_));
  }

  Catalog catalog_;
  std::unique_ptr<SudafSession> session_;
  std::string dir_;
};

TEST_F(ServiceTest, ServesQueriesAndReportsAttempts) {
  QueryService service(session_.get());
  auto result =
      service.Execute("SELECT g, sum(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.service_attempts, 1);
  EXPECT_FALSE(result->stats.degraded_cache_memory_only);
  MetricsSnapshot snap = service.metrics().Snapshot();
  EXPECT_EQ(snap.counter("sudaf.service.requests"), 1);
  EXPECT_EQ(snap.counter("sudaf.service.ok"), 1);
  EXPECT_EQ(snap.counter("sudaf.service.admitted"), 1);
}

TEST_F(ServiceTest, RetriesTransientFaultsToSuccess) {
  QueryService service(session_.get());
  // The first attempt's cache insert fails; the retry finds a clean run.
  FailPoint::Activate("cache:insert", Status::Internal("injected"));
  auto result =
      service.Execute("SELECT g, sum(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.service_attempts, 2);
  EXPECT_EQ(service.metrics().Snapshot().counter("sudaf.service.retries"), 1);
}

TEST_F(ServiceTest, NonIdempotentRequestsNeverRetryExecutedWork) {
  QueryService service(session_.get());
  FailPoint::Activate("cache:insert", Status::Internal("injected"));
  ServiceRequest req;
  req.sql = "SELECT g, sum(x) FROM t GROUP BY g";
  req.idempotent = false;
  auto result = service.Execute(req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  MetricsSnapshot snap = service.metrics().Snapshot();
  EXPECT_EQ(snap.counter("sudaf.service.retries"), 0);
  EXPECT_EQ(snap.counter("sudaf.service.failed"), 1);
}

TEST_F(ServiceTest, DefiniteOutcomesFailFastWithoutRetry) {
  QueryService service(session_.get());
  auto result = service.Execute("not sql at all", ExecMode::kSudafShare);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(service.metrics().Snapshot().counter("sudaf.service.retries"), 0);
}

TEST_F(ServiceTest, GuardDeadlineIsHonoredThroughTheService) {
  QueryService service(session_.get());
  QueryGuard guard;
  guard.ArmDeadline(0.0);  // already expired
  ServiceRequest req;
  req.sql = "SELECT g, sum(x) FROM t GROUP BY g";
  req.guard = &guard;
  auto result = service.Execute(req);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // A definite outcome: no retries were attempted.
  EXPECT_EQ(service.metrics().Snapshot().counter("sudaf.service.retries"), 0);
}

// Distinct signatures so every request plants fresh cache state (and so
// journals a WAL append while persistence is attached).
static std::string DistinctQuery(int i) {
  return "SELECT g, sum(x) FROM t WHERE x > 0." + std::to_string(i % 9) +
         std::to_string(i / 9 % 10) + " GROUP BY g";
}

TEST_F(ServiceTest, BreakerOpensOnWalFaultsThenRecovers) {
  EnablePersistence();
  ServiceOptions opts;
  opts.breaker.open_after_errors = 3;
  opts.breaker.half_open_after = 2;
  QueryService service(session_.get(), opts);

  // Every WAL append fails (the disk "went bad"). Queries still succeed —
  // durability degrades, answers don't.
  FailPoint::Activate("cache:wal_append", Status::Internal("disk fault"),
                      /*skip=*/0, /*count=*/1 << 20);
  int i = 0;
  for (; i < 3; ++i) {
    auto r = service.Execute(DistinctQuery(i), ExecMode::kSudafShare);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(service.breaker_state(), QueryService::BreakerState::kOpen);
  EXPECT_TRUE(session_->cache_persistence_suspended());
  EXPECT_EQ(service.metrics().Snapshot().counter(
                "sudaf.service.breaker_opened"), 1);

  // While open the cache is memory-only and requests say so.
  auto degraded = service.Execute(DistinctQuery(i++), ExecMode::kSudafShare);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->stats.degraded_cache_memory_only);

  // The disk heals; after the open window the half-open probe re-publishes
  // a snapshot and closes the breaker.
  FailPoint::Reset();
  for (int j = 0; j < 3 && service.breaker_state() !=
                               QueryService::BreakerState::kClosed; ++j) {
    auto r = service.Execute(DistinctQuery(i++), ExecMode::kSudafShare);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(service.breaker_state(), QueryService::BreakerState::kClosed);
  EXPECT_FALSE(session_->cache_persistence_suspended());
  ASSERT_NE(session_->cache_persistence(), nullptr);
  MetricsSnapshot snap = service.metrics().Snapshot();
  EXPECT_EQ(snap.counter("sudaf.service.breaker_closed"), 1);
  EXPECT_GE(snap.counter("sudaf.service.breaker_probes"), 1);

  // The resumed store snapshotted current memory: a cold session recovers
  // the cache contents written after the breaker closed.
  session_->DisableCachePersistence();
  StateCache cold;
  ASSERT_OK_AND_ASSIGN(auto reopened,
                       CachePersistence::Open(dir_, &catalog_, &cold));
  EXPECT_GT(cold.num_entries(), 0);
}

// A fault on every fused morsel has no second execution path to fall back
// to: the request is retried up to retry.max_attempts and then fails
// definitely. Once the fault clears, the very next request succeeds.
TEST_F(ServiceTest, PersistentFusedFaultFailsThenRecovers) {
  ServiceOptions opts;
  opts.retry.max_attempts = 3;
  QueryService service(session_.get(), opts);

  FailPoint::Activate("state_batch:morsel", Status::Internal("fused fault"),
                      /*skip=*/0, /*count=*/1 << 20);
  const std::string sql = "SELECT g, sum(x) FROM t GROUP BY g";
  auto failed = service.Execute(sql, ExecMode::kSudafShare);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(FailPoint::Hits("state_batch:morsel"), opts.retry.max_attempts);
  MetricsSnapshot snap = service.metrics().Snapshot();
  EXPECT_EQ(snap.counter("sudaf.service.retries"), opts.retry.max_attempts - 1);
  EXPECT_EQ(snap.counter("sudaf.service.failed"), 1);

  FailPoint::Reset();
  auto recovered = service.Execute(sql, ExecMode::kSudafShare);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->stats.service_attempts, 1);
}

TEST_F(ServiceTest, MemoryPressureShrinksTheCacheBudgetOnline) {
  SessionOptions session_opts;
  session_opts.cache_policy.max_bytes = 1 << 20;
  session_ = std::make_unique<SudafSession>(&catalog_, session_opts);
  ServiceOptions opts;
  opts.cache_min_bytes = 256 * 1024;
  QueryService service(session_.get(), opts);

  service.SignalMemoryPressure();
  EXPECT_EQ(session_->options().cache_policy.max_bytes, 512 * 1024);
  service.SignalMemoryPressure();
  EXPECT_EQ(session_->options().cache_policy.max_bytes, 256 * 1024);
  // Floored: further pressure cannot shrink below the minimum.
  service.SignalMemoryPressure();
  EXPECT_EQ(session_->options().cache_policy.max_bytes, 256 * 1024);
  EXPECT_EQ(service.metrics().Snapshot().counter(
                "sudaf.service.cache_shrinks"), 3);
}

// ---------------------------------------------------------------------------
// Attempt-path parity: each way a request reaches the session pins its
// exact service counters and ExecStats::service_attempts.
// ---------------------------------------------------------------------------

struct ServiceCounts {
  int64_t requests = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t retries = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t queue_cancelled = 0;
  int64_t solo = 0;
  int64_t coalesced = 0;
};

static void ExpectCounts(const QueryService& service,
                         const ServiceCounts& want) {
  MetricsSnapshot snap = service.metrics().Snapshot();
  EXPECT_EQ(snap.counter("sudaf.service.requests"), want.requests);
  EXPECT_EQ(snap.counter("sudaf.service.admitted"), want.admitted);
  EXPECT_EQ(snap.counter("sudaf.service.shed"), want.shed);
  EXPECT_EQ(snap.counter("sudaf.service.retries"), want.retries);
  EXPECT_EQ(snap.counter("sudaf.service.ok"), want.ok);
  EXPECT_EQ(snap.counter("sudaf.service.failed"), want.failed);
  EXPECT_EQ(snap.counter("sudaf.service.queue_cancelled"),
            want.queue_cancelled);
  EXPECT_EQ(snap.counter("sudaf.batch.solo"), want.solo);
  EXPECT_EQ(snap.counter("sudaf.batch.coalesced"), want.coalesced);
}

TEST_F(ServiceTest, ExecOverrideRequestRetriesOnceAfterATransientFault) {
  QueryService service(session_.get());
  FailPoint::Activate("cache:insert", Status::Internal("injected"));
  ServiceRequest req;
  req.sql = "SELECT g, sum(x) FROM t GROUP BY g";
  req.exec = session_->exec_options();  // never batched
  auto result = service.Execute(req);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.service_attempts, 2);
  ExpectCounts(service, {.requests = 1, .admitted = 2, .retries = 1,
                         .ok = 1, .solo = 2});
}

TEST_F(ServiceTest, BatchableSingletonRetriesOnceAfterATransientFault) {
  QueryService service(session_.get());  // batching window on
  FailPoint::Activate("cache:insert", Status::Internal("injected"));
  auto result =
      service.Execute("SELECT g, sum(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.service_attempts, 2);
  ExpectCounts(service, {.requests = 1, .admitted = 2, .retries = 1,
                         .ok = 1, .solo = 2});
}

TEST_F(ServiceTest, FaultedWindowGroupRetriesEachMemberSolo) {
  ServiceOptions opts;
  opts.batch_window_ms = 60.0;
  opts.batch_max_queries = 2;  // the second Submit fills the window
  QueryService service(session_.get(), opts);
  QueryTicket a =
      service.Submit("SELECT g, sum(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  QueryTicket b =
      service.Submit("SELECT g, avg(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  // One fault in the shared pass fails both members; each retries solo.
  FailPoint::Activate("state_batch:morsel", Status::Internal("injected"));
  auto ra = a.Wait();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  auto rb = b.Wait();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(ra->stats.service_attempts, 2);
  EXPECT_EQ(rb->stats.service_attempts, 2);
  ExpectCounts(service, {.requests = 2, .admitted = 4, .retries = 2,
                         .ok = 2, .solo = 2, .coalesced = 2});
}

TEST_F(ServiceTest, UnbatchableTicketCancelledBeforeWaitNeverRuns) {
  QueryService service(session_.get());
  ServiceRequest req;
  req.sql = "SELECT g, sum(x) FROM t GROUP BY g";
  req.exec = session_->exec_options();
  QueryTicket ticket = service.Submit(req);
  ticket.Cancel();
  auto result = ticket.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  ExpectCounts(service, {.requests = 1, .failed = 1, .queue_cancelled = 1});
}

TEST_F(ServiceTest, ExplainAnalyzeAndEngineRequestsRunSoloOnce) {
  QueryService service(session_.get());
  auto explain = service.Execute(
      "EXPLAIN ANALYZE SELECT g, var(x) FROM t GROUP BY g",
      ExecMode::kSudafShare);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_EQ(explain->stats.service_attempts, 1);
  auto engine =
      service.Execute("SELECT g, sum(x) FROM t GROUP BY g", ExecMode::kEngine);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(engine->stats.service_attempts, 1);
  ExpectCounts(service, {.requests = 2, .admitted = 2, .ok = 2, .solo = 2});
}

// A hardcoded UDAF whose Evaluate blocks until the test opens the gate, so
// a kEngine query over it holds its admission slot for as long as the test
// needs a queue behind it.
class GateUdaf : public Udaf {
 public:
  GateUdaf(std::atomic<bool>* entered, std::atomic<bool>* open)
      : entered_(entered), open_(open) {}
  std::string name() const override { return "gate"; }
  int num_args() const override { return 1; }
  std::vector<Value> Initialize() const override { return {Value(0.0)}; }
  void Update(std::vector<Value>*, const std::vector<Value>&) const override {}
  void Merge(std::vector<Value>*, const std::vector<Value>&) const override {}
  Result<Value> Evaluate(const std::vector<Value>&) const override {
    entered_->store(true);
    while (!open_->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Value(0.0);
  }

 private:
  std::atomic<bool>* entered_;
  std::atomic<bool>* open_;
};

// Holds the service's only admission slot until Open().
class SlotHolder {
 public:
  SlotHolder(SudafSession* session, QueryService* service) {
    EXPECT_OK(session->hardcoded().Register(
        std::make_unique<GateUdaf>(&entered_, &open_)));
    thread_ = std::thread([this, service] {
      auto r = service->Execute("SELECT gate(x) FROM t", ExecMode::kEngine);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      entered_.store(true);  // the constructor never waits on a failed run
    });
    while (!entered_.load()) std::this_thread::yield();
  }
  SlotHolder(const SlotHolder&) = delete;
  SlotHolder& operator=(const SlotHolder&) = delete;
  ~SlotHolder() { Open(); }
  void Open() {
    open_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> entered_{false};
  std::atomic<bool> open_{false};
  std::thread thread_;
};

// Polls `done` for up to 10 s; false when it never held.
static bool WaitUntil(const std::function<bool()>& done) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// A window group that member drops cut to one while it queues for
// admission runs and counts as solo.
TEST_F(ServiceTest, GroupCutToOneWhileQueuedRunsSolo) {
  ServiceOptions opts;
  opts.max_concurrency = 1;
  opts.batch_window_ms = 60.0;
  opts.batch_max_queries = 2;
  QueryService service(session_.get(), opts);
  SlotHolder holder(session_.get(), &service);

  QueryTicket a =
      service.Submit("SELECT g, sum(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  QueryTicket b =
      service.Submit("SELECT g, avg(x) FROM t GROUP BY g", ExecMode::kSudafShare);
  Result<QueryResult> ra = Status::Internal("not run");
  std::thread waiter([&] { ra = a.Wait(); });  // leads the {a, b} group
  EXPECT_TRUE(WaitUntil([&] {
    return service.metrics().Snapshot().gauge("sudaf.service.queue_depth") ==
           1;
  }));
  b.Cancel();
  EXPECT_TRUE(WaitUntil([&] {
    return service.metrics().Snapshot().counter(
               "sudaf.service.queue_cancelled") == 1;
  }));
  holder.Open();
  waiter.join();

  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  EXPECT_EQ(ra->stats.service_attempts, 1);
  auto rb = b.Wait();
  EXPECT_EQ(rb.status().code(), StatusCode::kCancelled);
  ExpectCounts(service, {.requests = 3, .admitted = 2, .ok = 2, .failed = 1,
                         .queue_cancelled = 1, .solo = 2});
  MetricsSnapshot snap = service.metrics().Snapshot();
  EXPECT_EQ(snap.counter("sudaf.batch.groups"), 0);
  EXPECT_EQ(snap.histograms.count("sudaf.batch.group_size"), 0u);
}

// A queued solo ticket honors Cancel() even when its caller supplied the
// guard (which carries no ticket cancel token).
TEST_F(ServiceTest, QueuedSoloTicketWithCallerGuardHonorsCancel) {
  ServiceOptions opts;
  opts.max_concurrency = 1;
  QueryService service(session_.get(), opts);
  SlotHolder holder(session_.get(), &service);

  QueryGuard guard;
  ServiceRequest req;
  req.sql = "SELECT g, sum(x) FROM t GROUP BY g";
  req.guard = &guard;
  req.exec = session_->exec_options();  // unbatchable: straight to admission
  QueryTicket ticket = service.Submit(req);
  std::atomic<bool> done{false};
  Result<QueryResult> result = Status::Internal("not run");
  std::thread waiter([&] {
    result = ticket.Wait();
    done.store(true);
  });
  EXPECT_TRUE(WaitUntil([&] {
    return service.metrics().Snapshot().gauge("sudaf.service.queue_depth") ==
           1;
  }));
  ticket.Cancel();
  // The slot is still held: only the cancellation can end the wait.
  const bool ended_while_queued = WaitUntil([&] { return done.load(); });
  holder.Open();
  waiter.join();

  EXPECT_TRUE(ended_while_queued);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  ExpectCounts(service, {.requests = 2, .admitted = 1, .ok = 1, .failed = 1,
                         .queue_cancelled = 1, .solo = 1});
}

// ---------------------------------------------------------------------------
// Chaos acceptance harness: N clients × M queries with a chaos thread
// cycling failpoint configurations under the service. Every request must
// end in a definite Status; every OK answer must be bitwise identical to a
// serial cold run; the service counters must reconcile exactly.
// ---------------------------------------------------------------------------

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoint::Reset();
    std::vector<int64_t> g;
    std::vector<double> x;
    std::vector<double> y;
    Rng rng(777);
    for (int i = 0; i < 300; ++i) {
      g.push_back(static_cast<int64_t>(rng.NextBelow(11)));
      x.push_back(rng.NextDoubleIn(0.5, 9.5));
      y.push_back(rng.NextDoubleIn(-2.0, 2.0));
    }
    catalog_.PutTable("t", testing_util::MakeXyTable(g, x, y));
  }
  void TearDown() override { FailPoint::Reset(); }

  // Aggregates whose states AND terminators are bitwise identical between
  // the fused and legacy paths, so a mid-run fused fallback cannot perturb
  // answers (asserted below, not assumed).
  static std::vector<std::string> Queries() {
    return {
        "SELECT g, count(x), sum(x) FROM t GROUP BY g",
        "SELECT g, min(x), max(x) FROM t GROUP BY g",
        "SELECT g, sum(x*y) FROM t GROUP BY g",
        "SELECT g, sum(y), count(y) FROM t WHERE x > 3.0 GROUP BY g",
        "SELECT g, avg(x) FROM t GROUP BY g",
    };
  }

  // Bit-exact digest: chaos must never change answers, only availability.
  static std::string Fingerprint(const Table& t) {
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

  Catalog catalog_;
};

TEST_F(ChaosTest, ClientsUnderCyclingFaultsGetDefiniteBitIdenticalAnswers) {
  const std::vector<std::string> queries = Queries();

  // Serial cold references.
  std::vector<std::string> want(queries.size());
  {
    SudafSession ref(&catalog_);
    for (size_t q = 0; q < queries.size(); ++q) {
      auto f = ref.Execute(queries[q], ExecMode::kSudafShare);
      ASSERT_TRUE(f.ok()) << queries[q];
      want[q] = Fingerprint(**f);
    }
  }

  SudafSession session(&catalog_);
  ServiceOptions opts;
  opts.max_concurrency = 2;
  opts.max_queue = 2;  // small: shedding + retry actually exercised
  opts.retry.max_attempts = 4;
  QueryService service(&session, opts);

  constexpr int kClients = 8;
  constexpr int kQueriesPerClient = 10;

  // Chaos thread: cycle fault configurations while clients run. Specs are
  // the SUDAF_FAILPOINTS grammar (docs/service.md); "" is a quiet phase.
  std::atomic<bool> stop{false};
  std::thread chaos([&] {
    const std::vector<const char*> specs = {
        "cache:insert",                     // one insert fault
        "",                                 // quiet
        "cache:wal_append=count",           // persistent WAL faults
        "state_batch:morsel=skip:3",        // one fused morsel fault
        "",                                 // quiet
        "cache:probe=skip:1:count:2",       // two probe faults
    };
    size_t next = 0;
    while (!stop.load()) {
      ASSERT_OK(FailPoint::ReArm(specs[next++ % specs.size()]).status());
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    FailPoint::Reset();
  });

  struct Outcome {
    StatusCode code;
    size_t query;
    std::string fingerprint;
  };
  std::vector<std::vector<Outcome>> outcomes(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kQueriesPerClient; ++i) {
        size_t q = (c + i) % queries.size();
        auto result = service.Execute(queries[q], ExecMode::kSudafShare);
        Outcome o;
        o.query = q;
        o.code = result.ok() ? StatusCode::kOk : result.status().code();
        if (result.ok()) o.fingerprint = Fingerprint(**result);
        outcomes[c].push_back(o);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  chaos.join();

  // 1) Every request ended in a definite outcome, and OK answers are
  //    bitwise identical to the serial cold run.
  int64_t ok = 0;
  int64_t failed = 0;
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(outcomes[c].size(), static_cast<size_t>(kQueriesPerClient));
    for (const Outcome& o : outcomes[c]) {
      if (o.code == StatusCode::kOk) {
        ++ok;
        EXPECT_EQ(o.fingerprint, want[o.query])
            << "chaos changed an answer for: " << queries[o.query];
      } else {
        ++failed;
        // Failures are typed, not arbitrary: only the injected transient
        // class (retry-exhausted) or shedding can surface.
        EXPECT_TRUE(o.code == StatusCode::kInternal ||
                    o.code == StatusCode::kResourceExhausted)
            << static_cast<int>(o.code);
      }
    }
  }

  // 2) Counters reconcile exactly.
  MetricsSnapshot snap = service.metrics().Snapshot();
  EXPECT_EQ(snap.counter("sudaf.service.requests"),
            kClients * kQueriesPerClient);
  EXPECT_EQ(snap.counter("sudaf.service.ok"), ok);
  EXPECT_EQ(snap.counter("sudaf.service.failed"), failed);
  EXPECT_EQ(ok + failed, kClients * kQueriesPerClient);
  // Every attempt made exactly one admission call, and every admission
  // call ended admitted, shed, or resolved by the guard.
  EXPECT_EQ(snap.counter("sudaf.service.admitted") +
                snap.counter("sudaf.service.shed") +
                snap.counter("sudaf.service.queue_timeouts") +
                snap.counter("sudaf.service.queue_cancelled"),
            snap.counter("sudaf.service.requests") +
                snap.counter("sudaf.service.retries"));
  // Nothing is left in flight or queued.
  EXPECT_EQ(snap.gauge("sudaf.service.inflight"), 0);

  // 3) The session survived: a post-chaos query on the same session is
  //    clean and correct.
  auto after = service.Execute(queries[0], ExecMode::kSudafShare);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(Fingerprint(**after), want[0]);
}

// Chaos shard for the batch path: a wide window and burst-submitting
// clients force real shared-scan groups while the failpoint cycle runs
// through the fused pass, the cache probe, and the cache insert — every
// fault a group can hit. Group faults degrade members to solo retries;
// nothing may produce a wrong answer or an untyped failure.
TEST_F(ChaosTest, BatchedSubmissionUnderCyclingFaultsStaysBitIdentical) {
  const std::vector<std::string> queries = Queries();

  std::vector<std::string> want(queries.size());
  {
    SudafSession ref(&catalog_);
    for (size_t q = 0; q < queries.size(); ++q) {
      auto r = ref.Execute(queries[q], ExecMode::kSudafShare);
      ASSERT_TRUE(r.ok()) << queries[q];
      want[q] = Fingerprint(**r);
    }
  }

  SudafSession session(&catalog_);
  ServiceOptions opts;
  opts.batch_window_ms = 4.0;   // wide: bursts land in one window
  opts.batch_max_queries = 6;
  opts.retry.max_attempts = 4;
  QueryService service(&session, opts);

  std::atomic<bool> stop{false};
  std::thread chaos([&] {
    const std::vector<const char*> specs = {
        "state_batch:morsel=skip:2",   // fault inside the fused group pass
        "",                            // quiet
        "cache:probe=skip:1:count:2",  // group leader's probe faults
        "cache:insert",                // one shared-representative insert
        "",                            // quiet
    };
    size_t next = 0;
    while (!stop.load()) {
      ASSERT_OK(FailPoint::ReArm(specs[next++ % specs.size()]).status());
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    FailPoint::Reset();
  });

  constexpr int kClients = 6;
  constexpr int kQueriesPerClient = 8;
  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> failed{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kQueriesPerClient; ++i) {
        size_t q = (c + i) % queries.size();
        // Submit-then-wait (not Execute): the ticket sits in the window
        // while sibling clients pile in, so groups actually form.
        QueryTicket ticket =
            service.Submit(queries[q], ExecMode::kSudafShare);
        auto result = ticket.Wait();
        if (result.ok()) {
          ok.fetch_add(1);
          if (Fingerprint(**result) != want[q]) wrong.fetch_add(1);
        } else {
          failed.fetch_add(1);
          StatusCode code = result.status().code();
          EXPECT_TRUE(code == StatusCode::kInternal ||
                      code == StatusCode::kResourceExhausted)
              << result.status().ToString();
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  chaos.join();

  EXPECT_EQ(wrong.load(), 0) << "chaos changed a batched answer";
  EXPECT_EQ(ok.load() + failed.load(), kClients * kQueriesPerClient);

  MetricsSnapshot snap = service.metrics().Snapshot();
  EXPECT_EQ(snap.counter("sudaf.service.requests"),
            kClients * kQueriesPerClient);
  EXPECT_EQ(snap.counter("sudaf.service.ok"), ok.load());
  EXPECT_EQ(snap.counter("sudaf.service.failed"), failed.load());
  // Admission identity still balances with group admission in the mix.
  EXPECT_EQ(snap.counter("sudaf.service.admitted") +
                snap.counter("sudaf.service.shed") +
                snap.counter("sudaf.service.queue_timeouts") +
                snap.counter("sudaf.service.queue_cancelled"),
            snap.counter("sudaf.service.requests") +
                snap.counter("sudaf.service.retries"));
  // Batch identity: every admitted execution was coalesced or solo.
  EXPECT_EQ(snap.counter("sudaf.batch.coalesced") +
                snap.counter("sudaf.batch.solo"),
            snap.counter("sudaf.service.admitted"));
  EXPECT_EQ(snap.gauge("sudaf.service.inflight"), 0);
}

}  // namespace
}  // namespace sudaf
