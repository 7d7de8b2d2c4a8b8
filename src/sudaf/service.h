#ifndef SUDAF_SUDAF_SERVICE_H_
#define SUDAF_SUDAF_SERVICE_H_

// Concurrent query service (docs/service.md): the front door for driving
// one SudafSession from many client threads under load and faults.
//
// The entry point is an async submit API: Submit() enqueues a request and
// returns a QueryTicket immediately; Wait()/TryGet() deliver the
// Result<QueryResult>; Cancel() abandons it. Execute() is literally
// Submit().Wait(). Tickets make the service's fifth mechanism possible:
//
//   * Shared-scan batching — requests submitted within a small window
//     (ServiceOptions::batch_window_ms / batch_max_queries) whose
//     statements read the same data (same tables, filter and grouping —
//     the cache's DataSignature) are fused into ONE pass over the data:
//     their rewritten states are deduplicated across queries via their
//     equivalence-class representatives (a variance query and a kurtosis
//     query compute count/sum/sum(x^2) once), one input scan feeds one
//     fused morsel pass over the union state DAG, and per-query results,
//     stats and traces are fanned back. Answers are bit-identical to solo
//     execution at any batch size and thread count; a group-level fault
//     degrades every member to the solo path via the normal retry loop.
//     Accounted under sudaf.batch.* with the invariant
//     `coalesced + solo == admitted`.
//
// On top of that, the service layers four robustness mechanisms over the
// (itself thread-safe) session:
//
//   * Admission control — at most `max_concurrency` requests execute at
//     once; up to `max_queue` more wait in FIFO order. Excess load is shed
//     immediately with kResourceExhausted. A queued request keeps honoring
//     its QueryGuard: an armed deadline or a cancel token fires *while
//     queued* (kDeadlineExceeded / kCancelled) instead of after the wait.
//
//   * Retries — transient failures (admission shedding, injected/transient
//     I/O faults surfacing as kInternal) are retried with capped
//     exponential backoff and deterministic, seed-derived jitter.
//     Non-idempotent requests never retry executed work, and definite
//     outcomes (kCancelled, kDeadlineExceeded, kInvalidArgument, ...)
//     never retry at all.
//
//   * Persistence circuit breaker — consecutive requests that grow the
//     WAL error counter trip the breaker: the store is suspended (cache
//     runs memory-only, queries keep their answers) until a half-open
//     probe successfully re-publishes a snapshot, which closes it again.
//
//   * Graceful degradation — memory-pressure signals shrink the cache
//     budget online.
//
// Degradation is surfaced, not hidden: ExecStats::service_attempts and
// degraded_cache_memory_only are filled in on every result, and every
// decision is counted under sudaf.service.* in the service's own metrics
// registry.
//
// Thread safety: every public method of QueryService and
// AdmissionController is safe for concurrent callers.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/query_guard.h"
#include "common/status.h"
#include "sudaf/session.h"

namespace sudaf {

// Retry schedule: attempt n (1-based) failing transiently sleeps
//  min(base_backoff_ms * 2^(n-1), max_backoff_ms) * U where U ∈ [0.5, 1)
// with U drawn from a SplitMix64 stream seeded by
// (a fixed seed ^ request_id ^ attempt) — deterministic per (request,
// attempt), uncorrelated across requests, so a load spike that sheds many
// requests at once does not retry them in lockstep.
struct RetryPolicy {
  int max_attempts = 3;          // total tries, including the first
  double base_backoff_ms = 1.0;  // first retry's backoff cap
  double max_backoff_ms = 64.0;  // exponential growth cap

  // True when `s` may be retried. Admission shedding (kResourceExhausted)
  // is always retryable — nothing executed. kInternal (the code transient
  // I/O faults and injected failpoints surface as) is retryable only for
  // idempotent requests: the failed attempt may have had side effects
  // (cache inserts, WAL appends) that a re-run would repeat.
  bool ShouldRetry(const Status& s, bool idempotent, bool work_started) const;

  // Deterministic backoff for the given attempt (1-based: the sleep taken
  // after attempt `attempt` failed).
  double BackoffMs(uint64_t request_id, int attempt) const;
};

// Persistence circuit breaker thresholds (state machine in docs/service.md).
struct BreakerPolicy {
  // Consecutive requests observing new WAL errors before opening.
  int open_after_errors = 3;
  // Requests served while open before moving to half-open and probing.
  int half_open_after = 8;
};

struct ServiceOptions {
  int max_concurrency = 4;
  int max_queue = 16;
  RetryPolicy retry;
  BreakerPolicy breaker;
  // Memory-pressure degradation: each SignalMemoryPressure (or execution
  // failing with kResourceExhausted) halves the cache budget, never below
  // `cache_min_bytes`.
  int64_t cache_min_bytes = 64 * 1024;
  // Shared-scan batching window: a batchable Submit waits up to
  // `batch_window_ms` (or until `batch_max_queries` are pending) for
  // same-signature companions before running. Set batch_window_ms <= 0 or
  // batch_max_queries <= 1 to disable batching (every request runs solo).
  double batch_window_ms = 2.0;
  int batch_max_queries = 8;
};

// One request to QueryService::Submit / Execute.
struct ServiceRequest {
  std::string sql;
  ExecMode mode = ExecMode::kSudafShare;
  // Borrowed; may be null. Honored while queued AND during execution (the
  // service injects it into ExecOptions::guard). When null the service
  // installs a ticket-owned guard so QueryTicket::Cancel() can interrupt
  // the request mid-run.
  QueryGuard* guard = nullptr;
  // Set false for requests whose re-execution is not safe (e.g. the SQL's
  // side channel matters); such requests never retry executed work.
  bool idempotent = true;
  // Marks a cache-warming request (counted under
  // sudaf.service.prefetches); admission, shedding, retries and batching
  // treat it exactly like a query.
  bool is_prefetch = false;
  // Per-request execution options override (guard is injected on top).
  // Requests carrying an override never join a shared-scan batch.
  std::optional<ExecOptions> exec;
};

struct TicketState;  // private to service.cc

// Future-like handle for one submitted request. Copyable; all copies refer
// to the same submission. The result is delivered exactly once: the first
// Wait()/TryGet() that observes completion consumes it.
//
// Execution is driven by waiters (the service spawns no threads): a
// batchable ticket rides the batching window and is run either by its own
// Wait() or by whichever waiter claims the window; a never-awaited ticket
// may not run until the service is destroyed (which fails it with
// kCancelled). Tickets must not outlive their QueryService.
class QueryTicket {
 public:
  QueryTicket() = default;

  bool valid() const { return state_ != nullptr; }
  uint64_t id() const;

  // Blocks until the request finishes (driving it if needed) and returns
  // its result. A second Wait() after the result was consumed returns
  // kInvalidArgument.
  Result<QueryResult> Wait();

  // Non-blocking: returns true and moves the result into *out iff the
  // request already finished and the result is unconsumed. Never drives
  // execution.
  bool TryGet(Result<QueryResult>* out);

  // Best-effort cancellation: a ticket still in the batching window or
  // waiting for admission is dropped before it runs (kCancelled, counted
  // under sudaf.service.queue_cancelled); a running request is
  // interrupted at the next guard check when the service installed its
  // own guard, or at the next phase boundary otherwise. Completed tickets
  // are unaffected.
  void Cancel();

 private:
  friend class QueryService;
  explicit QueryTicket(std::shared_ptr<TicketState> state);

  std::shared_ptr<TicketState> state_;
};

// Bounded-concurrency FIFO admission gate. Standalone so tests can drive
// queue/deadline/cancel interleavings directly.
class AdmissionController {
 public:
  // `metrics` is borrowed (may be null) and receives the sudaf.service.*
  // admission counters; it must outlive the controller.
  AdmissionController(int max_concurrency, int max_queue,
                      MetricsRegistry* metrics);

  // Blocks until a slot is granted (OK — caller must later Release()), the
  // queue is full at arrival (kResourceExhausted, immediate), or `poll`
  // abandons the wait. FIFO: slots are granted strictly in arrival order.
  // While queued, `poll` runs at every wakeup without the controller lock;
  // *sleep_ms starts at `poll_ms` and the poll may lower it to wake
  // sooner. A non-OK return abandons the wait with that status verbatim
  // and is not counted here — the caller accounts it.
  Status AdmitPoll(const std::function<Status(double* sleep_ms)>& poll,
                   double poll_ms);

  // AdmitPoll whose poll checks `guard` (may be null): a guard firing
  // while queued returns its kDeadlineExceeded/kCancelled verbatim,
  // counted under queue_timeouts/queue_cancelled.
  Status Admit(const QueryGuard* guard, double poll_ms);

  void Release();

  int inflight() const;
  int queue_depth() const;

 private:
  const int max_concurrency_;
  const int max_queue_;
  MetricsRegistry* metrics_;  // null-safe via Count() / SetGauge()
  void Count(const char* name) const;
  void SetGauge(const char* name, int64_t value) const;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  int inflight_ = 0;
  uint64_t next_ticket_ = 0;
  std::deque<uint64_t> fifo_;  // waiting tickets, arrival order
};

class QueryService {
 public:
  // `session` is borrowed and must outlive the service. The session should
  // not be reconfigured behind the service's back while requests are in
  // flight (the breaker owns persistence suspension).
  explicit QueryService(SudafSession* session, ServiceOptions options = {});

  // Fails every ticket still waiting in the batching window with
  // kCancelled. Callers must have joined their own waiters first.
  ~QueryService();

  // Async submission: counts the request, decides batchability (kEngine
  // mode, per-request exec overrides, EXPLAIN [ANALYZE], unparsable SQL
  // and disabled batching all run solo) and returns immediately. Batchable
  // requests enter the current batching window.
  QueryTicket Submit(const ServiceRequest& request);
  QueryTicket Submit(const std::string& sql, ExecMode mode);

  // Synchronous convenience — exactly Submit(request).Wait().
  Result<QueryResult> Execute(const ServiceRequest& request);
  Result<QueryResult> Execute(const std::string& sql, ExecMode mode);

  // Cache warming through the full service path: admission, shedding,
  // retries and batching all apply, and the request is additionally
  // counted under sudaf.service.prefetches. Prefetch() blocks and discards
  // the rows; SubmitPrefetch() returns the ticket (await or abandon it).
  Status Prefetch(const std::string& sql);
  QueryTicket SubmitPrefetch(const std::string& sql);

  // Halves the cache byte budget (floored at cache_min_bytes), evicting
  // immediately. Also invoked internally when an execution fails with
  // kResourceExhausted.
  void SignalMemoryPressure();

  enum class BreakerState { kClosed, kOpen, kHalfOpen };
  BreakerState breaker_state() const;

  // Service-lifetime registry: sudaf.service.* counters/gauges plus the
  // queue-wait histogram. Distinct from the session's registry.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  const ServiceOptions& options() const { return options_; }
  SudafSession* session() { return session_; }

 private:
  friend class QueryTicket;

  // Post-execution bookkeeping, called once per admitted attempt.
  void UpdateBreaker();

  // Waiter-driven execution: blocks until `st` finishes, claiming and
  // forming the batching window when its deadline passes on this waiter's
  // watch, and returns the (consumed-once) result.
  Result<QueryResult> Drive(const std::shared_ptr<TicketState>& st);

  // Leader path: prune cancelled/expired tickets out of a claimed window
  // (dropped members never reach a group), group the remainder by (mode,
  // data signature), hand singletons back to their waiters and run every
  // >= 2 group as one attempt.
  void FormAndRun(std::vector<std::shared_ptr<TicketState>> claimed);

  // One attempt for 1..n tickets: drop members already cancelled, take one
  // admission slot (pruning members whose liveness fails while queued),
  // run a lone member through SudafSession::Execute and two or more
  // through one SudafSession::ExecuteBatch, release, update the breaker,
  // then finish each member or hand it to RetryOrFail.
  void RunAttempt(std::vector<std::shared_ptr<TicketState>> members);

  // Removes and drops (DropTicket) every member whose `check` is not OK.
  // Returns the last such status (OK when none was dropped).
  Status DropMembers(std::vector<std::shared_ptr<TicketState>>* members,
                     const std::function<Status(const TicketState&)>& check);

  // Shared terminal/retry bookkeeping on tickets. RetryOrFail is the only
  // retry path: it schedules the backoff and hands the ticket back to its
  // waiter (kSoloReady), whose Drive runs the next attempt.
  void RetryOrFail(const std::shared_ptr<TicketState>& st, const Status& s,
                   bool work_started);
  void FinishOk(const std::shared_ptr<TicketState>& st, QueryResult result);
  void FinishError(const std::shared_ptr<TicketState>& st, const Status& s);
  // FinishError for a ticket that never ran, counted as queue_cancelled /
  // queue_timeouts (its admission unit).
  void DropTicket(const std::shared_ptr<TicketState>& st, const Status& s);

  SudafSession* session_;
  ServiceOptions options_;
  MetricsRegistry metrics_;
  AdmissionController admission_;

  std::atomic<uint64_t> request_seq_{0};

  // Batching window (guarded by batch_mu_; lock order: batch_mu_ before
  // any TicketState::mu).
  std::mutex batch_mu_;
  std::condition_variable batch_cv_;
  std::vector<std::shared_ptr<TicketState>> window_;
  double window_opened_ms_ = 0;
  bool shutdown_ = false;

  // Breaker state (guarded by breaker_mu_; lock order: breaker_mu_ before
  // any session persistence call).
  mutable std::mutex breaker_mu_;
  BreakerState breaker_ = BreakerState::kClosed;
  int64_t wal_errors_seen_ = 0;
  int consecutive_wal_error_requests_ = 0;
  int requests_while_open_ = 0;
};

}  // namespace sudaf

#endif  // SUDAF_SUDAF_SERVICE_H_
