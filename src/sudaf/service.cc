#include "sudaf/service.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/timer.h"
#include "sql/statement.h"
#include "sudaf/cache.h"

namespace sudaf {

namespace {

// Cadence at which a queued attempt polls its members' guards (clamped
// further by their remaining deadline budget).
constexpr double kQueuePollMs = 2.0;
// Each memory-pressure signal multiplies the cache budget by this factor.
constexpr double kCacheShrinkFactor = 0.5;
// Seed of the retry backoff jitter stream.
constexpr uint64_t kRetryJitterSeed = 0x5eedcafeULL;

// Shortens a queued waiter's sleep to the guard's remaining deadline
// budget, so a deadline fires promptly even if no slot ever frees.
void ClampSleepToDeadline(const QueryGuard& guard, double* sleep_ms) {
  if (guard.has_deadline()) {
    *sleep_ms = std::min(*sleep_ms, std::max(0.1, guard.remaining_ms()));
  }
}

}  // namespace

// --- RetryPolicy ------------------------------------------------------------

bool RetryPolicy::ShouldRetry(const Status& s, bool idempotent,
                              bool work_started) const {
  switch (s.code()) {
    case StatusCode::kResourceExhausted:
      // Shedding happens before any work; a mid-execution memory trip is
      // also safe to retry after the service shrinks the cache — the
      // executed work is all idempotent cache-side effects — but only for
      // requests that declared themselves idempotent.
      return !work_started || idempotent;
    case StatusCode::kInternal:
    case StatusCode::kNoSpace:
    case StatusCode::kIoError:
    case StatusCode::kFsyncFailed:
      // Transient I/O faults (and the injected failpoints that model
      // them), including the typed storage faults from the Vfs layer —
      // persistence normally absorbs those into the breaker, but one that
      // does surface is worth one more attempt. The attempt may have had
      // partial side effects.
      return idempotent;
    default:
      // Definite outcomes: cancellation, deadline, parse/type errors,
      // missing tables... retrying cannot change them.
      return false;
  }
}

double RetryPolicy::BackoffMs(uint64_t request_id, int attempt) const {
  double cap = base_backoff_ms;
  for (int i = 1; i < attempt && cap < max_backoff_ms; ++i) cap *= 2.0;
  cap = std::min(cap, max_backoff_ms);
  Rng rng(kRetryJitterSeed ^ (request_id * 0x9e3779b97f4a7c15ULL) ^
          static_cast<uint64_t>(attempt));
  return cap * (0.5 + 0.5 * rng.NextDouble());
}

// --- AdmissionController ----------------------------------------------------

AdmissionController::AdmissionController(int max_concurrency, int max_queue,
                                         MetricsRegistry* metrics)
    : max_concurrency_(std::max(1, max_concurrency)),
      max_queue_(std::max(0, max_queue)),
      metrics_(metrics) {}

void AdmissionController::Count(const char* name) const {
  if (metrics_ != nullptr) metrics_->counter(name)->Add();
}

void AdmissionController::SetGauge(const char* name, int64_t value) const {
  if (metrics_ != nullptr) metrics_->gauge(name)->Set(value);
}

Status AdmissionController::Admit(const QueryGuard* guard, double poll_ms) {
  return AdmitPoll(
      [&](double* sleep_ms) -> Status {
        if (guard == nullptr) return Status::OK();
        Status g = guard->Check();
        if (!g.ok()) {
          Count(g.code() == StatusCode::kCancelled
                    ? "sudaf.service.queue_cancelled"
                    : "sudaf.service.queue_timeouts");
          return g;
        }
        ClampSleepToDeadline(*guard, sleep_ms);
        return Status::OK();
      },
      poll_ms);
}

Status AdmissionController::AdmitPoll(
    const std::function<Status(double* sleep_ms)>& poll, double poll_ms) {
  const double wait_start = NowMs();
  std::unique_lock<std::mutex> lock(mu_);
  // Fast path: a free slot and nobody queued ahead of us.
  if (inflight_ >= max_concurrency_ || !fifo_.empty()) {
    if (static_cast<int>(fifo_.size()) >= max_queue_) {
      Count("sudaf.service.shed");
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(fifo_.size()) +
          " waiting, " + std::to_string(inflight_) + " in flight)");
    }
    const uint64_t ticket = next_ticket_++;
    fifo_.push_back(ticket);
    SetGauge("sudaf.service.queue_depth", static_cast<int64_t>(fifo_.size()));
    // Our ticket stays in fifo_ until this call removes it.
    auto granted = [&] {
      return fifo_.front() == ticket && inflight_ < max_concurrency_;
    };
    while (!granted()) {
      // Run the poll without the controller lock: the service's poll
      // finishes pruned tickets, which takes their locks.
      double sleep_ms = poll_ms > 0 ? poll_ms : kQueuePollMs;
      lock.unlock();
      Status s = poll(&sleep_ms);
      lock.lock();
      if (!s.ok()) {
        // Abandon our ticket so later arrivals aren't blocked behind it.
        fifo_.erase(std::find(fifo_.begin(), fifo_.end(), ticket));
        SetGauge("sudaf.service.queue_depth",
              static_cast<int64_t>(fifo_.size()));
        cv_.notify_all();
        return s;
      }
      // Sleep until our turn comes or the next poll is due. The predicate
      // catches a Release that happened while the poll ran unlocked.
      cv_.wait_for(lock, std::chrono::duration<double, std::milli>(sleep_ms),
                   granted);
    }
    fifo_.pop_front();
    SetGauge("sudaf.service.queue_depth", static_cast<int64_t>(fifo_.size()));
    if (metrics_ != nullptr) {
      metrics_->histogram("sudaf.service.queue_wait_ms")
          ->Observe(NowMs() - wait_start);
    }
    // Wake the next waiter behind us (a slot may still be free).
    cv_.notify_all();
  }
  ++inflight_;
  Count("sudaf.service.admitted");
  SetGauge("sudaf.service.inflight", inflight_);
  return Status::OK();
}

void AdmissionController::Release() {
  std::lock_guard<std::mutex> lock(mu_);
  --inflight_;
  SetGauge("sudaf.service.inflight", inflight_);
  cv_.notify_all();
}

int AdmissionController::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

int AdmissionController::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(fifo_.size());
}

// --- TicketState / QueryTicket ----------------------------------------------

// All of one submission's mutable state. Stage transitions:
//
//   kPending (in the batching window)
//       -> kClaimed   (a window leader owns it)
//       -> kSoloReady (runnable by any waiter: unbatchable from birth,
//                      singleton after window formation, or demoted for a
//                      solo retry)
//       -> kRunning   (one waiter is running its one-member attempt; a
//                      retry goes back to kSoloReady via RetryOrFail)
//       -> kDone      (result present; consumed exactly once)
//
// `stage`, `result` and the retry bookkeeping are guarded by `mu`;
// `in_window` is guarded by the service's batch_mu_ (lock order: batch_mu_
// before mu). While kClaimed/kRunning the attempt's runner owns the
// bookkeeping fields exclusively — the stage transition under `mu` hands
// them over.
struct TicketState {
  enum class Stage { kPending, kClaimed, kSoloReady, kRunning, kDone };

  QueryService* service = nullptr;
  uint64_t id = 0;
  ServiceRequest request;  // owned copy; guard rewired to own_guard below
  std::unique_ptr<SelectStatement> stmt;  // parsed; set iff batchable
  bool batchable = false;

  // Cancellation: Cancel() fires the token; own_guard (installed when the
  // caller supplied no guard) turns that into guard trips everywhere a
  // guard is honored — the admission queue, morsel checks, phase
  // boundaries.
  std::atomic<bool> cancelled{false};
  CancelToken cancel_token;
  std::unique_ptr<QueryGuard> own_guard;

  std::mutex mu;
  std::condition_variable cv;
  Stage stage = Stage::kSoloReady;
  bool in_window = false;
  int attempts = 0;
  bool any_memory_only = false;
  double backoff_until_ms = 0;
  Result<QueryResult> result{Status::Internal("ticket still pending")};
  bool consumed = false;
};

QueryTicket::QueryTicket(std::shared_ptr<TicketState> state)
    : state_(std::move(state)) {}

uint64_t QueryTicket::id() const {
  return state_ != nullptr ? state_->id : 0;
}

Result<QueryResult> QueryTicket::Wait() {
  if (state_ == nullptr) {
    return Status::InvalidArgument("Wait() on an invalid QueryTicket");
  }
  return state_->service->Drive(state_);
}

bool QueryTicket::TryGet(Result<QueryResult>* out) {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  if (state_->stage != TicketState::Stage::kDone || state_->consumed) {
    return false;
  }
  state_->consumed = true;
  *out = std::move(state_->result);
  return true;
}

void QueryTicket::Cancel() {
  if (state_ == nullptr) return;
  state_->cancelled.store(true);
  state_->cancel_token.Cancel();
  // Wake window waiters so a pending ticket is pruned promptly, and the
  // ticket's own waiter so it observes the cancellation.
  state_->service->batch_cv_.notify_all();
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->cv.notify_all();
}

// --- QueryService -----------------------------------------------------------

namespace {

// A queued ticket's view of its own liveness: the Cancel() flag first,
// then the guard (deadline / caller-side cancellation).
Status TicketLiveness(const TicketState& st) {
  if (st.cancelled.load()) {
    return Status::Cancelled("cancelled while queued");
  }
  if (st.request.guard != nullptr) return st.request.guard->Check();
  return Status::OK();
}

}  // namespace

QueryService::QueryService(SudafSession* session, ServiceOptions options)
    : session_(session),
      options_(options),
      admission_(options.max_concurrency, options.max_queue, &metrics_) {
  // Baseline the breaker on the current persistence error count so
  // pre-service history doesn't trip it.
  CachePersistence* p = session_->cache_persistence();
  wal_errors_seen_ = p != nullptr ? p->wal_errors() : 0;
}

QueryService::~QueryService() {
  std::vector<std::shared_ptr<TicketState>> orphaned;
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    shutdown_ = true;
    orphaned = std::move(window_);
    window_.clear();
    for (auto& st : orphaned) st->in_window = false;
  }
  batch_cv_.notify_all();
  for (auto& st : orphaned) {
    DropTicket(st, Status::Cancelled(
                       "query service destroyed before the request ran"));
  }
}

QueryTicket QueryService::Submit(const std::string& sql, ExecMode mode) {
  ServiceRequest req;
  req.sql = sql;
  req.mode = mode;
  return Submit(req);
}

QueryTicket QueryService::Submit(const ServiceRequest& request) {
  auto st = std::make_shared<TicketState>();
  st->service = this;
  st->id = request_seq_.fetch_add(1) + 1;
  st->request = request;
  if (st->request.guard == nullptr) {
    st->own_guard = std::make_unique<QueryGuard>();
    st->own_guard->set_cancel_token(&st->cancel_token);
    st->request.guard = st->own_guard.get();
  }
  metrics_.counter("sudaf.service.requests")->Add();
  if (st->request.is_prefetch) {
    metrics_.counter("sudaf.service.prefetches")->Add();
  }

  const bool batching_on =
      options_.batch_window_ms > 0 && options_.batch_max_queries > 1;
  if (batching_on && request.mode != ExecMode::kEngine &&
      !request.exec.has_value()) {
    // Only plain SELECTs batch: EXPLAIN [ANALYZE] needs the solo path's
    // result wrapping, and unparsable SQL surfaces its error through the
    // solo path unchanged.
    Result<ParsedSql> parsed = ParseSql(request.sql);
    if (parsed.ok() && !parsed->explain && !parsed->analyze) {
      st->stmt = std::move(parsed->select);
      st->batchable = true;
    }
  }
  if (!st->batchable) return QueryTicket(std::move(st));  // kSoloReady

  bool joined = false;
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    if (!shutdown_) {
      if (window_.empty()) window_opened_ms_ = NowMs();
      st->stage = TicketState::Stage::kPending;
      st->in_window = true;
      window_.push_back(st);
      joined = true;
    }
  }
  // Wake waiters: the window may just have hit batch_max_queries.
  if (joined) batch_cv_.notify_all();
  return QueryTicket(std::move(st));
}

Result<QueryResult> QueryService::Execute(const std::string& sql,
                                          ExecMode mode) {
  return Submit(sql, mode).Wait();
}

Result<QueryResult> QueryService::Execute(const ServiceRequest& request) {
  return Submit(request).Wait();
}

QueryTicket QueryService::SubmitPrefetch(const std::string& sql) {
  ServiceRequest req;
  req.sql = sql;
  req.mode = ExecMode::kSudafShare;
  req.is_prefetch = true;
  return Submit(req);
}

Status QueryService::Prefetch(const std::string& sql) {
  Result<QueryResult> result = SubmitPrefetch(sql).Wait();
  return result.ok() ? Status::OK() : result.status();
}

Result<QueryResult> QueryService::Drive(
    const std::shared_ptr<TicketState>& st) {
  while (true) {
    // Terminal check — and consume-once delivery.
    {
      std::lock_guard<std::mutex> lock(st->mu);
      if (st->stage == TicketState::Stage::kDone) {
        if (st->consumed) {
          return Status::InvalidArgument(
              "QueryTicket result already consumed");
        }
        st->consumed = true;
        return std::move(st->result);
      }
    }

    // Window phase: wait out the batching window; whichever waiter's watch
    // the deadline (or the size trigger) fires on claims the whole window
    // and leads its formation.
    {
      std::unique_lock<std::mutex> lock(batch_mu_);
      if (st->in_window) {
        const double deadline = window_opened_ms_ + options_.batch_window_ms;
        const bool full =
            static_cast<int>(window_.size()) >= options_.batch_max_queries;
        if (full || shutdown_ || NowMs() >= deadline) {
          std::vector<std::shared_ptr<TicketState>> claimed =
              std::move(window_);
          window_.clear();
          for (auto& t : claimed) {
            t->in_window = false;
            std::lock_guard<std::mutex> tl(t->mu);
            t->stage = TicketState::Stage::kClaimed;
          }
          lock.unlock();
          batch_cv_.notify_all();
          FormAndRun(std::move(claimed));
          continue;
        }
        // While pending, honor our own cancellation/deadline: drop out of
        // the window before any group forms.
        Status live = TicketLiveness(*st);
        if (!live.ok()) {
          auto it = std::find(window_.begin(), window_.end(), st);
          if (it != window_.end()) window_.erase(it);
          st->in_window = false;
          lock.unlock();
          DropTicket(st, live);
          continue;
        }
        batch_cv_.wait_for(lock, std::chrono::duration<double, std::milli>(
                                     std::max(0.1, deadline - NowMs())));
        continue;
      }
    }

    // Out of the window: run it ourselves or wait for whoever owns it.
    double backoff_ms = 0;
    {
      std::unique_lock<std::mutex> lock(st->mu);
      switch (st->stage) {
        case TicketState::Stage::kClaimed:
        case TicketState::Stage::kRunning:
          // A window leader or another waiter is on it; the timeout only
          // defends against a missed notify.
          st->cv.wait_for(lock, std::chrono::milliseconds(50));
          continue;
        case TicketState::Stage::kSoloReady:
          st->stage = TicketState::Stage::kRunning;
          backoff_ms = st->backoff_until_ms - NowMs();
          break;
        default:
          continue;  // kDone (delivered at the top) / kPending (re-check)
      }
    }
    if (backoff_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_ms));
    }
    RunAttempt({st});
  }
}

void QueryService::FormAndRun(
    std::vector<std::shared_ptr<TicketState>> claimed) {
  // Prune cancelled/expired tickets BEFORE grouping: a dropped request
  // never occupies a state slot in anyone's pass.
  DropMembers(&claimed, TicketLiveness);

  // Group by (mode, data signature) in first-appearance order.
  std::map<std::string, size_t> index;
  std::vector<std::vector<std::shared_ptr<TicketState>>> groups;
  for (auto& st : claimed) {
    std::string key = std::to_string(static_cast<int>(st->request.mode)) +
                      "|" + DataSignature(*st->stmt);
    auto [it, inserted] = index.emplace(std::move(key), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(std::move(st));
  }

  // Singletons go back to their own waiters (one attempt each); real
  // groups run here, one shared pass per group.
  bool any_solo = false;
  for (auto& group : groups) {
    if (group.size() == 1) {
      std::lock_guard<std::mutex> lock(group[0]->mu);
      group[0]->stage = TicketState::Stage::kSoloReady;
      group[0]->cv.notify_all();
      any_solo = true;
    }
  }
  if (any_solo) batch_cv_.notify_all();
  for (auto& group : groups) {
    if (group.size() >= 2) RunAttempt(std::move(group));
  }
}

void QueryService::RunAttempt(
    std::vector<std::shared_ptr<TicketState>> members) {
  // A member cancelled before its attempt began never queues; its
  // admission unit is accounted as queue_cancelled, keeping the
  // reconciliation identities exact.
  DropMembers(&members, [](const TicketState& st) {
    return st.cancelled.load()
               ? Status::Cancelled("cancelled before execution")
               : Status::OK();
  });
  if (members.empty()) return;

  // One admission slot covers the whole attempt. While queued, members
  // keep honoring Cancel() and their guards: an expired member is dropped
  // (and accounted) without abandoning the wait while at least one lives.
  Status admitted = admission_.AdmitPoll(
      [&](double* sleep_ms) -> Status {
        Status last_drop = DropMembers(&members, TicketLiveness);
        if (members.empty()) return last_drop;
        for (const auto& st : members) {
          ClampSleepToDeadline(*st->request.guard, sleep_ms);
        }
        return Status::OK();
      },
      kQueuePollMs);
  if (!admitted.ok()) {
    // Every member expired (accounted while queued), or a queue-full shed:
    // the controller counted one shed; account the other members, then
    // send everyone through the retry policy.
    for (size_t i = 0; i < members.size(); ++i) {
      if (i > 0) metrics_.counter("sudaf.service.shed")->Add();
      ++members[i]->attempts;
      RetryOrFail(members[i], admitted, /*work_started=*/false);
    }
    return;
  }
  // The controller counted one admission for the slot; the other members
  // were admitted with it.
  for (size_t i = 1; i < members.size(); ++i) {
    metrics_.counter("sudaf.service.admitted")->Add();
  }
  for (auto& st : members) ++st->attempts;

  bool memory_only;
  {
    std::lock_guard<std::mutex> lock(breaker_mu_);
    memory_only = breaker_ != BreakerState::kClosed;
  }

  // The prune above runs first, so a group cut to one member runs solo.
  std::vector<Result<QueryResult>> results;
  if (members.size() == 1) {
    // Solo keeps the request's own exec override, EXPLAIN wrapping and
    // kEngine mode.
    const ServiceRequest& request = members[0]->request;
    metrics_.counter("sudaf.batch.solo")->Add();
    ExecOptions exec =
        request.exec.has_value() ? *request.exec : session_->exec_options();
    exec.guard = request.guard;
    results.push_back(session_->Execute(request.sql, request.mode, exec));
  } else {
    const auto n = static_cast<int64_t>(members.size());
    metrics_.counter("sudaf.batch.coalesced")->Add(n);
    metrics_.histogram("sudaf.batch.group_size")
        ->Observe(static_cast<double>(n));
    std::vector<BatchItem> items;
    items.reserve(members.size());
    for (auto& st : members) {
      items.push_back(BatchItem{st->stmt.get(), st->request.guard});
    }
    BatchExecStats bstats;
    results = session_->ExecuteBatch(items, members[0]->request.mode,
                                     session_->exec_options(), &bstats);
    metrics_.counter("sudaf.batch.groups")
        ->Add(static_cast<int64_t>(bstats.groups_shared));
    metrics_.counter("sudaf.batch.states_requested")
        ->Add(bstats.states_requested);
    metrics_.counter("sudaf.batch.states_deduped")
        ->Add(bstats.states_deduped);
    metrics_.counter("sudaf.batch.scan_passes")->Add(bstats.scan_passes);
    metrics_.counter("sudaf.batch.scan_passes_saved")
        ->Add(bstats.scan_passes_saved);
  }
  admission_.Release();

  UpdateBreaker();

  for (size_t i = 0; i < members.size(); ++i) {
    const std::shared_ptr<TicketState>& st = members[i];
    st->any_memory_only |= memory_only;
    if (results[i].ok()) {
      QueryResult qr = std::move(*results[i]);
      qr.stats.service_attempts = st->attempts;
      qr.stats.degraded_cache_memory_only = st->any_memory_only;
      FinishOk(st, std::move(qr));
      continue;
    }
    if (results[i].status().code() == StatusCode::kResourceExhausted) {
      // Mid-execution memory pressure: shrink the cache so the retry (and
      // every later request) fits the tighter budget.
      SignalMemoryPressure();
    }
    // A failed member (group-level fault, guard trip, per-member error)
    // retries solo through the retry policy.
    RetryOrFail(st, results[i].status(), /*work_started=*/true);
  }
}

Status QueryService::DropMembers(
    std::vector<std::shared_ptr<TicketState>>* members,
    const std::function<Status(const TicketState&)>& check) {
  Status last_drop = Status::OK();
  std::erase_if(*members, [&](const std::shared_ptr<TicketState>& st) {
    Status s = check(*st);
    if (s.ok()) return false;
    DropTicket(st, s);
    last_drop = std::move(s);
    return true;
  });
  return last_drop;
}

void QueryService::RetryOrFail(const std::shared_ptr<TicketState>& st,
                               const Status& s, bool work_started) {
  if (st->attempts < options_.retry.max_attempts &&
      options_.retry.ShouldRetry(s, st->request.idempotent, work_started)) {
    metrics_.counter("sudaf.service.retries")->Add();
    const double backoff = options_.retry.BackoffMs(st->id, st->attempts);
    std::lock_guard<std::mutex> lock(st->mu);
    st->backoff_until_ms = NowMs() + backoff;
    st->stage = TicketState::Stage::kSoloReady;
    st->cv.notify_all();
    return;
  }
  FinishError(st, s);
}

void QueryService::FinishOk(const std::shared_ptr<TicketState>& st,
                            QueryResult result) {
  metrics_.counter("sudaf.service.ok")->Add();
  std::lock_guard<std::mutex> lock(st->mu);
  st->result = std::move(result);
  st->stage = TicketState::Stage::kDone;
  st->cv.notify_all();
}

void QueryService::FinishError(const std::shared_ptr<TicketState>& st,
                               const Status& s) {
  metrics_.counter("sudaf.service.failed")->Add();
  std::lock_guard<std::mutex> lock(st->mu);
  st->result = Result<QueryResult>(s);
  st->stage = TicketState::Stage::kDone;
  st->cv.notify_all();
}

void QueryService::DropTicket(const std::shared_ptr<TicketState>& st,
                              const Status& s) {
  metrics_.counter(s.code() == StatusCode::kCancelled
                       ? "sudaf.service.queue_cancelled"
                       : "sudaf.service.queue_timeouts")
      ->Add();
  FinishError(st, s);
}

void QueryService::UpdateBreaker() {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  switch (breaker_) {
    case BreakerState::kClosed: {
      CachePersistence* p = session_->cache_persistence();
      if (p == nullptr) return;  // persistence off: nothing to break
      int64_t errors = p->wal_errors();
      if (errors > wal_errors_seen_) {
        ++consecutive_wal_error_requests_;
      } else {
        consecutive_wal_error_requests_ = 0;
      }
      wal_errors_seen_ = errors;
      if (consecutive_wal_error_requests_ >=
          options_.breaker.open_after_errors) {
        session_->SuspendCachePersistence();
        breaker_ = BreakerState::kOpen;
        requests_while_open_ = 0;
        consecutive_wal_error_requests_ = 0;
        metrics_.counter("sudaf.service.breaker_opened")->Add();
        metrics_.gauge("sudaf.service.breaker_state")->Set(1);
      }
      return;
    }
    case BreakerState::kOpen:
      if (++requests_while_open_ >= options_.breaker.half_open_after) {
        breaker_ = BreakerState::kHalfOpen;
        metrics_.gauge("sudaf.service.breaker_state")->Set(2);
      }
      return;
    case BreakerState::kHalfOpen: {
      // Probe: try to re-publish a snapshot and reattach the journal.
      metrics_.counter("sudaf.service.breaker_probes")->Add();
      Status resumed = session_->ResumeCachePersistence();
      if (resumed.ok()) {
        breaker_ = BreakerState::kClosed;
        CachePersistence* p = session_->cache_persistence();
        wal_errors_seen_ = p != nullptr ? p->wal_errors() : 0;
        consecutive_wal_error_requests_ = 0;
        metrics_.counter("sudaf.service.breaker_closed")->Add();
        metrics_.gauge("sudaf.service.breaker_state")->Set(0);
      } else {
        // Still unhealthy: back to open, wait another window.
        breaker_ = BreakerState::kOpen;
        requests_while_open_ = 0;
        metrics_.gauge("sudaf.service.breaker_state")->Set(1);
      }
      return;
    }
  }
}

void QueryService::SignalMemoryPressure() {
  metrics_.counter("sudaf.service.cache_shrinks")->Add();
  CachePolicy policy = session_->options().cache_policy;
  int64_t current = policy.max_bytes > 0 ? policy.max_bytes
                                         : session_->cache().ApproxBytes();
  int64_t target = static_cast<int64_t>(
      static_cast<double>(current) * kCacheShrinkFactor);
  policy.max_bytes = std::max(options_.cache_min_bytes, target);
  session_->set_cache_policy(policy);
  metrics_.gauge("sudaf.service.cache_max_bytes")->Set(policy.max_bytes);
}

QueryService::BreakerState QueryService::breaker_state() const {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  return breaker_;
}

}  // namespace sudaf
