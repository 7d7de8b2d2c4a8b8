#ifndef SUDAF_COMMON_QUERY_GUARD_H_
#define SUDAF_COMMON_QUERY_GUARD_H_

// Per-query execution guard: cancellation, wall-clock deadline, memory
// budget.
//
// A QueryGuard is created by the caller of Session::Execute (one per query
// or shared across a sequence), handed to the engine through
// ExecOptions::guard, and consulted at morsel boundaries in the fused
// StateBatch executor, per select item / row batch in the engine's
// interpreted UDAFs, and between pipeline stages in the SUDAF session. A
// tripped guard surfaces as StatusCode::kCancelled, kDeadlineExceeded or
// kResourceExhausted from Execute — the query fails closed instead of
// running unbounded.
//
// Check() and ChargeMemory() are safe to call concurrently from worker
// threads; the caller may Cancel() the token from any thread while a query
// is running.

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace sudaf {

// Cooperative cancellation flag, shared between the thread driving a query
// and the thread that wants to stop it. The token must outlive every
// QueryGuard that references it.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  // Re-arms the token for reuse across queries.
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

class QueryGuard {
 public:
  QueryGuard() = default;

  // Borrowed; may be null (no cancellation source). The token must outlive
  // the guard.
  void set_cancel_token(const CancelToken* token) { token_ = token; }

  // Arms a wall-clock deadline `timeout_ms` from now; <= 0 means already
  // expired. Re-arming replaces the previous deadline.
  void ArmDeadline(double timeout_ms);
  void ClearDeadline() { has_deadline_ = false; }

  // Total bytes of large engine allocations this guard admits; 0 (default)
  // disables the budget. The charge is cumulative across the guard's
  // lifetime — reuse across queries with ResetMemoryCharge().
  void set_memory_budget(int64_t bytes) { memory_budget_ = bytes; }

  // Returns kCancelled / kDeadlineExceeded when tripped, OK otherwise.
  Status Check() const;

  // Deadline introspection for schedulers: the admission controller sizes
  // its queue waits from the guard's remaining budget so a request can time
  // out *while queued*, before it ever reaches a morsel boundary.
  // Configuration calls (set_cancel_token / ArmDeadline / set_memory_budget)
  // must happen-before the guard is shared with other threads; after that
  // the guard is read-only except for its atomic counters.
  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }
  // Milliseconds until the deadline (clamped at 0 once expired), or +inf
  // when no deadline is armed.
  double remaining_ms() const;

  // Admits `bytes` of engine allocation against the budget; returns
  // kResourceExhausted once the cumulative charge exceeds it. The failed
  // charge stays recorded, so later charges keep failing (fail closed).
  Status ChargeMemory(int64_t bytes) const;

  int64_t memory_charged() const {
    return memory_charged_.load(std::memory_order_relaxed);
  }
  void ResetMemoryCharge() {
    memory_charged_.store(0, std::memory_order_relaxed);
  }

  // Number of Check() calls observed — lets tests prove the engine really
  // consults the guard at morsel granularity.
  int64_t checks() const { return checks_.load(std::memory_order_relaxed); }

  // Number of failed Check()/ChargeMemory() calls (cancellation, deadline,
  // budget). Sessions mirror per-query deltas of checks()/trips() into
  // sudaf.guard.checks / sudaf.guard.trips.
  int64_t trips() const { return trips_.load(std::memory_order_relaxed); }

 private:
  const CancelToken* token_ = nullptr;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  int64_t memory_budget_ = 0;
  mutable std::atomic<int64_t> memory_charged_{0};
  mutable std::atomic<int64_t> checks_{0};
  mutable std::atomic<int64_t> trips_{0};
};

}  // namespace sudaf

#endif  // SUDAF_COMMON_QUERY_GUARD_H_
