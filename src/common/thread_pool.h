#ifndef SUDAF_COMMON_THREAD_POOL_H_
#define SUDAF_COMMON_THREAD_POOL_H_

// Persistent worker-thread pool.
//
// The engine used to spawn fresh std::threads on every partitioned
// aggregation call; at morsel granularity that costs more than the work
// being distributed. This pool keeps workers alive across calls and hands
// them index-addressed tasks. Scheduling is deliberately work-stealing-free:
// a ParallelFor caller decides the task decomposition (the fused executor
// passes one contiguous morsel range per task), so results stay
// deterministic for a fixed task count.
//
// One job runs at a time; concurrent ParallelFor calls serialize on an
// internal mutex. Task functions must not throw: fallible work returns
// Status through the fallible ParallelFor overload, which propagates the
// failure deterministically instead of leaving it to unwind across the
// pool (UB).

#include <atomic>
#include <cstdint>
#include <functional>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace sudaf {

class ThreadPool {
 public:
  // Starts `num_workers` worker threads (0 is valid: ParallelFor then runs
  // everything on the calling thread).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Grows the pool to at least `n` workers (never shrinks). Lets callers
  // that want T-way parallelism request T-1 workers lazily, so processes
  // that never go parallel never pay for threads.
  void EnsureWorkers(int n);

  // Runs fn(i) for every i in [0, num_tasks). The calling thread
  // participates, so up to num_workers()+1 tasks execute concurrently.
  // Blocks until all tasks completed.
  //
  // Reentrancy-safe: when called from inside a task of this same pool, the
  // nested job runs entirely inline on the calling thread (still counted in
  // counters()) instead of deadlocking on the one-job-at-a-time mutex.
  void ParallelFor(int64_t num_tasks, const std::function<void(int64_t)>& fn);

  // Fallible variant (separate name: a Status-returning lambda would make
  // an overload ambiguous, since std::function<void(...)> also accepts it).
  // Once a task fails, tasks above the lowest failed index so far are
  // skipped (fail fast), and the error of the LOWEST-indexed failed task
  // is returned — every task below it still runs, so a deterministic
  // fault (guard trip, failpoint) yields the same Status regardless of
  // worker interleaving. Each executed task first passes the
  // "thread_pool:dispatch" failpoint. Returns OK when every task succeeded.
  Status TryParallelFor(int64_t num_tasks,
                        const std::function<Status(int64_t)>& fn);

  // Cumulative activity counters since construction. Sessions snapshot
  // these around a query and mirror the delta into their MetricsRegistry
  // (sudaf.pool.jobs / sudaf.pool.tasks) — the pool itself stays free of
  // registry dependencies.
  struct Counters {
    int64_t jobs = 0;   // ParallelFor/TryParallelFor calls that ran work
    int64_t tasks = 0;  // individual task executions
  };
  Counters counters() const {
    Counters c;
    c.jobs = jobs_total_.load(std::memory_order_relaxed);
    c.tasks = tasks_total_.load(std::memory_order_relaxed);
    return c;
  }

  // Process-wide pool, created empty on first use and grown on demand
  // (capped at kMaxGlobalWorkers).
  static ThreadPool& Global();

  // Parallelism cap for the global pool.
  static constexpr int kMaxGlobalWorkers = 64;

 private:
  void WorkerLoop();
  void RunTasks();

  std::mutex job_mu_;  // serializes ParallelFor callers

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;

  // Current job state (guarded by mu_; counters also read atomically inside
  // the claim loop).
  const std::function<void(int64_t)>* job_fn_ = nullptr;
  int64_t num_tasks_ = 0;
  std::atomic<int64_t> next_task_{0};
  std::atomic<int64_t> tasks_done_{0};
  int active_claimers_ = 0;  // threads currently inside RunTasks
  bool job_active_ = false;
  bool shutdown_ = false;

  // Lifetime totals (see counters()).
  std::atomic<int64_t> jobs_total_{0};
  std::atomic<int64_t> tasks_total_{0};
};

}  // namespace sudaf

#endif  // SUDAF_COMMON_THREAD_POOL_H_
