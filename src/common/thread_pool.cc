#include "common/thread_pool.h"

#include <algorithm>

#include "common/failpoint.h"

namespace sudaf {

namespace {
// The pool whose task the current thread is executing, if any. ParallelFor
// consults it to detect reentrancy: a task that submits nested parallel
// work to its own pool must run that work inline — taking job_mu_ from
// inside a task would deadlock against the outer job holding it (and the
// nested job's tasks could never be claimed anyway, since every worker is
// already busy executing the outer job).
thread_local const ThreadPool* tls_running_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(int num_workers) {
  EnsureWorkers(num_workers);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::EnsureWorkers(int n) {
  std::lock_guard<std::mutex> job_lock(job_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(workers_.size()) < n) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::RunTasks() {
  const std::function<void(int64_t)>& fn = *job_fn_;
  const int64_t num_tasks = num_tasks_;
  const ThreadPool* prev = tls_running_pool;
  tls_running_pool = this;
  while (true) {
    int64_t t = next_task_.fetch_add(1, std::memory_order_relaxed);
    if (t >= num_tasks) break;
    fn(t);
    tasks_total_.fetch_add(1, std::memory_order_relaxed);
    tasks_done_.fetch_add(1, std::memory_order_acq_rel);
  }
  tls_running_pool = prev;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] {
        return shutdown_ ||
               (job_active_ &&
                next_task_.load(std::memory_order_relaxed) < num_tasks_);
      });
      if (shutdown_) return;
      ++active_claimers_;
    }
    RunTasks();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_claimers_;
      if (active_claimers_ == 0 &&
          tasks_done_.load(std::memory_order_acquire) == num_tasks_) {
        done_cv_.notify_all();
      }
    }
  }
}

void ThreadPool::ParallelFor(int64_t num_tasks,
                             const std::function<void(int64_t)>& fn) {
  if (num_tasks <= 0) return;
  jobs_total_.fetch_add(1, std::memory_order_relaxed);
  if (num_tasks == 1 || workers_.empty() || tls_running_pool == this) {
    for (int64_t t = 0; t < num_tasks; ++t) {
      fn(t);
      tasks_total_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  std::lock_guard<std::mutex> job_lock(job_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_fn_ = &fn;
    num_tasks_ = num_tasks;
    next_task_.store(0, std::memory_order_relaxed);
    tasks_done_.store(0, std::memory_order_relaxed);
    active_claimers_ = 1;  // the caller
    job_active_ = true;
  }
  work_cv_.notify_all();
  RunTasks();  // the caller participates
  {
    std::unique_lock<std::mutex> lock(mu_);
    --active_claimers_;
    // Wait until every claimer has left RunTasks: only then is it safe for
    // the next job to reset the task counters (a lingering claimer could
    // otherwise grab a fresh task index against the old function).
    done_cv_.wait(lock, [this] {
      return active_claimers_ == 0 &&
             tasks_done_.load(std::memory_order_acquire) == num_tasks_;
    });
    job_active_ = false;
    job_fn_ = nullptr;
  }
}

Status ThreadPool::TryParallelFor(int64_t num_tasks,
                                  const std::function<Status(int64_t)>& fn) {
  std::mutex err_mu;
  Status first_error;  // of the lowest-indexed failed task
  // Lowest failed task index so far (num_tasks while none failed). Fail
  // fast skips only the tasks above it: a lower task claimed late may
  // still fail, and its error must win.
  std::atomic<int64_t> first_error_task{num_tasks};
  ParallelFor(num_tasks, [&](int64_t t) {
    if (t > first_error_task.load()) return;
    Status st = FailPoint::Check("thread_pool:dispatch");
    if (st.ok()) st = fn(t);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(err_mu);
      if (t < first_error_task.load()) {
        first_error_task.store(t);
        first_error = std::move(st);
      }
    }
  });
  return first_error;
}

ThreadPool& ThreadPool::Global() {
  // Leaked intentionally: worker threads must not be joined during static
  // destruction (exit-time joins can deadlock, and tests may still touch
  // the pool from atexit paths).
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

}  // namespace sudaf
