#ifndef SUDAF_ENGINE_EXEC_OPTIONS_H_
#define SUDAF_ENGINE_EXEC_OPTIONS_H_

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

namespace sudaf {

class MetricsRegistry;
class QueryGuard;
class QueryTrace;

// Base-table scan specification for incremental maintenance
// (docs/execution.md, "Incremental maintenance"). Only meaningful for
// single-table plans; FilterAndJoin rejects it on multi-table plans.
struct ScanSpec {
  // Half-open base-table row range to scan; end == -1 means the table
  // size. A delta-refresh pass sets begin to the cached coverage and end
  // to the snapshot boundary, so only appended rows are filtered,
  // gathered and accumulated.
  int64_t begin = 0;
  int64_t end = -1;
  // Base-table segment boundaries (cumulative row ends, ascending) to map
  // into filtered-row space. When empty, Prepare falls back to the
  // catalog's segment log for the table.
  std::vector<int64_t> segment_ends;
};

// Budget for the shared state cache (docs/robustness.md, "Durability &
// memory budget"). The cache enforces ApproxBytes() <= max_bytes as an
// invariant: before any insert that would overshoot, whole group sets are
// evicted in cost order (least recently used x fewest hits / most bytes
// first); an entry that cannot fit even after eviction stays query-local.
// Session-scoped: set through SessionOptions (or StateCache::set_policy
// directly), never through per-query ExecOptions.
struct CachePolicy {
  // Byte budget for cached group sets; 0 = unbounded (the historical
  // behavior).
  int64_t max_bytes = 0;
  // When cache persistence is enabled, a WAL growing past this many bytes
  // triggers snapshot compaction (Save + WAL reset).
  int64_t wal_max_bytes = 4 << 20;
};

// Execution-context knobs.
//
// `partitioned = false` models a single-node engine (the paper's PostgreSQL
// context): one pass over the data. `partitioned = true` models a
// distributed engine (the Spark SQL context): the input is split into
// partitions, each partition computes partial aggregates via (F, ⊕), and
// partials are merged with ⊕ before the terminating function runs — the
// execution shape that requires aggregates to be algebraic. Partitions run
// one after another on the calling thread. Only the engine-mode interpreted
// UDAFs and the bench baseline (bench_support/grouped_state.h) read it; the
// fused pass has its own deterministic chunk tree.
struct ExecOptions {
  bool partitioned = false;
  int num_partitions = 4;
  // Run the morsel pipeline on worker threads: the WHERE filter, a join's
  // gather and the fused state pass size themselves through
  // PlannedWorkers(). Grouping is always serial. Off by default: the
  // benchmarks target single-core machines, where threading adds noise
  // without speedup.
  bool parallel = false;

  // --- Fused StateBatch executor -----------------------------------------
  // All of a query's aggregation states are computed in one morsel-driven
  // pass (shared input evaluation + fused accumulation). Rows per morsel,
  // sized so the per-morsel scratch buffers of a typical state batch stay
  // cache-resident.
  int morsel_size = 65536;
  // Worker-thread count for the morsel pipeline when `parallel` is set:
  // 0 = std::thread::hardware_concurrency(). Ignored when parallel=false
  // (single-threaded morsel loop).
  int num_threads = 0;

  // --- Hardened execution (docs/robustness.md) ---------------------------
  // Borrowed per-query guard: cancellation token, wall-clock deadline,
  // memory budget. Checked at morsel boundaries in the fused executor, per
  // select item in the engine path, and between SUDAF pipeline stages.
  // Null (default) disables all guard checks. The guard must outlive every
  // execution that uses these options.
  const QueryGuard* guard = nullptr;

  // --- Observability (docs/observability.md) -----------------------------
  // Borrowed sinks, both may be null (no recording). The session points
  // these at its MetricsRegistry and the current query's trace before
  // executing; engine layers (fused executor, engine path) record
  // counters and spans through them. Both must outlive the execution.
  MetricsRegistry* metrics = nullptr;
  QueryTrace* trace = nullptr;
  // Parent span id for engine-created spans (QueryTrace::BeginSpan);
  // -1 attaches them at the trace root.
  int trace_span = -1;

  // --- Incremental maintenance (docs/execution.md) -----------------------
  // Borrowed scan bounds + segment snapshot for single-table plans; null
  // (default) scans the whole table and takes segment boundaries from the
  // catalog's segment log. Must outlive the execution.
  const ScanSpec* scan = nullptr;
};

// Worker count a pipeline stage should use under `opts` for a stage with
// at most `max_tasks` independent work units: 1 when parallelism is off or
// there is nothing to split, otherwise num_threads (0 = hardware
// concurrency) capped by the task count. Every parallel stage (filter, a
// join's gather, fused accumulation) sizes itself through this one helper
// so a query reports a consistent thread count. Grouping is serial.
inline int PlannedWorkers(const ExecOptions& opts, int64_t max_tasks) {
  if (!opts.parallel || max_tasks <= 1) return 1;
  int workers = opts.num_threads;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 1;
  }
  return static_cast<int>(
      std::min<int64_t>(workers, std::max<int64_t>(max_tasks, 1)));
}

}  // namespace sudaf

#endif  // SUDAF_ENGINE_EXEC_OPTIONS_H_
