#ifndef SUDAF_ENGINE_STATE_BATCH_H_
#define SUDAF_ENGINE_STATE_BATCH_H_

// Fused multi-state grouped aggregation — the StateBatch executor.
//
// SUDAF's rewrite turns one query into a set of aggregation states
// s_j(X) = Σ⊕_j f_j(x_i) over the same scan. The legacy path computes each
// state independently: materialize f_j over the whole column (one
// heap-allocated vector per state), then run one grouped pass over
// `group_ids` per state — a kurtosis query touches the input five times.
//
// The StateBatch executor computes *all* states of a query in one
// morsel-driven pass:
//
//   * the input expressions of every state are compiled into one shared
//     evaluation DAG (SlotProgram, engine/slot_program.h, which terminate
//     uses too): common subexpressions are detected across states (so
//     sum(x*y) and sum(x) read x once) and constant powers are
//     strength-reduced onto shared power chains (x^4 reuses the x^2 slot
//     another state already needed);
//   * the row range is split into morsels (ExecOptions::morsel_size rows),
//     the unit of the chunk tree, the guard check and the failpoint; each
//     morsel is evaluated and accumulated in vectors of 2048 rows, so every
//     per-worker slot buffer is 16 KB and a plan's buffers stay in L2
//     between a slot's write and its readers, and each vector accumulates
//     into the chunk block that owns its rows;
//   * a Σ ln y channel accumulates log-free: a mantissa product and an
//     exponent sum per group, converted to Σ ln y once per chunk block
//     (docs/execution.md, "Log-free log channels");
//   * accumulation follows a *fixed chunk tree*: rows fold into a bounded
//     number of contiguous chunk blocks whose count depends only on the
//     segment layout of the input (the catalog's append segment log mapped
//     into filtered-row space) and the morsel size, and blocks merge with ⊕
//     in (segment, chunk) order — so results are bitwise identical for ANY
//     worker count, including the single-threaded run, AND a cold full scan
//     equals merge(state(prefix), pass(delta segments)) bit for bit
//     (docs/execution.md, "Deterministic parallelism" and "Incremental
//     maintenance").
//
// Parallel execution (opts.parallel) lets ThreadPool workers claim chunks
// from an atomic counter (dynamic scheduling, no per-call thread spawning);
// the chunk tree keeps the arithmetic identical regardless of which worker
// processes which chunk.

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/exec_options.h"
#include "engine/input_binding.h"
#include "expr/evaluator.h"
#include "expr/expr.h"

namespace sudaf {

// One requested aggregation channel: ⊕-accumulate `input` (null for
// count()) under `op`. Callers may freely pass duplicate channels; the
// executor dedups them and computes each distinct (op, input) once.
struct StateBatchRequest {
  AggOp op = AggOp::kSum;
  const Expr* input = nullptr;  // borrowed; must outlive the call
};

// Incremental-maintenance inputs for one fused pass (docs/execution.md,
// "Incremental maintenance"). Both members default to "cold full pass".
struct StateBatchIncremental {
  // Cumulative segment ends in the pass's row space (ascending, last entry
  // == group_ids.size()). Each segment gets its own chunk sub-tree whose
  // shape is a pure function of that segment's row count and the morsel
  // size, so re-running any suffix of segments on top of the prefix's
  // merged state reproduces the full pass bit for bit. Empty = one segment
  // covering all rows (the historical layout; single-chunk passes still
  // degenerate to the exact serial accumulation order).
  std::vector<int64_t> segment_ends;
  // Optional per-request initial accumulators (each num_groups-sized, or
  // null for identity): the pass folds its segments *onto* these, in
  // segment order — exactly the arithmetic a cold pass would have used had
  // the init's rows been prefix segments of this pass. Requests that dedup
  // onto one channel must carry bitwise-identical inits (InvalidArgument
  // otherwise). Empty = cold pass (merged state starts as a copy of the
  // first chunk block).
  std::vector<const std::vector<double>*> init;
};

// Computes every requested channel over tuples [0, group_ids.size()) in one
// fused morsel-driven pass. Returns one num_groups-sized vector per request
// (duplicates of the same channel share the computation but each get their
// own copy). `binder` binds the column leaves of the input expressions to
// base columns read in place (PreparedInput::Binder): a column slot loads
// col[rows[t]] into its morsel buffer, or aliases col + base + t for an
// identity range. The pass's counters go to opts.metrics (sudaf.fused.*).
// `inc`, when non-null, carries the segment layout and initial
// accumulators for an incremental (delta-refresh) pass.
Result<std::vector<std::vector<double>>> ComputeStateBatch(
    const std::vector<StateBatchRequest>& requests,
    const ColumnBinder& binder, const std::vector<int32_t>& group_ids,
    int32_t num_groups, const ExecOptions& opts,
    const StateBatchIncremental* inc = nullptr);

}  // namespace sudaf

#endif  // SUDAF_ENGINE_STATE_BATCH_H_
