#ifndef SUDAF_BENCH_SUPPORT_GROUPED_STATE_H_
#define SUDAF_BENCH_SUPPORT_GROUPED_STATE_H_

// One-state-at-a-time grouped aggregation: the per-state baseline that the
// fused state pass (engine/state_batch.h) is measured and tested against.
// No query path runs it.

#include <cstdint>
#include <vector>

#include "engine/exec_options.h"
#include "expr/expr.h"

namespace sudaf::bench {

// Grouped accumulation: for each row i of [lo, hi), acc[group_ids[i]] ⊕=
// input[i]. `acc` must be pre-sized to the group count and initialized
// with AggIdentity(op). `input` may be null for kCount. Callers pass index
// ranges into the shared arrays instead of copying per-partition slices.
void GroupedAccumulateRange(AggOp op, const double* input,
                            const int32_t* group_ids, int64_t lo, int64_t hi,
                            std::vector<double>* acc);

// Grouped ⊕-aggregation of `input` (empty for kCount). Honors
// opts.partitioned by aggregating per partition, one after another, and
// merging the partials with ⊕ — the algebraic-aggregation execution shape
// of the paper's Spark context.
std::vector<double> ComputeGroupedState(AggOp op,
                                        const std::vector<double>& input,
                                        const std::vector<int32_t>& group_ids,
                                        int32_t num_groups,
                                        const ExecOptions& opts);

}  // namespace sudaf::bench

#endif  // SUDAF_BENCH_SUPPORT_GROUPED_STATE_H_
