#ifndef SUDAF_AGG_BUILTIN_KERNELS_H_
#define SUDAF_AGG_BUILTIN_KERNELS_H_

// Vectorized aggregation kernels.
//
// These model a query engine's *built-in* aggregates: tight typed loops over
// unboxed column data. SUDAF's rewrite derives its speedup from routing UDAF
// computation through these kernels instead of per-row interpreted UDAFs.

#include <cstdint>
#include <vector>

#include "expr/expr.h"

namespace sudaf {

// Identity element of ⊕ for `op` (0 for sum/count, 1 for prod, ±inf for
// min/max).
double AggIdentity(AggOp op);

// Merges two partial accumulator values under ⊕ (the commutative/associative
// merge that makes an aggregation algebraic).
double AggMerge(AggOp op, double a, double b);

// Grouped accumulation: for each row i of [lo, hi), acc[group_ids[i]] ⊕=
// input[i]. `acc` must be pre-sized to the group count and initialized
// with AggIdentity(op). `input` may be null for kCount. Callers pass index
// ranges into the shared arrays instead of copying per-partition slices.
void GroupedAccumulateRange(AggOp op, const double* input,
                            const int32_t* group_ids, int64_t lo, int64_t hi,
                            std::vector<double>* acc);

}  // namespace sudaf

#endif  // SUDAF_AGG_BUILTIN_KERNELS_H_
