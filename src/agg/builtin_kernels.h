#ifndef SUDAF_AGG_BUILTIN_KERNELS_H_
#define SUDAF_AGG_BUILTIN_KERNELS_H_

// The ⊕ algebra of the built-in aggregation ops: identities and merges.
// The fused state pass (engine/state_batch.h) accumulates every built-in
// aggregate with them; SUDAF's rewrite derives its speedup from routing
// UDAF computation through that pass instead of per-row interpreted UDAFs.

#include "expr/expr.h"

namespace sudaf {

// Identity element of ⊕ for `op` (0 for sum/count, 1 for prod, ±inf for
// min/max).
double AggIdentity(AggOp op);

// Merges two partial accumulator values under ⊕ (the commutative/associative
// merge that makes an aggregation algebraic).
double AggMerge(AggOp op, double a, double b);

}  // namespace sudaf

#endif  // SUDAF_AGG_BUILTIN_KERNELS_H_
