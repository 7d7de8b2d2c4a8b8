#include "bench_support/grouped_state.h"

#include <algorithm>

#include "agg/builtin_kernels.h"

namespace sudaf::bench {

void GroupedAccumulateRange(AggOp op, const double* input,
                            const int32_t* group_ids, int64_t lo, int64_t hi,
                            std::vector<double>* acc) {
  std::vector<double>& a = *acc;
  switch (op) {
    case AggOp::kSum:
      for (int64_t i = lo; i < hi; ++i) a[group_ids[i]] += input[i];
      break;
    case AggOp::kProd:
      for (int64_t i = lo; i < hi; ++i) a[group_ids[i]] *= input[i];
      break;
    case AggOp::kCount:
      for (int64_t i = lo; i < hi; ++i) a[group_ids[i]] += 1.0;
      break;
    case AggOp::kMin:
      for (int64_t i = lo; i < hi; ++i) {
        a[group_ids[i]] = std::min(a[group_ids[i]], input[i]);
      }
      break;
    case AggOp::kMax:
      for (int64_t i = lo; i < hi; ++i) {
        a[group_ids[i]] = std::max(a[group_ids[i]], input[i]);
      }
      break;
  }
}

std::vector<double> ComputeGroupedState(AggOp op,
                                        const std::vector<double>& input,
                                        const std::vector<int32_t>& group_ids,
                                        int32_t num_groups,
                                        const ExecOptions& opts) {
  const int64_t n = static_cast<int64_t>(group_ids.size());
  const int parts = opts.partitioned ? std::max(1, opts.num_partitions) : 1;
  std::vector<double> acc(num_groups, AggIdentity(op));
  if (parts == 1) {
    GroupedAccumulateRange(op, input.data(), group_ids.data(), 0, n, &acc);
    return acc;
  }
  // Each partition accumulates over its index range of the shared arrays —
  // no per-partition slice copies — and its partial merges with ⊕.
  std::vector<double> partial(num_groups);
  for (int p = 0; p < parts; ++p) {
    std::fill(partial.begin(), partial.end(), AggIdentity(op));
    GroupedAccumulateRange(op, input.data(), group_ids.data(), n * p / parts,
                           n * (p + 1) / parts, &partial);
    for (int32_t g = 0; g < num_groups; ++g) {
      acc[g] = AggMerge(op, acc[g], partial[g]);
    }
  }
  return acc;
}

}  // namespace sudaf::bench
