#include "agg/builtin_kernels.h"

#include <algorithm>
#include <limits>

namespace sudaf {

double AggIdentity(AggOp op) {
  switch (op) {
    case AggOp::kSum:
    case AggOp::kCount:
      return 0.0;
    case AggOp::kProd:
      return 1.0;
    case AggOp::kMin:
      return std::numeric_limits<double>::infinity();
    case AggOp::kMax:
      return -std::numeric_limits<double>::infinity();
  }
  return 0.0;
}

double AggMerge(AggOp op, double a, double b) {
  switch (op) {
    case AggOp::kSum:
    case AggOp::kCount:
      return a + b;
    case AggOp::kProd:
      return a * b;
    case AggOp::kMin:
      return std::min(a, b);
    case AggOp::kMax:
      return std::max(a, b);
  }
  return 0.0;
}

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

}  // namespace sudaf
