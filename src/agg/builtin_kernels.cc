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

}  // namespace sudaf
