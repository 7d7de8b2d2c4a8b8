#include "engine/ordering.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace sudaf {

namespace {

int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  const bool nan_a = std::isnan(a);
  const bool nan_b = std::isnan(b);
  if (nan_a == nan_b) return 0;
  return nan_a ? 1 : -1;
}

template <typename T>
int CompareInts(T a, T b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

}  // namespace

int CompareColumnRows(const Column& col, int64_t a, int64_t b) {
  switch (col.type()) {
    case DataType::kInt64:
      return CompareInts(col.GetInt64(a), col.GetInt64(b));
    case DataType::kFloat64:
      return CompareDoubles(col.GetFloat64(a), col.GetFloat64(b));
    case DataType::kString: {
      const int32_t ca = col.GetStringCode(a);
      const int32_t cb = col.GetStringCode(b);
      if (ca == cb) return 0;
      const int cmp = col.dictionary()[ca].compare(col.dictionary()[cb]);
      return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
  }
  return 0;
}

std::vector<int64_t> OrderRows(const std::vector<SortKey>& keys,
                               int64_t num_rows, int64_t limit) {
  const int64_t kept =
      limit >= 0 && limit < num_rows ? limit : num_rows;
  if (keys.empty()) {
    std::vector<int64_t> order(kept);
    std::iota(order.begin(), order.end(), int64_t{0});
    return order;
  }
  std::vector<int64_t> order(num_rows);
  std::iota(order.begin(), order.end(), int64_t{0});
  auto less = [&keys](int64_t a, int64_t b) {
    for (const SortKey& key : keys) {
      const int cmp = CompareColumnRows(*key.column, a, b);
      if (cmp != 0) return key.ascending ? cmp < 0 : cmp > 0;
    }
    return a < b;  // ties keep row order: a stable sort
  };
  if (kept < num_rows) {
    std::partial_sort(order.begin(), order.begin() + kept, order.end(), less);
    order.resize(kept);
  } else {
    std::sort(order.begin(), order.end(), less);
  }
  return order;
}

}  // namespace sudaf
