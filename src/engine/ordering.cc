#include "engine/ordering.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <utility>

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

// A sort key with its column type resolved once, outside the comparator.
struct ResolvedKey {
  DataType type;
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const int32_t* codes = nullptr;
  const std::vector<std::string>* dict = nullptr;
  bool ascending = true;

  explicit ResolvedKey(const SortKey& key)
      : type(key.column->type()),
        ints(key.column->ints().data()),
        doubles(key.column->doubles().data()),
        codes(key.column->string_codes().data()),
        dict(&key.column->dictionary()),
        ascending(key.ascending) {}

  // Three-way comparison of rows `a` and `b` (ordering.h rules).
  int Compare(int64_t a, int64_t b) const {
    switch (type) {
      case DataType::kInt64:
        return CompareInts(ints[a], ints[b]);
      case DataType::kFloat64:
        return CompareDoubles(doubles[a], doubles[b]);
      case DataType::kString: {
        if (codes[a] == codes[b]) return 0;
        const int cmp = (*dict)[codes[a]].compare((*dict)[codes[b]]);
        return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
      }
    }
    return 0;
  }
};

// Sorts (or, when kept < size, partially sorts) `v` by `less` and cuts it
// to the first `kept` elements.
template <typename T, typename Less>
void SortPrefix(std::vector<T>* v, int64_t kept, const Less& less) {
  if (kept < static_cast<int64_t>(v->size())) {
    std::partial_sort(v->begin(), v->begin() + kept, v->end(), less);
    v->resize(kept);
  } else {
    std::sort(v->begin(), v->end(), less);
  }
}

}  // namespace

int CompareColumnRows(const Column& col, int64_t a, int64_t b) {
  return ResolvedKey(SortKey{&col, true}).Compare(a, b);
}

std::vector<int64_t> OrderRows(const std::vector<SortKey>& keys,
                               int64_t num_rows, int64_t limit) {
  const int64_t kept =
      limit >= 0 && limit < num_rows ? limit : num_rows;
  std::vector<int64_t> order;
  if (keys.empty()) {
    order.resize(kept);
    std::iota(order.begin(), order.end(), int64_t{0});
    return order;
  }
  if (keys.size() == 1 && keys[0].column->type() == DataType::kInt64) {
    // One int64 key sorts (key, row) pairs. Descending sorts ~key, which
    // reverses the signed order exactly; equal keys still go by row.
    const int64_t* v = keys[0].column->ints().data();
    const int64_t flip = keys[0].ascending ? 0 : ~int64_t{0};
    std::vector<std::pair<int64_t, int64_t>> pairs(num_rows);
    for (int64_t r = 0; r < num_rows; ++r) pairs[r] = {v[r] ^ flip, r};
    SortPrefix(&pairs, kept, std::less<>());
    order.resize(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) order[i] = pairs[i].second;
    return order;
  }
  std::vector<ResolvedKey> resolved(keys.begin(), keys.end());
  order.resize(num_rows);
  std::iota(order.begin(), order.end(), int64_t{0});
  SortPrefix(&order, kept, [&resolved](int64_t a, int64_t b) {
    for (const ResolvedKey& key : resolved) {
      const int cmp = key.Compare(a, b);
      if (cmp != 0) return key.ascending ? cmp < 0 : cmp > 0;
    }
    return a < b;  // ties keep row order: a stable sort
  });
  return order;
}

}  // namespace sudaf
