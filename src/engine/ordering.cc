#include "engine/ordering.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <optional>
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

// A single int64 key whose range is narrower than this many times the row
// count orders by counting.
constexpr uint64_t kDenseRangeFactor = 4;

// The smallest flipped key (`key ^ flip`) and the number of values its
// range spans, when OrderRows orders by counting (ordering.h).
struct DenseRange {
  int64_t lo = 0;
  uint64_t domain = 0;
};

std::optional<DenseRange> FindDenseRange(const std::vector<SortKey>& keys,
                                         int64_t num_rows, int64_t limit) {
  if (keys.size() != 1 || keys[0].column->type() != DataType::kInt64 ||
      num_rows < 2 || (limit >= 0 && limit < num_rows)) {
    return std::nullopt;
  }
  const int64_t* v = keys[0].column->ints().data();
  const auto [lo, hi] = std::minmax_element(v, v + num_rows);
  // Unsigned difference: hi - lo overflows int64 for extreme keys. The
  // descending flip maps [lo, hi] onto [~hi, ~lo], of the same width.
  const uint64_t width =
      static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo);
  if (width >= kDenseRangeFactor * static_cast<uint64_t>(num_rows)) {
    return std::nullopt;
  }
  return DenseRange{keys[0].ascending ? *lo : ~*hi, width + 1};
}

// Stable counting sort of rows [0, n) by `v[r] ^ flip`, whose values lie
// in `range`: the order of the (key, row) pair sort.
std::vector<int64_t> CountingOrder(const int64_t* v, int64_t flip, int64_t n,
                                   const DenseRange& range) {
  auto slot = [&](int64_t r) {
    return static_cast<uint64_t>(v[r] ^ flip) -
           static_cast<uint64_t>(range.lo);
  };
  std::vector<int64_t> start(range.domain + 1, 0);
  for (int64_t r = 0; r < n; ++r) ++start[slot(r) + 1];
  for (uint64_t s = 0; s < range.domain; ++s) start[s + 1] += start[s];
  std::vector<int64_t> order(static_cast<size_t>(n));
  for (int64_t r = 0; r < n; ++r) order[start[slot(r)]++] = r;
  return order;
}

}  // namespace

bool OrderRowsCountsKeys(const std::vector<SortKey>& keys, int64_t num_rows,
                         int64_t limit) {
  return FindDenseRange(keys, num_rows, limit).has_value();
}

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
    // One int64 key sorts (key, row) pairs, or counts them over a dense
    // range. Descending sorts ~key, which reverses the signed order
    // exactly; equal keys still go by row.
    const int64_t* v = keys[0].column->ints().data();
    const int64_t flip = keys[0].ascending ? 0 : ~int64_t{0};
    if (std::optional<DenseRange> range =
            FindDenseRange(keys, num_rows, limit)) {
      return CountingOrder(v, flip, num_rows, *range);
    }
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
