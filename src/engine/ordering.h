#ifndef SUDAF_ENGINE_ORDERING_H_
#define SUDAF_ENGINE_ORDERING_H_

// The one ORDER BY kernel: both the engine's SortAndLimit and the SUDAF
// rewriter's output-first group order sort row indices with it.
//
// Keys are compared on their typed column vectors, never boxed:
//   * int64 exactly (2^53 and 2^53 + 1 are distinct keys);
//   * float64 with NaN above every number, as PostgreSQL orders it, so
//     ascending puts NaN last and descending puts it first; -0.0 and 0.0
//     tie;
//   * strings by content, read through the column's dictionary by
//     reference.
// Rows equal on every key keep their index order, so the result equals a
// stable sort; when a LIMIT cuts the list only the kept prefix is sorted
// (std::partial_sort). A single int64 key whose value range is at most a
// small multiple of the row count, with no LIMIT cut, is ordered by a
// stable counting sort in linear time instead, to the same order.

#include <cstdint>
#include <vector>

#include "storage/column.h"

namespace sudaf {

struct SortKey {
  const Column* column = nullptr;
  bool ascending = true;
};

// Three-way comparison of rows `a` and `b` of `col` under the rules above.
int CompareColumnRows(const Column& col, int64_t a, int64_t b);

// Row indices of [0, num_rows) in `keys` order, cut to the first `limit`
// (limit < 0: no cut). With no keys the order is the row order.
std::vector<int64_t> OrderRows(const std::vector<SortKey>& keys,
                               int64_t num_rows, int64_t limit);

// True when OrderRows(keys, num_rows, limit) takes the counting sort.
bool OrderRowsCountsKeys(const std::vector<SortKey>& keys, int64_t num_rows,
                         int64_t limit);

}  // namespace sudaf

#endif  // SUDAF_ENGINE_ORDERING_H_
