#ifndef SUDAF_ENGINE_INPUT_BINDING_H_
#define SUDAF_ENGINE_INPUT_BINDING_H_

// Input columns read in place.
//
// A prepared query input is a sequence of tuples. For a single-table scan,
// tuple i is a row of the base table: rows[i] of the selection the WHERE
// filter produced, or base + i of an unfiltered (identity) range. The
// grouping and fused-state stages bind each column name once to a
// BoundColumn and read base storage through that row map, instead of
// copying the selected rows into a frame first. Base storage may hold
// several chunks (storage/column.h); ForEachRun splits a tuple range at
// chunk ends so each run reads one contiguous buffer.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.h"
#include "storage/column.h"

namespace sudaf {

struct BoundColumn {
  const Column* col = nullptr;
  const int64_t* rows = nullptr;  // null: identity range from `base`
  int64_t base = 0;

  // Row of `col` that holds tuple i.
  int64_t Row(int64_t i) const { return rows != nullptr ? rows[i] : base + i; }

  // Calls f(v, first, a, b) for each run [a, b) of tuples [lo, hi) whose
  // rows lie in one chunk of `col`, in tuple order: tuple i of the run
  // reads v[Row(i) - first]. The row ids must ascend (a single-table
  // selection's do), so lower_bound finds each run's end. A single-chunk
  // column makes one call with first == 0.
  template <typename T, typename F>
  void ForEachRun(int64_t lo, int64_t hi, const F& f) const {
    while (lo < hi) {
      const int c = col->ChunkOf(Row(lo));
      const int64_t end = col->chunk_end(c);
      const int64_t run_hi =
          rows != nullptr ? std::lower_bound(rows + lo, rows + hi, end) - rows
                          : std::min(hi, end - base);
      f(col->ChunkData<T>(c), col->chunk_begin(c), lo, run_hi);
      lo = run_hi;
    }
  }
};

// Resolves a column name of the input to its BoundColumn.
using ColumnBinder =
    std::function<Result<BoundColumn>(const std::string& column)>;

}  // namespace sudaf

#endif  // SUDAF_ENGINE_INPUT_BINDING_H_
