#ifndef SUDAF_ENGINE_INPUT_BINDING_H_
#define SUDAF_ENGINE_INPUT_BINDING_H_

// Input columns read in place.
//
// A prepared query input is a sequence of tuples. For a single-table scan,
// tuple i is a row of the base table: rows[i] of the selection the WHERE
// filter produced, or base + i of an unfiltered (identity) range. The
// grouping and fused-state stages bind each column name once to a
// BoundColumn and read base storage through that row map, instead of
// copying the selected rows into a frame first.

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
};

// Resolves a column name of the input to its BoundColumn.
using ColumnBinder =
    std::function<Result<BoundColumn>(const std::string& column)>;

}  // namespace sudaf

#endif  // SUDAF_ENGINE_INPUT_BINDING_H_
