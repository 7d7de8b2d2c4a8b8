#ifndef SUDAF_STORAGE_TABLE_H_
#define SUDAF_STORAGE_TABLE_H_

// In-memory columnar table.
//
// Every column of a table has the same chunk layout (storage/column.h):
// one chunk, unless Catalog::AppendRows grew the table through
// AppendChunk, the only operation that adds chunks, and which adds one to
// every column at once. Each other append extends the last chunk.

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace sudaf {

class Table {
 public:
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  int num_columns() const { return schema_.num_fields(); }
  int64_t num_rows() const { return num_rows_; }

  Column& column(int i) { return *columns_[i]; }
  const Column& column(int i) const { return *columns_[i]; }

  // Returns the column named `name` or an error if absent.
  Result<const Column*> GetColumn(const std::string& name) const;

  // Reserves room for `n` rows in total in every column's last chunk.
  void Reserve(int64_t n);

  // Appends one row; `values.size()` must equal the column count and types
  // must match the schema.
  void AppendRow(const std::vector<Value>& values);

  // Appends every row of `src`, whose column types must match, to the
  // last chunk, column by column through Column::AppendColumn: a
  // single-chunk table (a cache key table) stays one contiguous chunk.
  void AppendTable(const Table& src);

  // Appends every row of `src`, whose column types must match, as a new
  // chunk of every column, coalescing trailing chunks by the binary-counter
  // rule (Column::AppendChunk). `src` may be this table. Returns the bytes
  // of row values copied. Catalog::AppendRows is the caller.
  int64_t AppendChunk(const Table& src);

  // Cumulative row counts at the chunk ends shared by every column
  // (ascending, the last == num_rows()).
  std::vector<int64_t> ChunkEnds() const;

  // Finishes a batch of raw per-column appends done directly on `column(i)`;
  // verifies all columns have equal length and updates the row count.
  void FinishBulkAppend();

  // Renders up to `max_rows` rows as an aligned text table (for examples
  // and debugging).
  std::string ToString(int64_t max_rows = 20) const;

  // Approximate heap footprint of all column chunks, used for QueryGuard
  // memory budgeting.
  int64_t ApproxBytes() const;

 private:
  Schema schema_;
  std::vector<std::unique_ptr<Column>> columns_;
  int64_t num_rows_ = 0;
};

}  // namespace sudaf

#endif  // SUDAF_STORAGE_TABLE_H_
