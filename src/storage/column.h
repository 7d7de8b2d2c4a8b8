#ifndef SUDAF_STORAGE_COLUMN_H_
#define SUDAF_STORAGE_COLUMN_H_

// In-memory column: a typed column stored as an ordered list of contiguous
// chunks.
//
// Almost every column is a list of one chunk: loaded tables, result
// tables, cache key tables and gathered frames all are. Further chunks are
// made only by AppendChunk, which Catalog::AppendRows reaches through
// Table::AppendChunk: a delta becomes a new chunk, so an append copies the
// delta's rows and never the rows already stored. Row-wise appends
// (AppendInt64, AppendRows, AppendColumn, ...) always extend the last
// chunk. Readers of base-table storage either go through the per-row
// accessors or split their row ranges at chunk ends (ForEachSpan,
// BoundColumn::ForEachRun); over a single-chunk column every range is
// one span, read straight from the buffer.
//
// Strings are dictionary-encoded (code vector + dictionary) so that joins,
// grouping and filtering on strings stay cheap and cache-friendly. The
// dictionary is column-wide, so codes compare across chunks.

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace sudaf {

class Column {
 public:
  explicit Column(DataType type) : type_(type), chunks_(1) {}

  DataType type() const { return type_; }
  int64_t size() const {
    return chunks_.back().begin + RowsOf(chunks_.back());
  }

  // Reserves room for `n` rows in total; the capacity goes to the last
  // chunk.
  void Reserve(int64_t n);

  void AppendInt64(int64_t v) { chunks_.back().ints.push_back(v); }
  void AppendFloat64(double v) { chunks_.back().doubles.push_back(v); }
  // Appends v[0, n) to a FLOAT64 column in one copy.
  void AppendFloat64s(const double* v, int64_t n) {
    std::vector<double>& d = chunks_.back().doubles;
    d.insert(d.end(), v, v + n);
  }
  void AppendString(const std::string& v) {
    chunks_.back().codes.push_back(Intern(v));
  }
  // Appends a boxed value; CHECK-fails on a type mismatch.
  void AppendValue(const Value& v);
  // Appends src[rows[i]] for i in [0, n) (same type, rows in any order) as
  // typed copies, never boxing. Strings are re-interned, so the dictionary
  // holds only the strings appended: a LIMIT's few rows gathered from a
  // large dictionary stay small (PrepareGatherFrom adopts the whole source
  // dictionary instead).
  void AppendRows(const Column& src, const int64_t* rows, int64_t n);
  // Appends every row of `src` (same type) to the last chunk as one typed
  // bulk copy. Strings are re-interned in first-occurrence order, once per
  // distinct code, so the dictionary comes out as row-by-row AppendString
  // would build it.
  void AppendColumn(const Column& src);
  // Appends every row of `src` (same type) as a new chunk, then coalesces:
  // while the last chunk holds at least as many rows as the one before
  // it, the two merge into one exactly-sized chunk. This binary-counter
  // rule copies each row O(log k) times over k appends, keeps the chunk
  // count logarithmic, and copies a chunk only once the rows appended
  // after it add up to its size. `src` may be this column. Returns the
  // bytes of row values copied (the delta plus any merges).
  // Table::AppendChunk applies it to every column, so a table's columns
  // keep one chunk layout.
  int64_t AppendChunk(const Column& src);

  int64_t GetInt64(int64_t row) const { return At<int64_t>(row); }
  double GetFloat64(int64_t row) const { return At<double>(row); }
  const std::string& GetString(int64_t row) const {
    return dict_[At<int32_t>(row)];
  }
  // Dictionary code of the string at `row` (strings only).
  int32_t GetStringCode(int64_t row) const { return At<int32_t>(row); }

  Value GetValue(int64_t row) const;
  // Numeric read as double; CHECK-fails for strings.
  double GetNumeric(int64_t row) const {
    return type_ == DataType::kInt64 ? static_cast<double>(At<int64_t>(row))
                                     : At<double>(row);
  }

  // Whole-column buffers of a single-chunk column (result, key and
  // gathered tables, or a table never appended to through the catalog),
  // for vectorized kernels. CHECK-fail on a multi-chunk column rather than
  // return part of it; chunk-aware readers use the chunk API below.
  const std::vector<int64_t>& ints() const { return Whole<int64_t>(); }
  const std::vector<double>& doubles() const { return Whole<double>(); }
  const std::vector<int32_t>& string_codes() const {
    return Whole<int32_t>();
  }
  const std::vector<std::string>& dictionary() const { return dict_; }

  // Returns the dictionary code for `s`, or -1 if `s` never appears.
  // Useful for constant-time string equality predicates.
  int32_t LookupDictionary(const std::string& s) const;

  // --- Chunks --------------------------------------------------------------
  // Chunk c holds rows [chunk_begin(c), chunk_end(c)). T below is the
  // column's value type: int64_t (INT64), double (FLOAT64) or int32_t
  // (STRING dictionary codes).
  int num_chunks() const { return static_cast<int>(chunks_.size()); }
  int64_t chunk_begin(int c) const { return chunks_[c].begin; }
  int64_t chunk_end(int c) const {
    return chunks_[c].begin + RowsOf(chunks_[c]);
  }
  // Index of the chunk holding `row`.
  int ChunkOf(int64_t row) const {
    auto it = std::upper_bound(
        chunks_.begin() + 1, chunks_.end(), row,
        [](int64_t r, const Chunk& c) { return r < c.begin; });
    return static_cast<int>(it - chunks_.begin()) - 1;
  }
  // Values of chunk c; element 0 is row chunk_begin(c).
  template <typename T>
  const T* ChunkData(int c) const {
    return Buf<T>(chunks_[c]).data();
  }
  // Pointer to row `lo` for a range [lo, hi) inside one chunk; CHECK-fails
  // if the range straddles a chunk end.
  template <typename T>
  const T* RangeData(int64_t lo, int64_t hi) const {
    const int c = ChunkOf(lo);
    SUDAF_CHECK_MSG(hi <= chunk_end(c), "row range straddles a chunk end");
    return ChunkData<T>(c) + (lo - chunks_[c].begin);
  }
  // Calls f(v, a, b) for the pieces [a, b) of rows [lo, hi) that lie in
  // one chunk each, in row order; v[0] is row a. A single-chunk column
  // makes one call.
  template <typename T, typename F>
  void ForEachSpan(int64_t lo, int64_t hi, const F& f) const {
    for (int c = ChunkOf(lo); lo < hi; ++c) {
      const int64_t end = std::min(hi, chunk_end(c));
      f(ChunkData<T>(c) + (lo - chunks_[c].begin), lo, end);
      lo = end;
    }
  }
  // Calls f(i, value of row rows[i]) for i in [lo, hi); `rows` may come in
  // any order (a join's build side does). A cursor follows the chunk of
  // the last row, so ascending rows look theirs up once per chunk.
  template <typename T, typename F>
  void ForEachRowValue(const int64_t* rows, int64_t lo, int64_t hi,
                       const F& f) const {
    const T* v = ChunkData<T>(0);
    int64_t begin = 0;
    int64_t end = chunk_end(0);
    for (int64_t i = lo; i < hi; ++i) {
      const int64_t r = rows[i];
      if (r < begin || r >= end) {
        const int c = ChunkOf(r);
        v = ChunkData<T>(c);
        begin = chunks_[c].begin;
        end = chunk_end(c);
      }
      f(i, v[r - begin]);
    }
  }

  // --- Parallel gather (engine executor) ---------------------------------
  // Prepares this (empty) column to receive `n` rows gathered from `src`
  // (same type): value buffers are sized with unspecified contents and, for
  // strings, `src`'s dictionary is adopted wholesale so gathered codes stay
  // valid with no per-row dictionary lookups. Call once, then fill disjoint
  // [lo, hi) windows — from any threads — with GatherRange, then
  // Table::FinishBulkAppend. The result is one chunk.
  void PrepareGatherFrom(const Column& src, int64_t n);

  // Writes output positions [lo, hi): this[i] = src[rows[i]], `src` in any
  // chunk layout. Safe to call concurrently for disjoint ranges after
  // PrepareGatherFrom.
  void GatherRange(const Column& src, const int64_t* rows, int64_t lo,
                   int64_t hi);

  // Approximate heap footprint of the value buffers of every chunk
  // (dictionary included), used for QueryGuard memory budgeting.
  int64_t ApproxBytes() const;

 private:
  // Rows [begin, begin + size) in the buffer of the column's type; the
  // other two stay empty.
  struct Chunk {
    int64_t begin = 0;
    std::vector<int64_t> ints;     // kInt64
    std::vector<double> doubles;   // kFloat64
    std::vector<int32_t> codes;    // kString
  };

  template <typename T>
  static const std::vector<T>& Buf(const Chunk& c) {
    if constexpr (std::is_same_v<T, int64_t>) {
      return c.ints;
    } else if constexpr (std::is_same_v<T, double>) {
      return c.doubles;
    } else {
      static_assert(std::is_same_v<T, int32_t>);
      return c.codes;
    }
  }
  template <typename T>
  static std::vector<T>& Buf(Chunk& c) {
    return const_cast<std::vector<T>&>(Buf<T>(std::as_const(c)));
  }
  // Only the buffer of the column's type is non-empty.
  static int64_t RowsOf(const Chunk& c) {
    return static_cast<int64_t>(c.ints.size() + c.doubles.size() +
                                c.codes.size());
  }

  template <typename T>
  const T& At(int64_t row) const {
    if (chunks_.size() == 1) [[likely]] {
      return Buf<T>(chunks_[0])[row];
    }
    const Chunk& c = chunks_[ChunkOf(row)];
    return Buf<T>(c)[row - c.begin];
  }
  template <typename T>
  const std::vector<T>& Whole() const {
    SUDAF_CHECK_MSG(chunks_.size() == 1,
                    "whole-buffer read of a multi-chunk column");
    return Buf<T>(chunks_[0]);
  }

  // Dictionary code of `s`, adding it when new. `s` may refer into dict_.
  int32_t Intern(const std::string& s);
  void ReserveRows(Chunk* c, int64_t rows) const;
  // Appends every row of `src` to `dst`, re-interning strings once per
  // distinct code in first-occurrence order. `dst` is not a chunk of
  // `src`.
  void AppendAll(const Column& src, Chunk* dst);
  // Merges the last two chunks into one exactly-sized chunk; returns the
  // bytes copied.
  int64_t MergeLastTwo();

  DataType type_;
  std::vector<Chunk> chunks_;  // never empty; only chunk 0 may be empty
  std::vector<std::string> dict_;  // kString dictionary
  std::unordered_map<std::string, int32_t> dict_index_;
};

}  // namespace sudaf

#endif  // SUDAF_STORAGE_COLUMN_H_
