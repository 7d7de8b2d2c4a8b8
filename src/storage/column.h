#ifndef SUDAF_STORAGE_COLUMN_H_
#define SUDAF_STORAGE_COLUMN_H_

// In-memory column: a typed, densely packed vector of values.
//
// Strings are dictionary-encoded (code vector + dictionary) so that joins,
// grouping and filtering on strings stay cheap and cache-friendly.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace sudaf {

class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  int64_t size() const;

  void Reserve(int64_t n);

  void AppendInt64(int64_t v) { ints_.push_back(v); }
  void AppendFloat64(double v) { doubles_.push_back(v); }
  void AppendString(const std::string& v);
  // Appends a boxed value; CHECK-fails on a type mismatch.
  void AppendValue(const Value& v);
  // Appends src[rows[i]] for i in [0, n) (same type) as typed copies,
  // never boxing. Strings are re-interned, so the dictionary holds only
  // the strings appended: a LIMIT's few rows gathered from a large
  // dictionary stay small (PrepareGatherFrom adopts the whole source
  // dictionary instead).
  void AppendRows(const Column& src, const int64_t* rows, int64_t n);
  // Appends every row of `src` (same type) as one typed bulk copy. Strings
  // are re-interned in first-occurrence order, once per distinct code, so
  // the dictionary comes out as row-by-row AppendString would build it.
  void AppendColumn(const Column& src);

  int64_t GetInt64(int64_t row) const { return ints_[row]; }
  double GetFloat64(int64_t row) const { return doubles_[row]; }
  const std::string& GetString(int64_t row) const {
    return dict_[codes_[row]];
  }
  // Dictionary code of the string at `row` (strings only).
  int32_t GetStringCode(int64_t row) const { return codes_[row]; }

  Value GetValue(int64_t row) const;
  // Numeric read as double; CHECK-fails for strings.
  double GetNumeric(int64_t row) const {
    return type_ == DataType::kInt64 ? static_cast<double>(ints_[row])
                                     : doubles_[row];
  }

  // Direct access to the underlying buffers for vectorized kernels.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<int32_t>& string_codes() const { return codes_; }
  const std::vector<std::string>& dictionary() const { return dict_; }

  // Returns the dictionary code for `s`, or -1 if `s` never appears.
  // Useful for constant-time string equality predicates.
  int32_t LookupDictionary(const std::string& s) const;

  // --- Parallel gather (engine executor) ---------------------------------
  // Prepares this (empty) column to receive `n` rows gathered from `src`
  // (same type): value buffers are sized with unspecified contents and, for
  // strings, `src`'s dictionary is adopted wholesale so gathered codes stay
  // valid with no per-row dictionary lookups. Call once, then fill disjoint
  // [lo, hi) windows — from any threads — with GatherRange, then
  // Table::FinishBulkAppend.
  void PrepareGatherFrom(const Column& src, int64_t n);

  // Writes output positions [lo, hi): this[i] = src[rows[i]]. Safe to call
  // concurrently for disjoint ranges after PrepareGatherFrom.
  void GatherRange(const Column& src, const int64_t* rows, int64_t lo,
                   int64_t hi);

  // Approximate heap footprint of the value buffers (dictionary included),
  // used for QueryGuard memory budgeting.
  int64_t ApproxBytes() const;

 private:
  DataType type_;
  std::vector<int64_t> ints_;        // kInt64
  std::vector<double> doubles_;      // kFloat64
  std::vector<int32_t> codes_;       // kString
  std::vector<std::string> dict_;    // kString dictionary
  std::unordered_map<std::string, int32_t> dict_index_;
};

}  // namespace sudaf

#endif  // SUDAF_STORAGE_COLUMN_H_
