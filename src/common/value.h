#ifndef SUDAF_COMMON_VALUE_H_
#define SUDAF_COMMON_VALUE_H_

// Dynamically-typed (boxed) runtime value.
//
// `Value` is used (a) in the row-at-a-time evaluation paths that model how
// engines execute hardcoded UDAFs (PL/pgSQL, Scala UDAFs box every input),
// and (b) for literals inside expression trees. The fast SUDAF execution
// paths operate directly on typed column vectors and never box.

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"

namespace sudaf {

enum class DataType { kInt64, kFloat64, kString };

// Returns "INT64", "FLOAT64" or "STRING".
const char* DataTypeName(DataType type);

class Value {
 public:
  Value() : data_(int64_t{0}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}

  DataType type() const {
    switch (data_.index()) {
      case 0:
        return DataType::kInt64;
      case 1:
        return DataType::kFloat64;
      default:
        return DataType::kString;
    }
  }

  bool is_numeric() const { return data_.index() <= 1; }

  int64_t int64() const { return std::get<int64_t>(data_); }
  double float64() const { return std::get<double>(data_); }
  const std::string& string() const { return std::get<std::string>(data_); }

  // Numeric coercion: int64 and float64 both read as double.
  // CHECK-fails on strings; callers type-check first.
  double AsDouble() const;

  // Structural equality; numerics compare by value across int64/float64.
  bool Equals(const Value& other) const;

  // Three-way comparison for ORDER BY. Numerics before strings; two
  // int64s compare exactly, other numerics as doubles with NaN above every
  // number (engine/ordering.h). Returns <0, 0, >0.
  int Compare(const Value& other) const;

  // Display text: a float64 prints with 6 significant digits.
  std::string ToString() const;

 private:
  std::variant<int64_t, double, std::string> data_;
};

// `v` as text that parses back to exactly `v`: the 6-significant-digit
// form Value::ToString prints when that round-trips, "%.17g" otherwise.
// Identity keys (cache keys, data signatures, rewrite-memo keys) format
// their numbers with this, so two constants that differ only past the
// 6th digit never share a key.
std::string FormatExactDouble(double v);

}  // namespace sudaf

#endif  // SUDAF_COMMON_VALUE_H_
