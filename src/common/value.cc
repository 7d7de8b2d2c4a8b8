#include "common/value.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace sudaf {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "INT64";
    case DataType::kFloat64:
      return "FLOAT64";
    case DataType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

double Value::AsDouble() const {
  switch (data_.index()) {
    case 0:
      return static_cast<double>(std::get<int64_t>(data_));
    case 1:
      return std::get<double>(data_);
    default:
      SUDAF_CHECK_MSG(false, "AsDouble() on STRING value");
      return 0.0;
  }
}

bool Value::Equals(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    return AsDouble() == other.AsDouble();
  }
  if (type() != other.type()) return false;
  return string() == other.string();
}

int Value::Compare(const Value& other) const {
  if (type() == DataType::kInt64 && other.type() == DataType::kInt64) {
    return int64() < other.int64() ? -1 : (int64() > other.int64() ? 1 : 0);
  }
  if (is_numeric() && other.is_numeric()) {
    double a = AsDouble();
    double b = other.AsDouble();
    if (a < b) return -1;
    if (a > b) return 1;
    if (std::isnan(a) != std::isnan(b)) return std::isnan(a) ? 1 : -1;
    return 0;
  }
  if (is_numeric() != other.is_numeric()) return is_numeric() ? -1 : 1;
  return string().compare(other.string());
}

std::string Value::ToString() const {
  switch (data_.index()) {
    case 0:
      return std::to_string(std::get<int64_t>(data_));
    case 1: {
      std::ostringstream os;
      os << std::get<double>(data_);
      return os.str();
    }
    default:
      return "'" + std::get<std::string>(data_) + "'";
  }
}

std::string FormatExactDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  if (!std::isnan(v) && std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

}  // namespace sudaf
