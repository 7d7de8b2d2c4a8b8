#include "storage/column.h"

namespace sudaf {

int64_t Column::size() const {
  switch (type_) {
    case DataType::kInt64:
      return static_cast<int64_t>(ints_.size());
    case DataType::kFloat64:
      return static_cast<int64_t>(doubles_.size());
    case DataType::kString:
      return static_cast<int64_t>(codes_.size());
  }
  return 0;
}

int64_t Column::ApproxBytes() const {
  int64_t bytes = static_cast<int64_t>(
      ints_.size() * sizeof(int64_t) + doubles_.size() * sizeof(double) +
      codes_.size() * sizeof(int32_t));
  for (const std::string& s : dict_) {
    bytes += static_cast<int64_t>(s.size() + sizeof(std::string));
  }
  return bytes;
}

void Column::Reserve(int64_t n) {
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kFloat64:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      codes_.reserve(n);
      break;
  }
}

void Column::AppendString(const std::string& v) {
  auto it = dict_index_.find(v);
  int32_t code;
  if (it == dict_index_.end()) {
    code = static_cast<int32_t>(dict_.size());
    dict_.push_back(v);
    dict_index_.emplace(v, code);
  } else {
    code = it->second;
  }
  codes_.push_back(code);
}

void Column::AppendValue(const Value& v) {
  switch (type_) {
    case DataType::kInt64:
      SUDAF_CHECK(v.type() == DataType::kInt64);
      AppendInt64(v.int64());
      break;
    case DataType::kFloat64:
      SUDAF_CHECK(v.is_numeric());
      AppendFloat64(v.AsDouble());
      break;
    case DataType::kString:
      SUDAF_CHECK(v.type() == DataType::kString);
      AppendString(v.string());
      break;
  }
}

void Column::AppendRows(const Column& src, const int64_t* rows, int64_t n) {
  SUDAF_CHECK(type_ == src.type_);
  switch (type_) {
    case DataType::kInt64:
      for (int64_t i = 0; i < n; ++i) ints_.push_back(src.ints_[rows[i]]);
      break;
    case DataType::kFloat64:
      for (int64_t i = 0; i < n; ++i) {
        doubles_.push_back(src.doubles_[rows[i]]);
      }
      break;
    case DataType::kString:
      for (int64_t i = 0; i < n; ++i) {
        AppendString(src.dict_[src.codes_[rows[i]]]);
      }
      break;
  }
}

void Column::AppendColumn(const Column& src) {
  SUDAF_CHECK(type_ == src.type_);
  switch (type_) {
    case DataType::kInt64:
      ints_.insert(ints_.end(), src.ints_.begin(), src.ints_.end());
      break;
    case DataType::kFloat64:
      doubles_.insert(doubles_.end(), src.doubles_.begin(),
                      src.doubles_.end());
      break;
    case DataType::kString: {
      std::vector<int32_t> code_of(src.dict_.size(), -1);
      for (int32_t c : src.codes_) {
        int32_t& code = code_of[c];
        if (code < 0) {
          AppendString(src.dict_[c]);
          code = codes_.back();
        } else {
          codes_.push_back(code);
        }
      }
      break;
    }
  }
}

Value Column::GetValue(int64_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return Value(ints_[row]);
    case DataType::kFloat64:
      return Value(doubles_[row]);
    case DataType::kString:
      return Value(dict_[codes_[row]]);
  }
  return Value();
}

void Column::PrepareGatherFrom(const Column& src, int64_t n) {
  SUDAF_CHECK(type_ == src.type_);
  SUDAF_CHECK(size() == 0);
  switch (type_) {
    case DataType::kInt64:
      ints_.resize(n);
      break;
    case DataType::kFloat64:
      doubles_.resize(n);
      break;
    case DataType::kString:
      codes_.resize(n);
      dict_ = src.dict_;
      dict_index_ = src.dict_index_;
      break;
  }
}

void Column::GatherRange(const Column& src, const int64_t* rows, int64_t lo,
                         int64_t hi) {
  switch (type_) {
    case DataType::kInt64:
      for (int64_t i = lo; i < hi; ++i) ints_[i] = src.ints_[rows[i]];
      break;
    case DataType::kFloat64:
      for (int64_t i = lo; i < hi; ++i) doubles_[i] = src.doubles_[rows[i]];
      break;
    case DataType::kString:
      for (int64_t i = lo; i < hi; ++i) codes_[i] = src.codes_[rows[i]];
      break;
  }
}

int32_t Column::LookupDictionary(const std::string& s) const {
  auto it = dict_index_.find(s);
  return it == dict_index_.end() ? -1 : it->second;
}

}  // namespace sudaf
