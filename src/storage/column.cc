#include "storage/column.h"

namespace sudaf {

namespace {

// Bytes of one value of `type` in a chunk buffer.
int64_t ValueWidth(DataType type) {
  return type == DataType::kString ? int64_t{sizeof(int32_t)}
                                   : int64_t{sizeof(int64_t)};
}

// Replaces *a with an exactly-sized copy of a ++ b; returns the bytes
// copied.
template <typename T>
int64_t ConcatExact(std::vector<T>* a, const std::vector<T>& b) {
  if (b.empty()) return 0;
  std::vector<T> merged;
  merged.reserve(a->size() + b.size());
  merged.insert(merged.end(), a->begin(), a->end());
  merged.insert(merged.end(), b.begin(), b.end());
  *a = std::move(merged);
  return static_cast<int64_t>(a->size() * sizeof(T));
}

}  // namespace

int64_t Column::ApproxBytes() const {
  int64_t bytes = 0;
  for (const Chunk& c : chunks_) bytes += RowsOf(c) * ValueWidth(type_);
  for (const std::string& s : dict_) {
    bytes += static_cast<int64_t>(s.size() + sizeof(std::string));
  }
  return bytes;
}

void Column::Reserve(int64_t n) {
  Chunk& last = chunks_.back();
  ReserveRows(&last, std::max<int64_t>(n - last.begin, 0));
}

void Column::ReserveRows(Chunk* c, int64_t rows) const {
  switch (type_) {
    case DataType::kInt64:
      c->ints.reserve(rows);
      break;
    case DataType::kFloat64:
      c->doubles.reserve(rows);
      break;
    case DataType::kString:
      c->codes.reserve(rows);
      break;
  }
}

int32_t Column::Intern(const std::string& s) {
  auto [it, inserted] =
      dict_index_.try_emplace(s, static_cast<int32_t>(dict_.size()));
  // Copy from the map's key: `s` may be an element of dict_ itself.
  if (inserted) dict_.push_back(it->first);
  return it->second;
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
  if (&src == this) {
    const Column copy = src;
    AppendRows(copy, rows, n);
    return;
  }
  Chunk& last = chunks_.back();
  switch (type_) {
    case DataType::kInt64:
      src.ForEachRowValue<int64_t>(
          rows, 0, n, [&](int64_t, int64_t v) { last.ints.push_back(v); });
      break;
    case DataType::kFloat64:
      src.ForEachRowValue<double>(
          rows, 0, n, [&](int64_t, double v) { last.doubles.push_back(v); });
      break;
    case DataType::kString:
      src.ForEachRowValue<int32_t>(rows, 0, n, [&](int64_t, int32_t code) {
        last.codes.push_back(Intern(src.dict_[code]));
      });
      break;
  }
}

void Column::AppendAll(const Column& src, Chunk* dst) {
  const int64_t n = src.size();
  auto copy = [&](auto* out) {
    using T = typename std::remove_pointer_t<decltype(out)>::value_type;
    src.ForEachSpan<T>(0, n, [&](const T* v, int64_t a, int64_t b) {
      out->insert(out->end(), v, v + (b - a));
    });
  };
  switch (type_) {
    case DataType::kInt64:
      copy(&dst->ints);
      break;
    case DataType::kFloat64:
      copy(&dst->doubles);
      break;
    case DataType::kString: {
      std::vector<int32_t> code_of(src.dict_.size(), -1);
      src.ForEachSpan<int32_t>(0, n, [&](const int32_t* v, int64_t a,
                                         int64_t b) {
        for (int64_t i = 0; i < b - a; ++i) {
          int32_t& code = code_of[v[i]];
          if (code < 0) code = Intern(src.dict_[v[i]]);
          dst->codes.push_back(code);
        }
      });
      break;
    }
  }
}

void Column::AppendColumn(const Column& src) {
  SUDAF_CHECK(type_ == src.type_);
  if (&src == this) {
    const Column copy = src;
    AppendColumn(copy);
    return;
  }
  AppendAll(src, &chunks_.back());
}

int64_t Column::AppendChunk(const Column& src) {
  SUDAF_CHECK(type_ == src.type_);
  const int64_t n = src.size();
  if (n == 0) return 0;
  // Built aside and pushed last: `src` may be this column, and its chunks
  // must stay put while they are read.
  Chunk chunk;
  chunk.begin = size();
  ReserveRows(&chunk, n);
  AppendAll(src, &chunk);
  int64_t copied = n * ValueWidth(type_);
  if (RowsOf(chunks_.back()) == 0) {
    chunks_.back() = std::move(chunk);  // an empty column's only chunk
    return copied;
  }
  chunks_.push_back(std::move(chunk));
  while (chunks_.size() >= 2 &&
         RowsOf(chunks_.back()) >= RowsOf(chunks_[chunks_.size() - 2])) {
    copied += MergeLastTwo();
  }
  return copied;
}

int64_t Column::MergeLastTwo() {
  Chunk last = std::move(chunks_.back());
  chunks_.pop_back();
  Chunk& prev = chunks_.back();
  return ConcatExact(&prev.ints, last.ints) +
         ConcatExact(&prev.doubles, last.doubles) +
         ConcatExact(&prev.codes, last.codes);
}

Value Column::GetValue(int64_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return Value(At<int64_t>(row));
    case DataType::kFloat64:
      return Value(At<double>(row));
    case DataType::kString:
      return Value(dict_[At<int32_t>(row)]);
  }
  return Value();
}

void Column::PrepareGatherFrom(const Column& src, int64_t n) {
  SUDAF_CHECK(type_ == src.type_);
  SUDAF_CHECK(size() == 0 && chunks_.size() == 1);
  switch (type_) {
    case DataType::kInt64:
      chunks_[0].ints.resize(n);
      break;
    case DataType::kFloat64:
      chunks_[0].doubles.resize(n);
      break;
    case DataType::kString:
      chunks_[0].codes.resize(n);
      dict_ = src.dict_;
      dict_index_ = src.dict_index_;
      break;
  }
}

void Column::GatherRange(const Column& src, const int64_t* rows, int64_t lo,
                         int64_t hi) {
  switch (type_) {
    case DataType::kInt64: {
      int64_t* out = chunks_[0].ints.data();
      src.ForEachRowValue<int64_t>(rows, lo, hi,
                                   [out](int64_t i, int64_t v) { out[i] = v; });
      break;
    }
    case DataType::kFloat64: {
      double* out = chunks_[0].doubles.data();
      src.ForEachRowValue<double>(rows, lo, hi,
                                  [out](int64_t i, double v) { out[i] = v; });
      break;
    }
    case DataType::kString: {
      int32_t* out = chunks_[0].codes.data();
      src.ForEachRowValue<int32_t>(rows, lo, hi,
                                   [out](int64_t i, int32_t v) { out[i] = v; });
      break;
    }
  }
}

int32_t Column::LookupDictionary(const std::string& s) const {
  auto it = dict_index_.find(s);
  return it == dict_index_.end() ? -1 : it->second;
}

}  // namespace sudaf
