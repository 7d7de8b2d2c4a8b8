#include "storage/table.h"

#include <algorithm>
#include <sstream>

namespace sudaf {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (int i = 0; i < schema_.num_fields(); ++i) {
    columns_.push_back(std::make_unique<Column>(schema_.field(i).type));
  }
}

Result<const Column*> Table::GetColumn(const std::string& name) const {
  int idx = schema_.FindField(name);
  if (idx < 0) return Status::NotFound("no column named " + name);
  return columns_[idx].get();
}

void Table::Reserve(int64_t n) {
  for (auto& col : columns_) col->Reserve(n);
}

int64_t Table::ApproxBytes() const {
  int64_t bytes = 0;
  for (const auto& col : columns_) bytes += col->ApproxBytes();
  return bytes;
}

void Table::AppendRow(const std::vector<Value>& values) {
  SUDAF_CHECK(static_cast<int>(values.size()) == num_columns());
  for (int i = 0; i < num_columns(); ++i) {
    columns_[i]->AppendValue(values[i]);
  }
  ++num_rows_;
}

void Table::AppendTable(const Table& src) {
  SUDAF_CHECK(src.num_columns() == num_columns());
  for (int i = 0; i < num_columns(); ++i) {
    columns_[i]->AppendColumn(src.column(i));
  }
  FinishBulkAppend();
}

int64_t Table::AppendChunk(const Table& src) {
  SUDAF_CHECK(src.num_columns() == num_columns());
  int64_t copied = 0;
  for (int i = 0; i < num_columns(); ++i) {
    copied += columns_[i]->AppendChunk(src.column(i));
  }
  FinishBulkAppend();
  return copied;
}

std::vector<int64_t> Table::ChunkEnds() const {
  if (columns_.empty()) return {num_rows_};
  const Column& col = *columns_[0];
  std::vector<int64_t> ends(col.num_chunks());
  for (int c = 0; c < col.num_chunks(); ++c) ends[c] = col.chunk_end(c);
  return ends;
}

void Table::FinishBulkAppend() {
  int64_t n = columns_.empty() ? 0 : columns_[0]->size();
  for (const auto& col : columns_) {
    SUDAF_CHECK_MSG(col->size() == n, "ragged bulk append");
  }
  num_rows_ = n;
}

std::string Table::ToString(int64_t max_rows) const {
  std::ostringstream os;
  for (int c = 0; c < num_columns(); ++c) {
    if (c > 0) os << " | ";
    os << schema_.field(c).name;
  }
  os << "\n";
  int64_t n = std::min(num_rows_, max_rows);
  for (int64_t r = 0; r < n; ++r) {
    for (int c = 0; c < num_columns(); ++c) {
      if (c > 0) os << " | ";
      os << columns_[c]->GetValue(r).ToString();
    }
    os << "\n";
  }
  if (n < num_rows_) {
    os << "... (" << num_rows_ - n << " more rows)\n";
  }
  return os.str();
}

}  // namespace sudaf
