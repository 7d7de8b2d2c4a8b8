#include "storage/catalog.h"

#include <cstdio>
#include <cstdlib>
#include <functional>

namespace sudaf {

namespace {

// SplitMix64 finalizer: a cheap bijective mixer. Applied to
// hash(name) ^ epoch before combining per-table contributions by
// addition, so the combined epoch is order-independent over the name set
// but (unlike a plain epoch sum) distinct per-table histories produce
// distinct combinations.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t NameSeed(const std::string& name) {
  return Mix64(std::hash<std::string>{}(name));
}

bool SchemasMatch(const Schema& a, const Schema& b) {
  if (a.num_fields() != b.num_fields()) return false;
  for (int i = 0; i < a.num_fields(); ++i) {
    if (a.field(i).name != b.field(i).name) return false;
    if (a.field(i).type != b.field(i).type) return false;
  }
  return true;
}

}  // namespace

void Catalog::FailIfInUse(const char* op) const noexcept {
  if (calls_in_flight_.load(std::memory_order_relaxed) != 0) {
    std::fprintf(stderr,
                 "Catalog::%s while %lld call(s) are in flight on it: moving "
                 "a catalog that other threads are using is undefined — move "
                 "before sharing (docs/service.md)\n",
                 op,
                 static_cast<long long>(
                     calls_in_flight_.load(std::memory_order_relaxed)));
    std::abort();
  }
}

Catalog::Catalog(Catalog&& other) noexcept {
  other.FailIfInUse("Catalog(Catalog&&)");
  std::lock_guard<std::mutex> lock(other.mu_);
  tables_ = std::move(other.tables_);
  external_ = std::move(other.external_);
  epochs_ = std::move(other.epochs_);
  append_bytes_copied_ = other.append_bytes_copied_;
}

Catalog& Catalog::operator=(Catalog&& other) noexcept {
  if (this == &other) return *this;
  FailIfInUse("operator=(Catalog&&)");
  other.FailIfInUse("operator=(Catalog&&)");
  std::scoped_lock lock(mu_, other.mu_);
  tables_ = std::move(other.tables_);
  external_ = std::move(other.external_);
  epochs_ = std::move(other.epochs_);
  append_bytes_copied_ = other.append_bytes_copied_;
  return *this;
}

int64_t Catalog::RowsOfLocked(const std::string& name) const {
  auto ext = external_.find(name);
  if (ext != external_.end()) return ext->second->num_rows();
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second->num_rows();
  return 0;
}

void Catalog::BumpRewriteLocked(const std::string& name) {
  TableState& st = epochs_[name];
  ++st.rewrite_epoch;
  st.segment_ends.assign(1, RowsOfLocked(name));
}

Status Catalog::AddTable(const std::string& name,
                         std::unique_ptr<Table> table) {
  CallGuard guard(*this);
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  tables_.emplace(name, std::move(table));
  BumpRewriteLocked(name);
  return Status::OK();
}

void Catalog::PutTable(const std::string& name, std::unique_ptr<Table> table) {
  CallGuard guard(*this);
  std::lock_guard<std::mutex> lock(mu_);
  tables_[name] = std::move(table);
  BumpRewriteLocked(name);
}

void Catalog::PutExternalTable(const std::string& name, Table* table) {
  CallGuard guard(*this);
  std::lock_guard<std::mutex> lock(mu_);
  external_[name] = table;
  BumpRewriteLocked(name);
}

void Catalog::TouchTable(const std::string& name) {
  CallGuard guard(*this);
  std::lock_guard<std::mutex> lock(mu_);
  BumpRewriteLocked(name);
}

Status Catalog::AppendRows(const std::string& name, const Table& delta) {
  CallGuard guard(*this);
  std::lock_guard<std::mutex> lock(mu_);
  Table* table = nullptr;
  auto ext = external_.find(name);
  if (ext != external_.end()) {
    table = ext->second;
  } else {
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound("no table named " + name);
    }
    table = it->second.get();
  }
  if (!SchemasMatch(table->schema(), delta.schema())) {
    return Status::InvalidArgument("AppendRows schema mismatch for table " +
                                   name + ": have " +
                                   table->schema().ToString() + ", delta " +
                                   delta.schema().ToString());
  }
  append_bytes_copied_ += table->AppendChunk(delta);
  TableState& st = epochs_[name];
  ++st.append_epoch;
  st.segment_ends.push_back(table->num_rows());
  return Status::OK();
}

Status Catalog::NotifyAppend(const std::string& name) {
  CallGuard guard(*this);
  std::lock_guard<std::mutex> lock(mu_);
  if (external_.count(name) == 0 && tables_.count(name) == 0) {
    return Status::NotFound("no table named " + name);
  }
  const int64_t rows = RowsOfLocked(name);
  TableState& st = epochs_[name];
  const int64_t last =
      st.segment_ends.empty() ? 0 : st.segment_ends.back();
  if (rows < last) {
    // The table shrank: that was destructive, not an append. Degrade to a
    // rewrite bump so cached state is hard-invalidated, never refreshed
    // from a log that no longer describes the data.
    BumpRewriteLocked(name);
    return Status::InvalidArgument(
        "NotifyAppend on table " + name + " which shrank from " +
        std::to_string(last) + " to " + std::to_string(rows) +
        " rows; treated as a destructive rewrite");
  }
  ++st.append_epoch;
  st.segment_ends.push_back(rows);
  return Status::OK();
}

CatalogEpochs Catalog::TableEpochs(const std::string& name) const {
  CallGuard guard(*this);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = epochs_.find(name);
  if (it == epochs_.end()) return CatalogEpochs{};
  return CatalogEpochs{it->second.rewrite_epoch, it->second.append_epoch};
}

CatalogEpochs Catalog::TablesEpochs(
    const std::vector<std::string>& names) const {
  CallGuard guard(*this);
  std::lock_guard<std::mutex> lock(mu_);
  CatalogEpochs combined;
  for (const std::string& name : names) {
    // Never-registered names contribute mix(seed, 0), so "table absent"
    // and "table at epoch 0" are the same state but any later
    // registration changes the combination.
    TableState st;
    auto it = epochs_.find(name);
    if (it != epochs_.end()) st = it->second;
    const uint64_t seed = NameSeed(name);
    combined.rewrite += Mix64(seed ^ st.rewrite_epoch);
    combined.append += Mix64(seed ^ st.append_epoch);
  }
  return combined;
}

std::vector<int64_t> Catalog::TableSegments(const std::string& name) const {
  CallGuard guard(*this);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = epochs_.find(name);
  if (it == epochs_.end()) return {};
  return it->second.segment_ends;
}

int64_t Catalog::append_bytes_copied() const {
  CallGuard guard(*this);
  std::lock_guard<std::mutex> lock(mu_);
  return append_bytes_copied_;
}

Result<Table*> Catalog::GetTable(const std::string& name) const {
  CallGuard guard(*this);
  std::lock_guard<std::mutex> lock(mu_);
  auto ext = external_.find(name);
  if (ext != external_.end()) return ext->second;
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  return it->second.get();
}

bool Catalog::HasTable(const std::string& name) const {
  CallGuard guard(*this);
  std::lock_guard<std::mutex> lock(mu_);
  return external_.count(name) > 0 || tables_.count(name) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  CallGuard guard(*this);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size() + external_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  for (const auto& [name, _] : external_) {
    if (tables_.count(name) == 0) names.push_back(name);
  }
  return names;
}

}  // namespace sudaf
