#include "sudaf/cache_persist.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/vfs.h"

namespace sudaf {

namespace {

constexpr char kSnapshotMagic[] = "SUDFCSH2";
constexpr char kWalMagic[] = "SUDFWAL2";
constexpr size_t kMagicLen = 8;
// v2: sets carry the (rewrite, append) epoch pair plus their covered-row
// boundary instead of a single combined epoch, so recovered sets can be
// incrementally refreshed. v1 files fail the header check and are dropped
// whole (recovery treats them as one torn unit and re-compacts).
constexpr uint32_t kFormatVersion = 2;
constexpr size_t kHeaderLen = kMagicLen + 4;   // magic + version
constexpr size_t kRecordHeaderLen = 8;         // len + crc
constexpr uint32_t kMaxRecordLen = 1u << 30;

enum RecordType : uint8_t {
  kSnapshotSet = 1,   // full group set including entries
  kWalUpsertSet = 2,  // set created (entries arrive as kWalInsertEntry)
  kWalInsertEntry = 3,
  kWalEraseSet = 4,
};

// --- little-endian primitives ----------------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutI32(std::string* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// `n` 4- or 8-byte words in little-endian order: one block copy on
// little-endian hosts, word by word elsewhere — the same bytes either way.
// Doubles go as their raw bit patterns: recovered states must be
// bit-identical, so no textual round-trip is allowed anywhere in the format.
template <typename T>
void PutWords(std::string* out, const T* v, size_t n) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  if constexpr (std::endian::native == std::endian::little) {
    out->append(reinterpret_cast<const char*>(v), n * sizeof(T));
  } else {
    for (size_t i = 0; i < n; ++i) {
      if constexpr (sizeof(T) == 8) {
        uint64_t bits;
        std::memcpy(&bits, &v[i], sizeof(bits));
        PutU64(out, bits);
      } else {
        uint32_t bits;
        std::memcpy(&bits, &v[i], sizeof(bits));
        PutU32(out, bits);
      }
    }
  }
}

void PutDoubles(std::string* out, const std::vector<double>& v) {
  PutU64(out, static_cast<uint64_t>(v.size()));
  PutWords(out, v.data(), v.size());
}

uint32_t ReadU32At(std::string_view data, size_t pos) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data[pos + i]))
         << (8 * i);
  }
  return v;
}

// Bounds-checked cursor over one record payload. Every Read* returns false
// on underrun; a false anywhere marks the record malformed (dropped and
// counted, never fatal).
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v) {
    if (data_.size() - pos_ < 1) return false;
    *v = static_cast<unsigned char>(data_[pos_++]);
    return true;
  }

  bool ReadU32(uint32_t* v) {
    if (data_.size() - pos_ < 4) return false;
    *v = ReadU32At(data_, pos_);
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (data_.size() - pos_ < 8) return false;
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return true;
  }

  bool ReadI32(int32_t* v) {
    uint32_t u;
    if (!ReadU32(&u)) return false;
    *v = static_cast<int32_t>(u);
    return true;
  }

  bool ReadI64(int64_t* v) {
    uint64_t u;
    if (!ReadU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  bool ReadDouble(double* v) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool ReadString(std::string* s) {
    uint32_t n;
    if (!ReadU32(&n)) return false;
    if (data_.size() - pos_ < n) return false;
    s->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool ReadDoubles(std::vector<double>* v) {
    uint64_t n;
    if (!ReadU64(&n)) return false;
    if ((data_.size() - pos_) / 8 < n) return false;  // corrupt count
    v->resize(static_cast<size_t>(n));
    for (auto& d : *v) {
      if (!ReadDouble(&d)) return false;
    }
    return true;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// --- table / entry / set encoding ------------------------------------------

void PutTable(std::string* out, const Table* table) {
  if (table == nullptr) {
    PutU8(out, 0);
    return;
  }
  PutU8(out, 1);
  PutU32(out, static_cast<uint32_t>(table->num_columns()));
  for (int c = 0; c < table->num_columns(); ++c) {
    PutString(out, table->schema().field(c).name);
    PutU8(out, static_cast<uint8_t>(table->schema().field(c).type));
  }
  PutU64(out, static_cast<uint64_t>(table->num_rows()));
  for (int c = 0; c < table->num_columns(); ++c) {
    const Column& col = table->column(c);
    switch (col.type()) {
      case DataType::kInt64:
        PutWords(out, col.ints().data(), col.ints().size());
        break;
      case DataType::kFloat64:
        PutWords(out, col.doubles().data(), col.doubles().size());
        break;
      case DataType::kString: {
        const std::vector<std::string>& dict = col.dictionary();
        PutU32(out, static_cast<uint32_t>(dict.size()));
        for (const std::string& s : dict) PutString(out, s);
        PutWords(out, col.string_codes().data(), col.string_codes().size());
        break;
      }
    }
  }
}

// Bytes PutTable writes for `table`, to reserve a payload before encoding.
size_t TableBytes(const Table* table) {
  if (table == nullptr) return 1;
  size_t bytes = 1 + 4 + 8;
  for (int c = 0; c < table->num_columns(); ++c) {
    bytes += 4 + table->schema().field(c).name.size() + 1;
    const Column& col = table->column(c);
    bytes += static_cast<size_t>(col.size()) *
             (col.type() == DataType::kString ? 4 : 8);
    if (col.type() == DataType::kString) {
      bytes += 4;
      for (const std::string& s : col.dictionary()) bytes += 4 + s.size();
    }
  }
  return bytes;
}

bool ReadTable(Reader* r, std::unique_ptr<Table>* out) {
  uint8_t present;
  if (!r->ReadU8(&present)) return false;
  if (present == 0) {
    out->reset();
    return true;
  }
  uint32_t num_cols;
  if (!r->ReadU32(&num_cols) || num_cols > 4096) return false;
  Schema schema;
  for (uint32_t c = 0; c < num_cols; ++c) {
    std::string name;
    uint8_t type;
    if (!r->ReadString(&name) || !r->ReadU8(&type)) return false;
    if (type > static_cast<uint8_t>(DataType::kString)) return false;
    if (!schema.AddField({std::move(name), static_cast<DataType>(type)})
             .ok()) {
      return false;
    }
  }
  uint64_t num_rows;
  if (!r->ReadU64(&num_rows)) return false;
  auto table = std::make_unique<Table>(std::move(schema));
  for (uint32_t c = 0; c < num_cols; ++c) {
    Column& col = table->column(c);
    switch (col.type()) {
      case DataType::kInt64:
        for (uint64_t row = 0; row < num_rows; ++row) {
          int64_t v;
          if (!r->ReadI64(&v)) return false;
          col.AppendInt64(v);
        }
        break;
      case DataType::kFloat64:
        for (uint64_t row = 0; row < num_rows; ++row) {
          double v;
          if (!r->ReadDouble(&v)) return false;
          col.AppendFloat64(v);
        }
        break;
      case DataType::kString: {
        uint32_t dict_size;
        if (!r->ReadU32(&dict_size)) return false;
        std::vector<std::string> dict(dict_size);
        for (auto& s : dict) {
          if (!r->ReadString(&s)) return false;
        }
        for (uint64_t row = 0; row < num_rows; ++row) {
          uint32_t code;
          if (!r->ReadU32(&code) || code >= dict_size) return false;
          col.AppendString(dict[code]);
        }
        break;
      }
    }
  }
  table->FinishBulkAppend();
  *out = std::move(table);
  return true;
}

void PutEntry(std::string* out, const std::string& key,
              const StateCache::Entry& entry) {
  PutString(out, key);
  PutDoubles(out, entry.main);
  PutDoubles(out, entry.sign);
}

// Bytes PutEntry writes.
size_t EntryBytes(const std::string& key, const StateCache::Entry& entry) {
  return 4 + key.size() + 8 + 8 * entry.main.size() + 8 +
         8 * entry.sign.size();
}

bool ReadEntry(Reader* r, std::string* key, StateCache::Entry* entry) {
  return r->ReadString(key) && r->ReadDoubles(&entry->main) &&
         r->ReadDoubles(&entry->sign);
}

std::string EncodeSnapshotSet(const StateCache::GroupSet& set) {
  size_t bytes = 1 + 4 + set.data_sig.size() + 8 + 8 + 8 + 4 + 8 +
                 TableBytes(set.group_keys.get()) + 4;
  for (const auto& [key, entry] : set.entries) bytes += EntryBytes(key, entry);
  std::string p;
  p.reserve(bytes);
  PutU8(&p, kSnapshotSet);
  PutString(&p, set.data_sig);
  PutU64(&p, set.epochs.rewrite);
  PutU64(&p, set.epochs.append);
  PutI64(&p, set.covered_rows);
  PutI32(&p, set.num_groups);
  PutI64(&p, set.hits);
  PutTable(&p, set.group_keys.get());
  PutU32(&p, static_cast<uint32_t>(set.entries.size()));
  for (const auto& [key, entry] : set.entries) PutEntry(&p, key, entry);
  return p;
}

std::string FileHeader(const char* magic) {
  std::string h(magic, kMagicLen);
  PutU32(&h, kFormatVersion);
  return h;
}

bool CheckHeader(std::string_view data, const char* magic) {
  return data.size() >= kHeaderLen &&
         std::memcmp(data.data(), magic, kMagicLen) == 0 &&
         ReadU32At(data, kMagicLen) == kFormatVersion;
}

std::string FrameRecord(const std::string& payload) {
  std::string rec;
  rec.reserve(kRecordHeaderLen + payload.size());
  PutU32(&rec, static_cast<uint32_t>(payload.size()));
  uint32_t crc = Crc32c(rec.data(), 4);
  crc = Crc32c(payload.data(), payload.size(), crc);
  PutU32(&rec, crc);
  rec += payload;
  return rec;
}

// Record-size bound for a WAL scan: a record claiming to be larger than
// the configured WAL limit (with a 1 MiB floor so tiny test limits don't
// reject legitimate records) cannot be legitimate — either corruption in
// the length field that still CRCs (length is covered, so in practice a
// forged record) or a writer bug. `limit <= 0` means unbounded.
uint32_t WalRecordBound(int64_t limit) {
  constexpr int64_t kFloorBytes = 1 << 20;
  if (limit <= 0) return kMaxRecordLen;
  return static_cast<uint32_t>(std::min<int64_t>(
      kMaxRecordLen, std::max<int64_t>(limit, kFloorBytes)));
}

// Walks the record stream after the file header: the one place the
// record framing rules live, for recovery and the scrubber alike. Calls
// visit(payload, crc_ok) for each complete record, in order. Returns false
// when a torn tail — too few bytes left for a record header, or a length
// past EOF or above kMaxRecordLen — ended the walk, keeping everything
// before it.
template <typename Fn>
bool ScanRecords(std::string_view records, Fn visit) {
  size_t pos = 0;
  while (pos < records.size()) {
    if (records.size() - pos < kRecordHeaderLen) return false;
    uint32_t len = ReadU32At(records, pos);
    uint32_t stored_crc = ReadU32At(records, pos + 4);
    if (len > kMaxRecordLen || len > records.size() - pos - kRecordHeaderLen) {
      return false;
    }
    std::string_view payload = records.substr(pos + kRecordHeaderLen, len);
    uint32_t actual_crc = Crc32c(records.data() + pos, 4);
    actual_crc = Crc32c(payload.data(), payload.size(), actual_crc);
    pos += kRecordHeaderLen + len;
    visit(payload, actual_crc == stored_crc);
  }
  return true;
}

// Recovery's walk. Structural damage is counted, never propagated: a CRC
// mismatch (or an injected cache:recover_record fault, or a payload
// `apply` rejects) skips that one record; a record that is fully present
// but larger than `max_len` is skipped individually
// (records_dropped_oversize); a torn tail ends the scan.
template <typename Fn>
void ReplayRecords(std::string_view records, CacheRecoveryStats* stats,
                   uint32_t max_len, Fn apply) {
  const bool whole =
      ScanRecords(records, [&](std::string_view payload, bool crc_ok) {
        if (payload.size() > max_len) {
          // The record is intact on disk but violates the configured
          // bound: drop it alone and keep scanning — never fatal, never
          // the tail.
          ++stats->records_dropped_oversize;
          return;
        }
        if (!crc_ok || !FailPoint::Check("cache:recover_record").ok() ||
            !apply(payload)) {
          ++stats->records_dropped_checksum;
        }
      });
  if (!whole) ++stats->records_dropped_torn;
}

// The epoch gate of recovery: a persisted set is only admitted when its
// stored combined *rewrite* epoch matches what the live catalog reports
// for the same tables — otherwise rows were rewritten (or the tables were
// never re-registered) since the snapshot, and the set would serve stale
// answers. The append epoch is deliberately NOT compared here: a set that
// only lags in appends is still correct up to its covered-row boundary,
// and the next probe either folds the missing delta segments in
// (delta refresh) or hard-invalidates it — never serves it stale.
bool EpochIsLive(const Catalog& catalog, const std::string& data_sig,
                 const CatalogEpochs& stored) {
  return catalog.TablesEpochs(TablesFromDataSignature(data_sig)).rewrite ==
         stored.rewrite;
}

using SetMap = std::map<std::string, StateCache::GroupSet>;

// Applies one snapshot record to the staging map. Returns false only for
// malformed payloads; policy drops (epoch, poison) return true and count.
bool ApplySnapshotRecord(std::string_view payload, const Catalog& catalog,
                         SetMap* sets, CacheRecoveryStats* stats) {
  Reader r(payload);
  uint8_t type;
  if (!r.ReadU8(&type) || type != kSnapshotSet) return false;
  StateCache::GroupSet set;
  int64_t hits;
  uint32_t num_entries;
  if (!r.ReadString(&set.data_sig) || !r.ReadU64(&set.epochs.rewrite) ||
      !r.ReadU64(&set.epochs.append) || !r.ReadI64(&set.covered_rows) ||
      !r.ReadI32(&set.num_groups) || !r.ReadI64(&hits) ||
      !ReadTable(&r, &set.group_keys) || !r.ReadU32(&num_entries)) {
    return false;
  }
  set.hits = hits;
  bool stale = !EpochIsLive(catalog, set.data_sig, set.epochs);
  for (uint32_t i = 0; i < num_entries; ++i) {
    std::string key;
    StateCache::Entry entry;
    if (!ReadEntry(&r, &key, &entry)) return false;
    if (stale) continue;
    if (EntryIsPoisoned(entry)) {
      ++stats->entries_quarantined;
      continue;
    }
    set.entries.emplace(std::move(key), std::move(entry));
  }
  if (stale) {
    ++stats->sets_dropped_epoch;
    return true;
  }
  (*sets)[set.data_sig] = std::move(set);
  return true;
}

bool ApplyWalRecord(std::string_view payload, const Catalog& catalog,
                    SetMap* sets, CacheRecoveryStats* stats) {
  Reader r(payload);
  uint8_t type;
  if (!r.ReadU8(&type)) return false;
  switch (type) {
    case kWalUpsertSet: {
      StateCache::GroupSet set;
      if (!r.ReadString(&set.data_sig) || !r.ReadU64(&set.epochs.rewrite) ||
          !r.ReadU64(&set.epochs.append) || !r.ReadI64(&set.covered_rows) ||
          !r.ReadI32(&set.num_groups) || !ReadTable(&r, &set.group_keys)) {
        return false;
      }
      ++stats->wal_records_replayed;
      if (!EpochIsLive(catalog, set.data_sig, set.epochs)) {
        ++stats->sets_dropped_epoch;
        sets->erase(set.data_sig);  // whatever preceded it is equally stale
        return true;
      }
      auto it = sets->find(set.data_sig);
      if (it != sets->end() && it->second.epochs == set.epochs &&
          it->second.num_groups == set.num_groups) {
        // Snapshot/WAL overlap window (crash between snapshot publish and
        // WAL reset): the staged set already reflects this upsert.
        return true;
      }
      (*sets)[set.data_sig] = std::move(set);
      return true;
    }
    case kWalInsertEntry: {
      std::string sig, key;
      StateCache::Entry entry;
      if (!r.ReadString(&sig) || !ReadEntry(&r, &key, &entry)) return false;
      ++stats->wal_records_replayed;
      auto it = sets->find(sig);
      if (it == sets->end()) {
        ++stats->wal_records_skipped;  // its set was dropped or never made
        return true;
      }
      if (EntryIsPoisoned(entry)) {
        ++stats->entries_quarantined;
        return true;
      }
      it->second.entries.insert_or_assign(std::move(key), std::move(entry));
      return true;
    }
    case kWalEraseSet: {
      std::string sig;
      if (!r.ReadString(&sig)) return false;
      ++stats->wal_records_replayed;
      sets->erase(sig);
      return true;
    }
    default:
      return false;
  }
}

// Snapshot writer shared by SaveCacheSnapshot and CachePersistence::Save.
// The caller must hold a StateCache::Freeze (or be the cache's only
// thread) so the iterated sets cannot mutate mid-encode. The two
// failpoints model the two crash windows of atomic publish: during the
// tmp-file write (half the bytes land) and between write and rename
// (complete tmp, stale published file).
Status WriteSnapshotFile(const StateCache& cache, const std::string& path,
                         Vfs* vfs) {
  std::string buf = FileHeader(kSnapshotMagic);
  for (const auto& [sig, set] : cache.sets()) {
    (void)sig;
    buf += FrameRecord(EncodeSnapshotSet(*set));
  }
  Status fault = FailPoint::Check("cache:snapshot_write");
  if (!fault.ok()) {
    (void)vfs->RemoveIfExists(path + ".tmp");
    (void)vfs->Append(path + ".tmp",
                      std::string_view(buf).substr(0, buf.size() / 2));
    return fault;
  }
  fault = FailPoint::Check("cache:snapshot_rename");
  if (!fault.ok()) {
    (void)vfs->RemoveIfExists(path + ".tmp");
    (void)vfs->Append(path + ".tmp", buf);
    return fault;
  }
  return vfs->WriteAtomic(path, buf);
}

// Crash litter: a WriteAtomic that died between tmp-write and rename (or a
// deliberately-torn failpoint tmp) leaves `*.tmp` next to the store files.
// Swept on every Open/Attach so litter cannot accumulate or be mistaken
// for data. Returns the number of files removed.
int64_t SweepOrphanTmps(Vfs* vfs, const std::string& dir) {
  int64_t removed = 0;
  for (const std::string& name : vfs->ListDir(dir)) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      if (vfs->RemoveIfExists(dir + "/" + name).ok()) ++removed;
    }
  }
  return removed;
}

}  // namespace

Status SaveCacheSnapshot(const StateCache& cache, const std::string& path,
                         Vfs* vfs) {
  if (vfs == nullptr) vfs = Vfs::Default();
  StateCache::Freeze freeze(cache);
  return WriteSnapshotFile(cache, path, vfs);
}

Status LoadCacheSnapshot(const std::string& path, const Catalog& catalog,
                         StateCache* cache, CacheRecoveryStats* stats,
                         Vfs* vfs) {
  if (vfs == nullptr) vfs = Vfs::Default();
  CacheRecoveryStats local;
  if (stats == nullptr) stats = &local;
  SUDAF_ASSIGN_OR_RETURN(std::string data, vfs->ReadFile(path));
  if (!CheckHeader(data, kSnapshotMagic)) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a SUDAF cache snapshot");
  }
  SetMap sets;
  ReplayRecords(std::string_view(data).substr(kHeaderLen), stats,
                kMaxRecordLen, [&](std::string_view payload) {
                  return ApplySnapshotRecord(payload, catalog, &sets, stats);
                });
  for (auto& [sig, set] : sets) {
    (void)sig;
    ++stats->sets_recovered;
    stats->entries_recovered += static_cast<int64_t>(set.entries.size());
    cache->AdoptSet(std::move(set));
  }
  cache->EnforceBudget();
  return Status::OK();
}

// --- CachePersistence -------------------------------------------------------

CachePersistence::CachePersistence(std::string dir, const Catalog* catalog,
                                   StateCache* cache, Vfs* vfs)
    : dir_(std::move(dir)),
      catalog_(catalog),
      cache_(cache),
      vfs_(vfs != nullptr ? vfs : Vfs::Default()) {}

CachePersistence::~CachePersistence() { cache_->set_journal(nullptr); }

std::string CachePersistence::snapshot_path() const {
  return dir_ + "/cache.snapshot";
}

std::string CachePersistence::wal_path() const { return dir_ + "/cache.wal"; }

Result<std::unique_ptr<CachePersistence>> CachePersistence::Open(
    const std::string& dir, const Catalog* catalog, StateCache* cache,
    Vfs* vfs) {
  std::unique_ptr<CachePersistence> p(
      new CachePersistence(dir, catalog, cache, vfs));
  SUDAF_RETURN_IF_ERROR(p->vfs_->CreateDirs(dir));
  p->recovery_.orphan_tmps_removed = SweepOrphanTmps(p->vfs_, dir);
  p->set_wal_limit(cache->policy().wal_max_bytes);
  p->Recover();
  cache->EnforceBudget();
  cache->set_journal(p.get());
  return p;
}

Result<std::unique_ptr<CachePersistence>> CachePersistence::Attach(
    const std::string& dir, const Catalog* catalog, StateCache* cache,
    Vfs* vfs) {
  std::unique_ptr<CachePersistence> p(
      new CachePersistence(dir, catalog, cache, vfs));
  SUDAF_RETURN_IF_ERROR(p->vfs_->CreateDirs(dir));
  p->recovery_.orphan_tmps_removed = SweepOrphanTmps(p->vfs_, dir);
  p->set_wal_limit(cache->policy().wal_max_bytes);
  // Memory is the truth: publish it over whatever the store holds before
  // accepting journal traffic, so disk and memory agree from append one.
  SUDAF_RETURN_IF_ERROR(p->Save());
  cache->set_journal(p.get());
  return p;
}

void CachePersistence::Recover() {
  SetMap sets;
  if (vfs_->Exists(snapshot_path())) {
    Result<std::string> data = vfs_->ReadFile(snapshot_path());
    if (data.ok() && CheckHeader(*data, kSnapshotMagic)) {
      ReplayRecords(std::string_view(*data).substr(kHeaderLen), &recovery_,
                    kMaxRecordLen, [&](std::string_view payload) {
                      return ApplySnapshotRecord(payload, *catalog_, &sets,
                                                 &recovery_);
                    });
    } else {
      // Unreadable file or foreign/damaged header: the whole snapshot is
      // one torn unit. The WAL may still rebuild recent sets.
      ++recovery_.records_dropped_torn;
    }
  }
  if (vfs_->Exists(wal_path())) {
    Result<std::string> data = vfs_->ReadFile(wal_path());
    if (data.ok() && CheckHeader(*data, kWalMagic)) {
      ReplayRecords(std::string_view(*data).substr(kHeaderLen), &recovery_,
                    WalRecordBound(wal_limit_.load(std::memory_order_relaxed)),
                    [&](std::string_view payload) {
                      return ApplyWalRecord(payload, *catalog_, &sets,
                                            &recovery_);
                    });
    } else {
      ++recovery_.records_dropped_torn;
    }
  }
  for (auto& [sig, set] : sets) {
    (void)sig;
    ++recovery_.sets_recovered;
    recovery_.entries_recovered += static_cast<int64_t>(set.entries.size());
    cache_->AdoptSet(std::move(set));
  }
  // Converge disk to memory: after drops (or on a fresh directory) compact
  // immediately so new WAL appends extend a clean, fully-valid prefix.
  if (recovery_.total_dropped() > 0 || !vfs_->Exists(snapshot_path()) ||
      !vfs_->Exists(wal_path())) {
    if (!Save().ok()) wal_errors_.fetch_add(1, std::memory_order_relaxed);
  } else {
    wal_bytes_.store(vfs_->FileSize(wal_path()), std::memory_order_relaxed);
  }
}

StoreScanReport CachePersistence::VerifyStore() {
  // io_mu_ keeps appends and compaction from moving the files mid-walk;
  // queries are unaffected (they never touch disk).
  std::lock_guard<std::mutex> io(io_mu_);
  StoreScanReport report;
  struct File {
    std::string path;
    const char* magic;
  };
  const File files[] = {{snapshot_path(), kSnapshotMagic},
                        {wal_path(), kWalMagic}};
  for (const File& f : files) {
    if (!vfs_->Exists(f.path)) continue;
    Result<std::string> data = vfs_->ReadFile(f.path);
    if (!data.ok() || !CheckHeader(*data, f.magic)) {
      ++report.unreadable_files;
      continue;
    }
    const bool whole = ScanRecords(
        std::string_view(*data).substr(kHeaderLen),
        [&](std::string_view, bool crc_ok) {
          ++report.records_checked;
          if (!crc_ok) ++report.corrupt_records;
        });
    if (!whole) ++report.torn_tails;
  }
  return report;
}

Status CachePersistence::Save() {
  // Freeze spans snapshot encode through WAL reset: no mutation can slip
  // between the two, so the snapshot + empty WAL are one consistent cut.
  // Lock order (cache locks, then io_mu_) matches AppendRecord, which runs
  // under the cache mutex via the journal callbacks.
  StateCache::Freeze freeze(*cache_);
  std::lock_guard<std::mutex> io(io_mu_);
  return SaveLocked();
}

Status CachePersistence::SaveLocked() {
  SUDAF_RETURN_IF_ERROR(WriteSnapshotFile(*cache_, snapshot_path(), vfs_));
  snapshots_written_.fetch_add(1, std::memory_order_relaxed);
  // Reset the WAL only after the snapshot is durably published; a crash
  // in between leaves an overlap the replay handles idempotently.
  std::string header = FileHeader(kWalMagic);
  SUDAF_RETURN_IF_ERROR(vfs_->WriteAtomic(wal_path(), header));
  wal_bytes_.store(static_cast<int64_t>(header.size()),
                   std::memory_order_relaxed);
  return Status::OK();
}

void CachePersistence::MaybeCompact() {
  if (!compaction_needed_.exchange(false, std::memory_order_relaxed)) return;
  if (!Save().ok()) wal_errors_.fetch_add(1, std::memory_order_relaxed);
}

void CachePersistence::AppendRecord(const std::string& payload) {
  std::lock_guard<std::mutex> io(io_mu_);
  if (vfs_->FileSize(wal_path()) < static_cast<int64_t>(kHeaderLen)) {
    // Missing or stub WAL (e.g. Save() failed under an injected fault):
    // re-seed the header so the stream stays parseable.
    if (!vfs_->WriteAtomic(wal_path(), FileHeader(kWalMagic)).ok()) {
      wal_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    wal_bytes_.store(static_cast<int64_t>(kHeaderLen),
                     std::memory_order_relaxed);
  }
  std::string rec = FrameRecord(payload);
  Status fault = FailPoint::Check("cache:wal_append");
  if (!fault.ok()) {
    // Torn-write mode: the record header and half the payload reach disk
    // before the simulated crash. Recovery must drop exactly this tail.
    (void)vfs_->Append(
        wal_path(), std::string_view(rec).substr(
                        0, kRecordHeaderLen + payload.size() / 2));
    wal_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!vfs_->Append(wal_path(), rec).ok()) {
    wal_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  wal_appends_.fetch_add(1, std::memory_order_relaxed);
  int64_t bytes = wal_bytes_.fetch_add(static_cast<int64_t>(rec.size()),
                                       std::memory_order_relaxed) +
                  static_cast<int64_t>(rec.size());
  int64_t limit = wal_limit_.load(std::memory_order_relaxed);
  if (limit > 0 && bytes > limit) {
    // This callback runs inside a cache mutation; compacting here would
    // deadlock against the Freeze Save() takes. Defer to MaybeCompact().
    compaction_needed_.store(true, std::memory_order_relaxed);
  }
}

void CachePersistence::OnCreateSet(const StateCache::GroupSet& set) {
  std::string p;
  p.reserve(1 + 4 + set.data_sig.size() + 8 + 8 + 8 + 4 +
            TableBytes(set.group_keys.get()));
  PutU8(&p, kWalUpsertSet);
  PutString(&p, set.data_sig);
  PutU64(&p, set.epochs.rewrite);
  PutU64(&p, set.epochs.append);
  PutI64(&p, set.covered_rows);
  PutI32(&p, set.num_groups);
  PutTable(&p, set.group_keys.get());
  AppendRecord(p);
}

void CachePersistence::OnInsertEntry(const std::string& data_sig,
                                     const std::string& key,
                                     const StateCache::Entry& entry) {
  std::string p;
  p.reserve(1 + 4 + data_sig.size() + EntryBytes(key, entry));
  PutU8(&p, kWalInsertEntry);
  PutString(&p, data_sig);
  PutEntry(&p, key, entry);
  AppendRecord(p);
}

void CachePersistence::OnEraseSet(const std::string& data_sig) {
  std::string p;
  PutU8(&p, kWalEraseSet);
  PutString(&p, data_sig);
  AppendRecord(p);
}

}  // namespace sudaf
