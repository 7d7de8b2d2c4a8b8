#include "sudaf/cache.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/crc32c.h"
#include "common/trace.h"

namespace sudaf {

namespace {

std::unique_ptr<Table> CopyTable(const Table& table) {
  auto out = std::make_unique<Table>(table.schema());
  out->Reserve(table.num_rows());
  out->AppendTable(table);
  return out;
}

}  // namespace

StateCache::StateCache() {
  owned_metrics_ = std::make_unique<MetricsRegistry>();
  MetricsRegistry* r = owned_metrics_.get();
  probes_ = r->counter("sudaf.cache.probes");
  set_hits_ = r->counter("sudaf.cache.set_hits");
  delta_refreshes_ = r->counter("sudaf.cache.delta_refreshes");
  delta_rows_scanned_ = r->counter("sudaf.cache.delta_rows_scanned");
  full_invalidations_ = r->counter("sudaf.cache.full_invalidations");
  epoch_invalidations_ = r->counter("sudaf.cache.epoch_invalidations");
  stale_discards_ = r->counter("sudaf.cache.stale_discards");
  evictions_ = r->counter("sudaf.cache.evictions");
  bytes_evicted_ = r->counter("sudaf.cache.bytes_evicted");
  poison_evictions_ = r->counter("sudaf.cache.poison_evictions");
  scrub_quarantines_ = r->counter("sudaf.cache.scrub_quarantines");
}

std::mutex& StateCache::StripeFor(const std::string& data_sig) const {
  size_t h = std::hash<std::string>{}(data_sig);
  return stripes_[h % kNumStripes];
}

void StateCache::MirrorCount(const CacheOps& ops, const char* name,
                             int64_t delta) {
  if (ops.metrics != nullptr) ops.metrics->counter(name)->Add(delta);
}

StateCache::Counters StateCache::counters() const {
  Counters c;
  c.probes = probes_->value();
  c.set_hits = set_hits_->value();
  c.delta_refreshes = delta_refreshes_->value();
  c.delta_rows_scanned = delta_rows_scanned_->value();
  c.full_invalidations = full_invalidations_->value();
  c.epoch_invalidations = epoch_invalidations_->value();
  c.stale_discards = stale_discards_->value();
  c.evictions = evictions_->value();
  c.bytes_evicted = bytes_evicted_->value();
  c.poison_evictions = poison_evictions_->value();
  c.scrub_quarantines = scrub_quarantines_->value();
  return c;
}

int64_t StateCache::EntryBytes(const std::string& key, const Entry& entry) {
  return kPerEntryOverhead + static_cast<int64_t>(key.size()) +
         static_cast<int64_t>((entry.main.size() + entry.sign.size()) *
                              sizeof(double));
}

int64_t StateCache::SetBytes(const GroupSet& set) {
  int64_t bytes = kPerSetOverhead + static_cast<int64_t>(set.data_sig.size());
  if (set.group_keys != nullptr) bytes += set.group_keys->ApproxBytes();
  for (const auto& [key, entry] : set.entries) {
    bytes += EntryBytes(key, entry);
  }
  return bytes;
}

int64_t StateCache::SetBytesStriped(const std::string& sig,
                                    const GroupSet& set) const {
  std::lock_guard<std::mutex> stripe(StripeFor(sig));
  return SetBytes(set);
}

void StateCache::EraseSetLocked(
    std::map<std::string, GroupSetPtr>::iterator it, Counter* counter,
    const char* mirror_name, const CacheOps& ops) {
  if (journal_ != nullptr) journal_->OnEraseSet(it->first);
  sets_.erase(it);  // the set itself lives on while any query holds a ref
  counter->Add();
  MirrorCount(ops, mirror_name);
}

bool StateCache::EnsureRoomLocked(int64_t incoming_bytes,
                                  const GroupSet* pinned,
                                  const CacheOps& ops) {
  if (policy_.max_bytes <= 0) return true;
  int64_t total = ApproxBytesLocked();
  while (total + incoming_bytes > policy_.max_bytes) {
    // Cost-aware victim selection: evict the set with the least expected
    // value per byte, score = hits / (age × bytes) — cold, rarely-hit,
    // large sets go first.
    auto victim = sets_.end();
    double victim_score = 0.0;
    int64_t victim_bytes = 0;
    for (auto it = sets_.begin(); it != sets_.end(); ++it) {
      if (it->second.get() == pinned) continue;
      int64_t bytes = SetBytesStriped(it->first, *it->second);
      double age =
          static_cast<double>(tick_ - it->second->last_used_tick) + 1.0;
      double score = (static_cast<double>(it->second->hits) + 1.0) /
                     (age * static_cast<double>(std::max<int64_t>(bytes, 1)));
      if (victim == sets_.end() || score < victim_score) {
        victim = it;
        victim_score = score;
        victim_bytes = bytes;
      }
    }
    if (victim == sets_.end()) return false;
    total -= victim_bytes;
    bytes_evicted_->Add(victim_bytes);
    MirrorCount(ops, "sudaf.cache.bytes_evicted", victim_bytes);
    if (ops.trace != nullptr) {
      ops.trace->AddEvent("cache.evict", -1, victim_bytes);
    }
    EraseSetLocked(victim, evictions_, "sudaf.cache.evictions", ops);
  }
  return true;
}

StateCache::FindResult StateCache::Find(const std::string& data_sig,
                                        const CatalogEpochs& epochs,
                                        bool can_refresh, const CacheOps& ops) {
  std::lock_guard<std::mutex> lock(mu_);
  ++tick_;
  FindResult result;
  auto it = sets_.find(data_sig);
  if (it == sets_.end()) return result;
  if (it->second->epochs == epochs) {
    ++it->second->hits;
    it->second->last_used_tick = tick_;
    probes_->Add();
    MirrorCount(ops, "sudaf.cache.probes");
    set_hits_->Add();
    MirrorCount(ops, "sudaf.cache.set_hits");
    result.set = it->second;
    return result;
  }
  if (it->second->epochs.rewrite == epochs.rewrite && can_refresh &&
      it->second->covered_rows >= 0) {
    // Only appends happened since this set was built and the caller can
    // fold a delta pass. Leave the set mapped (it still answers exact
    // probes from sessions on the older snapshot) and hand it back for
    // refresh. The probe is not counted yet: it resolves — and counts —
    // at CommitRefresh, or at the caller's can_refresh=false re-probe,
    // keeping `set_hits + delta_refreshes + full_invalidations == probes`
    // a true invariant rather than an eventually-consistent identity.
    it->second->last_used_tick = tick_;
    if (ops.trace != nullptr) {
      ops.trace->AddEvent("cache.refresh_candidate", -1);
    }
    result.refreshable = it->second;
    return result;
  }
  // A covered table was rewritten (or the set cannot be refreshed): every
  // entry in it describes data that no longer exists. Invalidate-on-probe.
  if (ops.trace != nullptr) {
    ops.trace->AddEvent("cache.epoch_invalidate", -1);
  }
  probes_->Add();
  MirrorCount(ops, "sudaf.cache.probes");
  full_invalidations_->Add();
  MirrorCount(ops, "sudaf.cache.full_invalidations");
  EraseSetLocked(it, epoch_invalidations_,
                 "sudaf.cache.epoch_invalidations", ops);
  return result;
}

StateCache::GroupSetPtr StateCache::GetOrCreate(const std::string& data_sig,
                                                const Table& group_keys,
                                                int32_t num_groups,
                                                const CatalogEpochs& epochs,
                                                int64_t covered_rows,
                                                const CacheOps& ops) {
  std::lock_guard<std::mutex> lock(mu_);
  ++tick_;
  auto it = sets_.find(data_sig);
  if (it != sets_.end()) {
    if (it->second->epochs != epochs) {
      if (ops.trace != nullptr) {
        ops.trace->AddEvent("cache.epoch_invalidate", -1);
      }
      EraseSetLocked(it, epoch_invalidations_,
                     "sudaf.cache.epoch_invalidations", ops);
    } else if (it->second->num_groups != num_groups) {
      // Group-count heuristic: kept as a backstop behind epoch
      // invalidation; a discard here means data changed without an epoch
      // bump (an in-place mutation missing TouchTable).
      if (ops.trace != nullptr) {
        ops.trace->AddEvent("cache.stale_discard", -1);
      }
      EraseSetLocked(it, stale_discards_, "sudaf.cache.stale_discards", ops);
    } else {
      it->second->last_used_tick = tick_;
      return it->second;
    }
  }
  auto set = std::make_shared<GroupSet>();
  set->data_sig = data_sig;
  set->group_keys = CopyTable(group_keys);
  set->num_groups = num_groups;
  set->epochs = epochs;
  set->covered_rows = covered_rows;
  set->last_used_tick = tick_;
  if (policy_.max_bytes > 0 && !EnsureRoomLocked(SetBytes(*set), nullptr, ops)) {
    // The bare set (its group-keys table) is bigger than the whole budget:
    // hand it out uncached so the current query can still run to
    // completion; it dies when the query drops it.
    set->uncached = true;
    return set;
  }
  auto [inserted, _] = sets_.emplace(data_sig, std::move(set));
  if (journal_ != nullptr) journal_->OnCreateSet(*inserted->second);
  return inserted->second;
}

StateCache::GroupSetPtr StateCache::CommitRefresh(
    const GroupSetPtr& old_set, std::unique_ptr<Table> group_keys,
    int32_t num_groups, const CatalogEpochs& epochs, int64_t covered_rows,
    std::vector<std::pair<std::string, Entry>> entries, int64_t delta_rows,
    const CacheOps& ops) {
  std::lock_guard<std::mutex> lock(mu_);
  ++tick_;
  auto it = sets_.find(old_set->data_sig);
  if (it == sets_.end() || it->second != old_set) {
    // Concurrent invalidation/refresh replaced the set while the delta
    // pass ran: the winner's resolution already closed this probe's
    // accounting; the caller falls back to the cold path.
    return nullptr;
  }

  auto set = std::make_shared<GroupSet>();
  set->data_sig = old_set->data_sig;
  set->group_keys = std::move(group_keys);
  set->num_groups = num_groups;
  set->epochs = epochs;
  set->covered_rows = covered_rows;
  set->hits = old_set->hits + 1;  // the probe is served from the refresh
  set->last_used_tick = tick_;

  probes_->Add();  // the refreshable probe resolves (and counts) here
  MirrorCount(ops, "sudaf.cache.probes");
  delta_refreshes_->Add();
  MirrorCount(ops, "sudaf.cache.delta_refreshes");
  delta_rows_scanned_->Add(delta_rows);
  MirrorCount(ops, "sudaf.cache.delta_rows_scanned", delta_rows);
  if (ops.trace != nullptr) {
    ops.trace->AddEvent("cache.delta_refresh", -1, delta_rows);
  }

  // WAL order: erase(old) → create(new) → insert each refreshed entry. A
  // crash between the records leaves a torn set that recovery drops — the
  // next probe misses and recomputes in full; it can never serve the
  // pre-refresh (stale) accumulators.
  if (journal_ != nullptr) journal_->OnEraseSet(it->first);
  sets_.erase(it);

  int64_t bytes = SetBytes(*set);
  for (const auto& [key, entry] : entries) bytes += EntryBytes(key, entry);
  const bool fits =
      policy_.max_bytes <= 0 || EnsureRoomLocked(bytes, nullptr, ops);
  if (!fits) {
    // Budget shrank below the refreshed set: hand it out uncached so the
    // current query still answers from it; it dies with the query.
    set->uncached = true;
  } else {
    sets_.emplace(set->data_sig, set);
    if (journal_ != nullptr) journal_->OnCreateSet(*set);
  }
  {
    std::lock_guard<std::mutex> stripe(StripeFor(set->data_sig));
    for (auto& [key, entry] : entries) {
      if (EntryIsPoisoned(entry)) continue;  // same contract as InsertEntry
      auto [e, ignored] = set->entries.insert_or_assign(key, std::move(entry));
      (void)ignored;
      e->second.shadow_crc = EntryShadowCrc(e->second);
      if (fits && journal_ != nullptr) {
        journal_->OnInsertEntry(set->data_sig, key, e->second);
      }
    }
  }
  return set;
}

StateCache::Probe StateCache::ProbeEntry(GroupSet* set, const std::string& key,
                                         Entry* out, const CacheOps& ops,
                                         const std::vector<int64_t>* rows) {
  std::lock_guard<std::mutex> stripe(StripeFor(set->data_sig));
  auto it = set->entries.find(key);
  if (it == set->entries.end()) return Probe::kMiss;
  if (EntryIsPoisoned(it->second)) {
    // A poisoned entry reaching the map means it was planted from outside
    // the session's insert guards (tests, adversarial recovery input) —
    // quarantine it here so it is never served.
    set->entries.erase(it);
    poison_evictions_->Add();
    MirrorCount(ops, "sudaf.cache.poison_evictions");
    if (ops.trace != nullptr) ops.trace->AddEvent("cache.poison_evict", -1);
    return Probe::kPoisoned;
  }
  if (out == nullptr) return Probe::kHit;
  if (rows == nullptr) {
    *out = it->second;
    return Probe::kHit;
  }
  const Entry& e = it->second;
  out->main.resize(rows->size());
  for (size_t r = 0; r < rows->size(); ++r) out->main[r] = e.main[(*rows)[r]];
  out->sign.resize(e.sign.empty() ? 0 : rows->size());
  for (size_t r = 0; r < out->sign.size(); ++r) {
    out->sign[r] = e.sign[(*rows)[r]];
  }
  out->shadow_crc = 0;
  return Probe::kHit;
}

bool StateCache::InsertEntry(GroupSet* set, const std::string& key,
                             const Entry& entry, const CacheOps& ops) {
  std::lock_guard<std::mutex> lock(mu_);
  auto mapped = sets_.find(set->data_sig);
  if (set->uncached || mapped == sets_.end() || mapped->second.get() != set) {
    // Uncached overflow set, or a set evicted/invalidated while the query
    // held it: the insert stays query-local — no budget, no journal.
    std::lock_guard<std::mutex> stripe(StripeFor(set->data_sig));
    auto [it, _] = set->entries.insert_or_assign(key, entry);
    it->second.shadow_crc = EntryShadowCrc(it->second);
    return true;
  }
  int64_t add = EntryBytes(key, entry);
  {
    std::lock_guard<std::mutex> stripe(StripeFor(set->data_sig));
    auto existing = set->entries.find(key);
    if (existing != set->entries.end()) {
      // Replacing re-charges the delta; concurrent writers of the same key
      // computed bit-identical channels, so the value is unchanged.
      add -= EntryBytes(key, existing->second);
    }
  }
  if (add > 0 && !EnsureRoomLocked(add, set, ops)) return false;
  std::lock_guard<std::mutex> stripe(StripeFor(set->data_sig));
  auto [it, _] = set->entries.insert_or_assign(key, entry);
  it->second.shadow_crc = EntryShadowCrc(it->second);
  if (journal_ != nullptr) {
    journal_->OnInsertEntry(set->data_sig, key, it->second);
  }
  return true;
}

StateCache::GroupSetPtr StateCache::AdoptSet(GroupSet set) {
  std::lock_guard<std::mutex> lock(mu_);
  ++tick_;
  set.last_used_tick = tick_;
  // Shadow CRCs are not persisted; re-stamp on adopt so recovered entries
  // are covered by the next scrub pass.
  for (auto& [key, entry] : set.entries) {
    (void)key;
    entry.shadow_crc = EntryShadowCrc(entry);
  }
  std::string sig = set.data_sig;
  auto ptr = std::make_shared<GroupSet>(std::move(set));
  auto [it, _] = sets_.insert_or_assign(std::move(sig), std::move(ptr));
  return it->second;
}

void StateCache::EnforceBudget(const CacheOps& ops) {
  std::lock_guard<std::mutex> lock(mu_);
  if (policy_.max_bytes <= 0) return;
  EnsureRoomLocked(0, nullptr, ops);
}

StateCache::ScrubResult StateCache::ScrubResident(const CacheOps& ops) {
  std::lock_guard<std::mutex> lock(mu_);
  ScrubResult result;
  for (const auto& [sig, set] : sets_) {
    std::lock_guard<std::mutex> stripe(StripeFor(sig));
    for (auto it = set->entries.begin(); it != set->entries.end();) {
      const Entry& entry = it->second;
      ++result.entries_checked;
      bool poisoned = EntryIsPoisoned(entry);
      bool rotted = entry.shadow_crc != 0 &&
                    EntryShadowCrc(entry) != entry.shadow_crc;
      if (!poisoned && !rotted) {
        ++it;
        continue;
      }
      it = set->entries.erase(it);
      ++result.entries_quarantined;
      scrub_quarantines_->Add();
      MirrorCount(ops, "sudaf.cache.scrub_quarantines");
      if (ops.trace != nullptr) {
        ops.trace->AddEvent("cache.scrub_quarantine", -1);
      }
    }
  }
  return result;
}

void StateCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_ != nullptr) {
    for (const auto& [sig, _] : sets_) journal_->OnEraseSet(sig);
  }
  sets_.clear();
}

void StateCache::set_policy(const CachePolicy& policy) {
  std::lock_guard<std::mutex> lock(mu_);
  policy_ = policy;
}

CachePolicy StateCache::policy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return policy_;
}

void StateCache::set_journal(CacheJournal* journal) {
  std::lock_guard<std::mutex> lock(mu_);
  journal_ = journal;
}

StateCache::Freeze::Freeze(const StateCache& cache) : cache_(cache) {
  cache_.mu_.lock();
  for (auto& stripe : cache_.stripes_) stripe.lock();
}

StateCache::Freeze::~Freeze() {
  for (auto it = cache_.stripes_.rbegin(); it != cache_.stripes_.rend();
       ++it) {
    it->unlock();
  }
  cache_.mu_.unlock();
}

bool EntryIsPoisoned(const StateCache::Entry& entry) {
  for (double v : entry.main) {
    if (!std::isfinite(v)) return true;
  }
  for (double v : entry.sign) {
    if (!std::isfinite(v)) return true;
  }
  return false;
}

uint32_t EntryShadowCrc(const StateCache::Entry& entry) {
  uint32_t crc = Crc32c(entry.main.data(), entry.main.size() * sizeof(double));
  crc = Crc32c(entry.sign.data(), entry.sign.size() * sizeof(double), crc);
  return crc == 0 ? 1u : crc;
}

int64_t StateCache::num_group_sets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(sets_.size());
}

int64_t StateCache::num_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const auto& [sig, set] : sets_) {
    std::lock_guard<std::mutex> stripe(StripeFor(sig));
    n += static_cast<int64_t>(set->entries.size());
  }
  return n;
}

int64_t StateCache::ApproxBytesLocked() const {
  int64_t bytes = 0;
  for (const auto& [sig, set] : sets_) {
    bytes += SetBytesStriped(sig, *set);
  }
  return bytes;
}

int64_t StateCache::ApproxBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ApproxBytesLocked();
}

std::string DataSignature(const SelectStatement& stmt) {
  std::vector<std::string> tables = stmt.tables;
  std::sort(tables.begin(), tables.end());
  std::vector<const Expr*> where;
  if (stmt.where != nullptr) stmt.where->CollectConjuncts(&where);
  std::vector<std::string> conjuncts;
  conjuncts.reserve(where.size());
  for (const Expr* c : where) conjuncts.push_back(c->ToString());
  std::sort(conjuncts.begin(), conjuncts.end());

  std::string sig = "T:";
  for (const std::string& t : tables) {
    sig += t;
    sig += ",";
  }
  sig += ";W:";
  for (const std::string& c : conjuncts) {
    sig += c;
    sig += ",";
  }
  sig += ";G:";
  for (const std::string& g : stmt.group_by) {
    sig += g;
    sig += ",";
  }
  return sig;
}

std::vector<std::string> TablesFromDataSignature(const std::string& sig) {
  std::vector<std::string> out;
  if (sig.rfind("T:", 0) != 0) return out;
  size_t end = sig.find(";W:");
  if (end == std::string::npos) end = sig.size();
  size_t start = 2;
  while (start < end) {
    size_t comma = sig.find(',', start);
    if (comma == std::string::npos || comma > end) comma = end;
    if (comma > start) out.push_back(sig.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace sudaf
