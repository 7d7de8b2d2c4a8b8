#ifndef SUDAF_SUDAF_CACHE_H_
#define SUDAF_SUDAF_CACHE_H_

// Dynamic cache of aggregation states (Section 3.2 / Section 5).
//
// The cache stores *representative instances* of state equivalence classes,
// keyed by (data signature, class key). The data signature canonicalizes the
// data dimension of a query — tables, predicates and grouping — which the
// paper keeps fixed (its sharing works on the computation dimension; data
// overlap is delegated to chunk-based techniques, see Section 2).
//
// A cached entry holds one double per group (the ⊕-aggregated main channel)
// and, for log-domain classes, the Π sgn(M) side channel (Section 5.3's
// sign separation).
//
// Staleness is handled by *epoch invalidation* (docs/robustness.md): every
// group set snapshots the combined catalog epochs of the tables it covers,
// and a probe with newer epochs resolves the set before it can serve stale
// answers. Since the catalog splits destructive mutations (rewrite epoch)
// from append-only growth (append epoch), resolution has two outcomes:
//   - rewrite epoch differs → the data the set describes no longer exists:
//     hard invalidation (discard on probe), counted in
//     epoch_invalidations/full_invalidations;
//   - rewrite matches but append lags → the set is *refreshable*: states
//     are mergeable (state(old ⧺ delta) = merge(state(old), pass(delta))),
//     so a refresh-capable caller folds a fused pass over just the delta
//     segments into the cached accumulators and commits the result through
//     CommitRefresh (counted in delta_refreshes / delta_rows_scanned). A
//     caller that cannot refresh passes can_refresh=false and gets the old
//     hard invalidation.
// Catalog mutations bump epochs automatically, so callers no longer need
// the old "call Clear() after mutating a table" contract (Clear() remains
// for bulk memory reclamation). The group-count heuristic is kept as a
// second line of defense and its discards are counted.
//
// Probe accounting (gated by the perf-smoke CI shard): `probes` counts
// present-set probe *resolutions* — a refreshable handoff counts only when
// it resolves through CommitRefresh or a can_refresh=false re-probe — so
// `set_hits + delta_refreshes + full_invalidations == probes` holds as an
// invariant at every instant, not just at quiescence.
//
// Poison safety: entries whose channels contain NaN/±Inf must never be
// shared across queries. Use EntryIsPoisoned() before inserting; the
// SUDAF session both refuses to insert poisoned entries and evicts any it
// finds at probe time (ProbeEntry does the eviction internally).
//
// Memory budget (docs/robustness.md, "Durability & memory budget"): under
// a CachePolicy with max_bytes > 0, InsertEntry() evicts whole group sets
// in cost order — score = hits / (age × bytes), lowest first — *before*
// the insert, so `ApproxBytes() <= max_bytes` holds after every insert. A
// group set that cannot fit on its own is returned *uncached*: the current
// query still uses it, but it is never counted, never journaled, and is
// not reachable through Find — it dies when the query drops its reference.
//
// Concurrency (docs/service.md): the cache is safe for concurrent callers.
//   - Structural state (the signature → set map, eviction scoring, the
//     logical tick, policy, journal) is guarded by one cache-wide mutex.
//   - Each set's entries map is guarded by one of kNumStripes striped
//     mutexes selected by signature hash, so probes of different sets
//     proceed in parallel and never take the cache-wide lock.
//   - Lock order is always cache mutex → stripe; entry reads copy out
//     under the stripe so callers never hold pointers into the map.
//   - Find/GetOrCreate hand out shared_ptr<GroupSet>: a set evicted or
//     invalidated while a query is using it simply detaches — the query
//     keeps it alive and finishes on its own consistent snapshot, later
//     inserts into it become query-local (uncached), and memory is
//     reclaimed when the last reference drops. Eviction scoring itself
//     stays deterministic per operation (everything under the cache
//     mutex, logical tick ordering).
//   - Freeze locks everything, giving persistence a consistent view that
//     spans snapshot encode + WAL reset.
// Journal callbacks are invoked with the cache mutex held, so WAL record
// order equals mutation order; callbacks must not call back into the
// cache (the persistence layer defers WAL compaction for this reason).
//
// Durability: a CacheJournal attached via set_journal() observes every
// structural mutation (set creation, entry insert, set erasure) so the
// persistence layer (sudaf/cache_persist.h) can mirror the cache into an
// append-only WAL.

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "engine/exec_options.h"
#include "sql/statement.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace sudaf {

class CacheJournal;
class QueryTrace;

// Per-call observer handles: the query's own metrics registry and trace.
// Cache events (evictions, invalidations, poison evictions) are always
// counted in the cache's internal registry — counters() stays cumulative —
// and additionally mirrored into `metrics`/`trace` when set, so concurrent
// queries each see only the cache work their own call caused.
struct CacheOps {
  MetricsRegistry* metrics = nullptr;
  QueryTrace* trace = nullptr;
};

class StateCache {
 public:
  struct Entry {
    std::vector<double> main;  // per group
    std::vector<double> sign;  // per group; empty unless log-domain

    // Shadow integrity checksum: CRC32C of both channels, stamped when the
    // entry enters the cache through InsertEntry/AdoptSet and re-verified
    // by ScrubResident(). 0 means "unstamped" (entries planted directly
    // into `entries` by tests/recovery helpers) and is skipped by the
    // scrub. Not persisted — recovery re-stamps on adopt.
    uint32_t shadow_crc = 0;
  };

  // All cached state instances for one data signature. Entries are aligned
  // with `group_keys` (same group order, the pipeline is deterministic).
  //
  // Lock discipline: `entries` is written only under the set's stripe
  // mutex (via InsertEntry/ProbeEntry); everything else is written only
  // under the cache mutex. `group_keys`, `num_groups`, `epochs`,
  // `covered_rows` and `data_sig` are immutable after creation and safe to
  // read lock-free (CommitRefresh replaces the whole set object rather
  // than mutating these in place). Direct access to `entries` is for
  // single-threaded callers only (tests, recovery).
  struct GroupSet {
    std::string data_sig;  // owning key, duplicated for journal/eviction
    std::unique_ptr<Table> group_keys;
    int32_t num_groups = 0;  // may exceed group_keys->num_rows() for the
                             // ungrouped (zero-key-column) case
    CatalogEpochs epochs;    // combined catalog epochs at creation/refresh
    // Base-table row count the cached accumulators cover: the segment-log
    // boundary the set was computed (or last refreshed) at. A refresh
    // folds a delta pass over rows [covered_rows, snapshot) into the
    // entries. -1 = unknown (chunk sets, tests) — such a set is never
    // refreshable, only exactly-matched or discarded.
    int64_t covered_rows = -1;
    std::map<std::string, Entry> entries;  // class key -> channels

    // Eviction-cost inputs (maintained by Find/GetOrCreate).
    int64_t hits = 0;             // probes that found this set valid
    uint64_t last_used_tick = 0;  // logical clock of the last probe/create

    // True for sets handed out without being mapped (budget overflow):
    // query-local, never journaled, never budget-charged.
    bool uncached = false;
  };
  using GroupSetPtr = std::shared_ptr<GroupSet>;

  // Snapshot of the cache's cumulative invalidation metrics (see
  // counters()). The live values are registry-backed Counters — metric
  // names sudaf.cache.{probes, set_hits, delta_refreshes,
  // delta_rows_scanned, full_invalidations, epoch_invalidations,
  // stale_discards, evictions, bytes_evicted, poison_evictions} — mirrored
  // per call into CacheOps::metrics so ExecStats stays a pure registry
  // derivation.
  struct Counters {
    // Probe accounting: every counted probe resolves to exactly one of
    // {set_hits, delta_refreshes, full_invalidations} in the same cache
    // operation (refreshable handoffs count at their resolution), so the
    // three always sum to `probes`.
    int64_t probes = 0;             // present-set probe resolutions
    int64_t set_hits = 0;           // probes served as-is (epochs matched)
    int64_t delta_refreshes = 0;    // probes resolved by folding a delta
    int64_t delta_rows_scanned = 0;  // base rows scanned by delta passes
    int64_t full_invalidations = 0;  // probes that discarded the set

    int64_t epoch_invalidations = 0;  // sets dropped: table epoch advanced
    int64_t stale_discards = 0;       // sets dropped: group-count mismatch
    int64_t evictions = 0;            // sets dropped: byte-budget pressure
    int64_t bytes_evicted = 0;        // ApproxBytes of budget-evicted sets
    int64_t poison_evictions = 0;     // entries dropped at probe: non-finite
    int64_t scrub_quarantines = 0;    // entries dropped by ScrubResident:
                                      // shadow-CRC mismatch or poisoned
  };

  // Outcome of one ScrubResident() pass.
  struct ScrubResult {
    int64_t entries_checked = 0;
    int64_t entries_quarantined = 0;  // erased: bit rot or poison
  };

  // Byte-accounting constants (docs/robustness.md): fixed per-node
  // overheads added on top of the payload vectors so the budget reflects
  // the real heap footprint, not just channel doubles. Public so the
  // regression test in tests/cache_test.cc pins the formula.
  //   per set:   map node + GroupSet struct + group_keys Table object
  //   per entry: map node + the two vector headers
  static constexpr int64_t kPerSetOverhead = 192;
  static constexpr int64_t kPerEntryOverhead = 112;

  // Striping width for the per-set entry mutexes.
  static constexpr int kNumStripes = 16;

  StateCache();

  // Footprint of one entry as charged against the budget.
  static int64_t EntryBytes(const std::string& key, const Entry& entry);
  // Footprint of one group set (signature, group-keys table, overheads,
  // and all entries). Caller must hold the set's stripe (or be the only
  // thread touching the set).
  static int64_t SetBytes(const GroupSet& set);

  // Outcome of a set probe: at most one of the pointers is non-null.
  struct FindResult {
    // Exact-epoch hit: serve cached states directly.
    GroupSetPtr set;
    // Rewrite epoch matched but append epoch lagged and the caller passed
    // can_refresh=true: the set is still mapped (and still serving
    // exact-epoch probes from sessions that saw the older snapshot). The
    // caller must resolve it — CommitRefresh on success, or a
    // can_refresh=false re-probe to hard-invalidate on abandon — so the
    // probe accounting identity closes.
    GroupSetPtr refreshable;
  };

  // Probes the group set for `data_sig` against the live catalog `epochs`.
  // Epochs are hash-mixed and therefore unordered: only equality of each
  // component is meaningful. Resolution:
  //   - both components equal → hit;
  //   - rewrite differs → discard (epoch_invalidations + full_invalidations);
  //   - rewrite equal, append differs → refreshable when can_refresh and the
  //     set knows its coverage (covered_rows >= 0), else discard.
  // There is deliberately no default for `epochs`/`can_refresh`: the old
  // `epoch = 0` default let callers silently probe with "no epoch" and
  // admit stale sets. The returned references keep the set alive even if
  // it is evicted or invalidated while the caller is still using it.
  FindResult Find(const std::string& data_sig, const CatalogEpochs& epochs,
                  bool can_refresh, const CacheOps& ops = {});

  // Returns the group set for `data_sig`, creating it (with a copy of
  // `group_keys`) on first use. An existing set is discarded and recreated
  // when its epochs differ (epoch invalidation — GetOrCreate never
  // refreshes; callers wanting refresh go through Find/CommitRefresh) or
  // its group count mismatches (stale-set heuristic); both paths are
  // counted. `covered_rows` is the base-table row count the states to be
  // inserted will cover (-1 = unknown → never refreshable). No epoch
  // default, same rationale as Find. Under a byte budget, other sets are
  // evicted to make room; a set that cannot fit at all is returned
  // uncached (see GroupSet::uncached) so the current query still runs to
  // completion.
  GroupSetPtr GetOrCreate(const std::string& data_sig, const Table& group_keys,
                          int32_t num_groups, const CatalogEpochs& epochs,
                          int64_t covered_rows, const CacheOps& ops = {});

  // Atomically replaces `old_set` (previously returned as
  // FindResult::refreshable) with a refreshed set carrying the new
  // `epochs`/`covered_rows` and the given entries; the set takes ownership
  // of `group_keys` and the entries' channels. Journals the erase, the
  // create and every entry insert in WAL order, stamps shadow CRCs,
  // carries over hit statistics, and counts the resolution
  // (delta_refreshes + delta_rows_scanned += `delta_rows`). Returns the
  // refreshed set — uncached when it no longer fits the byte budget, null
  // when `old_set` is no longer the mapped set for its signature
  // (concurrent invalidation/refresh won the race; the caller falls back
  // to the cold path).
  GroupSetPtr CommitRefresh(
      const GroupSetPtr& old_set, std::unique_ptr<Table> group_keys,
      int32_t num_groups, const CatalogEpochs& epochs, int64_t covered_rows,
      std::vector<std::pair<std::string, Entry>> entries, int64_t delta_rows,
      const CacheOps& ops = {});

  // Outcome of an entry probe.
  enum class Probe {
    kMiss,      // no entry under that key
    kHit,       // entry found (copied into *out when out != null)
    kPoisoned,  // entry found non-finite: evicted, counted, reported miss
  };

  // Looks up `key` in `set` under the stripe lock. On a hit the channels
  // are copied into `*out` (when non-null), so the caller never holds a
  // pointer into the concurrently-mutated map. With `rows` non-null only
  // those groups are copied, in that order (out->main[r] is group
  // rows[r]): the output-first serve copies just the groups a query
  // returns. A poisoned entry is evicted on the spot
  // (counters().poison_evictions, "cache.poison_evict" trace event) and
  // reported as kPoisoned — callers treat it as a miss.
  Probe ProbeEntry(GroupSet* set, const std::string& key, Entry* out,
                   const CacheOps& ops = {},
                   const std::vector<int64_t>* rows = nullptr);

  // Inserts a copy of `entry` under `key` into `set` (replacing any
  // existing entry — concurrent writers compute bit-identical channels, so
  // replacement is value-neutral). Evicts other group sets as needed so
  // ApproxBytes() stays within policy().max_bytes; returns false — with
  // the set untouched — when the entry cannot fit even after evicting
  // everything else (the caller keeps it query-local). Inserts into
  // uncached or detached (evicted-while-held) sets succeed query-locally:
  // no budget charge, no journal. Notifies the journal on mapped inserts.
  bool InsertEntry(GroupSet* set, const std::string& key, const Entry& entry,
                   const CacheOps& ops = {});

  // Installs a recovered set (persistence layer only): no journal
  // notification, no budget enforcement — callers run EnforceBudget()
  // after recovery completes. Replaces any existing set for the signature.
  GroupSetPtr AdoptSet(GroupSet set);

  // Evicts lowest-score sets until ApproxBytes() <= policy().max_bytes
  // (no-op when unbounded). Used after recovery and policy changes.
  void EnforceBudget(const CacheOps& ops = {});

  // Integrity pass over every resident entry: re-computes each stamped
  // entry's shadow CRC and quarantines (erases) entries whose channels no
  // longer match — in-memory bit rot — as well as poisoned ones. Counted
  // in counters().scrub_quarantines and mirrored into `ops`. Deliberately
  // does NOT notify the journal: the scrubber repairs disk by republishing
  // a full snapshot afterwards, which supersedes per-entry WAL traffic.
  ScrubResult ScrubResident(const CacheOps& ops = {});

  void Clear();

  void set_policy(const CachePolicy& policy);
  CachePolicy policy() const;

  // Attaches `journal` (borrowed, may be null to detach); it must outlive
  // every subsequent mutation of this cache. Takes the cache mutex, so a
  // detach blocks until in-flight mutations have finished notifying the
  // previous journal — after set_journal(nullptr) returns, the old
  // journal receives no further callbacks.
  void set_journal(CacheJournal* journal);

  // Point-in-time copy of the internal cumulative counters.
  Counters counters() const;

  // RAII total lock: blocks every probe and mutation while alive, giving
  // the persistence layer a consistent view spanning snapshot encode
  // through WAL reset. Do not call any cache method while holding one.
  class Freeze {
   public:
    explicit Freeze(const StateCache& cache);
    ~Freeze();
    Freeze(const Freeze&) = delete;
    Freeze& operator=(const Freeze&) = delete;

   private:
    const StateCache& cache_;
  };

  // The live signature → set map. Callers must hold a Freeze (or be the
  // only thread touching the cache, e.g. unit tests and recovery).
  const std::map<std::string, GroupSetPtr>& sets() const { return sets_; }

  int64_t num_group_sets() const;
  // Total number of cached state instances across all group sets.
  int64_t num_entries() const;
  // Approximate footprint of all cached group sets: channel vectors,
  // class keys, data signatures, group-key tables, and fixed per-node
  // overheads. The quantity bounded by CachePolicy::max_bytes.
  int64_t ApproxBytes() const;

 private:
  std::mutex& StripeFor(const std::string& data_sig) const;
  // Mirrors an internal counter bump into the caller's registry.
  static void MirrorCount(const CacheOps& ops, const char* name,
                          int64_t delta = 1);

  // The following require mu_ to be held.
  void EraseSetLocked(std::map<std::string, GroupSetPtr>::iterator it,
                      Counter* counter, const char* mirror_name,
                      const CacheOps& ops);
  // Evicts sets (lowest score first) until the cached total plus
  // `incoming_bytes` fits the budget. `pinned` (the insertion target) is
  // never chosen as a victim. Returns false when impossible.
  bool EnsureRoomLocked(int64_t incoming_bytes, const GroupSet* pinned,
                        const CacheOps& ops);
  int64_t SetBytesStriped(const std::string& sig, const GroupSet& set) const;
  int64_t ApproxBytesLocked() const;

  // Guards sets_, tick_, policy_, journal_, and every GroupSet field
  // except `entries` (see GroupSet). Mutable so const accessors lock.
  mutable std::mutex mu_;
  // Guard each set's `entries` map, selected by signature hash.
  mutable std::array<std::mutex, kNumStripes> stripes_;

  std::map<std::string, GroupSetPtr> sets_;
  CachePolicy policy_;
  CacheJournal* journal_ = nullptr;
  // Internal cumulative registry backing counters(); per-query attribution
  // happens through CacheOps mirroring instead of rebinding.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  Counter* probes_ = nullptr;
  Counter* set_hits_ = nullptr;
  Counter* delta_refreshes_ = nullptr;
  Counter* delta_rows_scanned_ = nullptr;
  Counter* full_invalidations_ = nullptr;
  Counter* epoch_invalidations_ = nullptr;
  Counter* stale_discards_ = nullptr;
  Counter* evictions_ = nullptr;
  Counter* bytes_evicted_ = nullptr;
  Counter* poison_evictions_ = nullptr;
  Counter* scrub_quarantines_ = nullptr;
  uint64_t tick_ = 0;
};

// Observer of StateCache structural mutations; implemented by the
// persistence layer to mirror the cache into a WAL. Callbacks run with the
// cache mutex held (WAL order == mutation order) and must not call back
// into the cache.
class CacheJournal {
 public:
  virtual ~CacheJournal() = default;
  // A new (empty) group set was created.
  virtual void OnCreateSet(const StateCache::GroupSet& set) = 0;
  // `entry` was inserted into the set for `data_sig`.
  virtual void OnInsertEntry(const std::string& data_sig,
                             const std::string& key,
                             const StateCache::Entry& entry) = 0;
  // The set for `data_sig` was erased (invalidation, eviction or Clear).
  virtual void OnEraseSet(const std::string& data_sig) = 0;
};

// True when any channel value of `entry` is NaN or ±Inf — an overflowed or
// half-computed state that must not be shared across queries.
bool EntryIsPoisoned(const StateCache::Entry& entry);

// Shadow checksum of an entry's channels (raw double bit patterns, main
// then sign). Never returns 0 — 0 is the Entry::shadow_crc "unstamped"
// sentinel.
uint32_t EntryShadowCrc(const StateCache::Entry& entry);

// Canonical data signature of a statement: lower-cased sorted table list,
// sorted WHERE conjunct strings, and the group-by list. Two queries with
// equal signatures aggregate the same groups of the same rows.
std::string DataSignature(const SelectStatement& stmt);

// Recovers the sorted table list back out of a data signature (the "T:"
// section). Used by recovery to re-derive the live combined epoch of a
// persisted group set.
std::vector<std::string> TablesFromDataSignature(const std::string& sig);

}  // namespace sudaf

#endif  // SUDAF_SUDAF_CACHE_H_
