#ifndef SUDAF_STORAGE_CATALOG_H_
#define SUDAF_STORAGE_CATALOG_H_

// Catalog: owns named tables for one database instance.
//
// Every mutation of a name advances that table's epochs, which cached
// derived state (the SUDAF StateCache) snapshots and re-checks on probe —
// see docs/robustness.md for the contract. Mutations come in two flavors:
//
//  * Destructive (AddTable / PutTable / PutExternalTable / TouchTable):
//    rows may have changed arbitrarily. Advances the *rewrite epoch* and
//    resets the segment log; cached state over the table is hard-invalidated
//    on the next probe.
//  * Append-only (AppendRows / NotifyAppend): rows were added at the end,
//    schema and existing rows unchanged. Advances the *append epoch* and
//    records the new table size in the per-table *segment log*; cached
//    state stays refreshable — a probe folds a fused pass over just the
//    delta segments into the cached accumulators (docs/execution.md,
//    "Incremental maintenance").
//
// The segment log is the list of cumulative row counts at each append
// boundary (ending with the current size). The fused executor's chunk
// tree is a pure function of this log, which is what makes a cold full
// scan and merge(cached_state, delta_pass) bit-identical.
//
// Storage chunks (storage/column.h) are a separate, coarser layout: each
// AppendRows adds its delta as one chunk and coalescing merges whole
// chunks, so every segment AppendRows records lies inside one storage
// chunk, and no morsel of a fused pass segmented by this log (a cold or
// delta refresh pass) straddles a chunk end.
//
// Thread safety: all methods lock an internal mutex, so registrations,
// epoch bumps and lookups are safe against concurrent queries. The Table
// objects returned by GetTable are NOT protected: replacing or destroying
// a table while a query that resolved it is still running is undefined —
// concurrent workloads must only mutate tables via TouchTable/NotifyAppend
// (in-place changes by the owner) or add *new* names. docs/service.md
// spells out this contract.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace sudaf {

// Snapshot of a table set's mutation epochs. `rewrite` changes on any
// destructive mutation, `append` additionally on append-only growth. The
// combined form (TablesEpochs) mixes each table's name hash into the
// combination, so distinct mutation histories — including histories that
// differ only in *which* table moved — never alias (the old sum-of-epochs
// scheme let `{A:5, B:0}` collide with `{A:4, B:1}` across process
// restarts, silently reviving stale persisted sets).
struct CatalogEpochs {
  uint64_t rewrite = 0;
  uint64_t append = 0;

  friend bool operator==(const CatalogEpochs& a, const CatalogEpochs& b) {
    return a.rewrite == b.rewrite && a.append == b.append;
  }
  friend bool operator!=(const CatalogEpochs& a, const CatalogEpochs& b) {
    return !(a == b);
  }
};

class Catalog {
 public:
  Catalog() = default;
  // Movable for single-threaded setup code (fixtures building a catalog
  // and returning it by value). Moving a catalog that other threads are
  // concurrently using is undefined; unlike the old silent contract this
  // is now enforced — any catalog call observed in flight on either side
  // of a move aborts with a diagnostic rather than corrupting epoch state.
  Catalog(Catalog&& other) noexcept;
  Catalog& operator=(Catalog&& other) noexcept;

  // Registers `table` under `name`; fails if the name is taken.
  Status AddTable(const std::string& name, std::unique_ptr<Table> table);

  // Replaces or creates `name`.
  void PutTable(const std::string& name, std::unique_ptr<Table> table);

  // Registers a non-owning reference (e.g. a materialized view owned by the
  // caller, or another catalog's table). The table must outlive this
  // catalog. External names shadow owned ones.
  void PutExternalTable(const std::string& name, Table* table);

  Result<Table*> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  // Declares that `name` was destructively mutated in place (rows changed
  // or removed by an external table's owner), advancing its rewrite epoch
  // so cached state over it is hard-invalidated on the next probe. For
  // pure appends prefer AppendRows/NotifyAppend, which keep cached state
  // refreshable.
  void TouchTable(const std::string& name);

  // Appends `delta`'s rows to the owned or external table `name` (schemas
  // must match exactly), advancing the append epoch and recording the new
  // segment boundary. Cached state over `name` stays valid up to its
  // recorded row coverage and is incrementally refreshed on probe.
  //
  // The rows go in as a new storage chunk of every column
  // (Table::AppendChunk), so the append copies the delta and never the
  // rows already stored; trailing chunks coalesce by a binary-counter rule
  // that copies each row O(log k) times over k appends. `delta` may be the
  // table itself.
  Status AppendRows(const std::string& name, const Table& delta);

  // Declares that the owner of table `name` (typically external) appended
  // rows in place. Records the table's current size as the new segment
  // boundary and advances the append epoch. Defensive: if the table
  // shrank since the last recorded boundary the mutation was destructive,
  // so this degrades to a rewrite bump (never a stale answer).
  Status NotifyAppend(const std::string& name);

  // Raw epochs of `name`; zero-initialized for a never-registered name.
  CatalogEpochs TableEpochs(const std::string& name) const;

  // Combined epochs of a query's table set. Each table contributes
  // mix(hash(name), epoch) per component, summed — order-independent,
  // sensitive to any mutation of any referenced table, insensitive to
  // unrelated tables, and collision-free across differing histories (up
  // to 64-bit hash collisions).
  CatalogEpochs TablesEpochs(const std::vector<std::string>& names) const;

  // Segment log of `name`: cumulative row counts at each append boundary,
  // ending with the size at the last recorded mutation. Empty for a
  // never-registered name. Destructive mutations reset the log to a
  // single segment covering the whole table.
  std::vector<int64_t> TableSegments(const std::string& name) const;

  // Bytes of row values AppendRows has copied into storage since this
  // catalog was made: each delta once, plus the chunks its coalescing
  // merged. A machine-independent measure of append work.
  int64_t append_bytes_copied() const;

 private:
  struct TableState {
    uint64_t rewrite_epoch = 0;
    uint64_t append_epoch = 0;
    std::vector<int64_t> segment_ends;
  };

  // RAII guard for the loud move-vs-concurrent-use check: every public
  // method holds one for its duration; the move operations require the
  // in-flight count to be zero.
  class CallGuard {
   public:
    explicit CallGuard(const Catalog& c) : c_(c) {
      c_.calls_in_flight_.fetch_add(1, std::memory_order_relaxed);
    }
    ~CallGuard() { c_.calls_in_flight_.fetch_sub(1, std::memory_order_relaxed); }

   private:
    const Catalog& c_;
  };

  void FailIfInUse(const char* op) const noexcept;
  // Destructive-mutation bookkeeping shared by Add/Put/Touch; requires mu_.
  void BumpRewriteLocked(const std::string& name);
  int64_t RowsOfLocked(const std::string& name) const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::map<std::string, Table*> external_;
  std::map<std::string, TableState> epochs_;
  int64_t append_bytes_copied_ = 0;
  mutable std::atomic<int64_t> calls_in_flight_{0};
};

}  // namespace sudaf

#endif  // SUDAF_STORAGE_CATALOG_H_
