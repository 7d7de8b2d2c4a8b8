#ifndef SUDAF_SUDAF_SESSION_H_
#define SUDAF_SUDAF_SESSION_H_

// SudafSession — the library's main entry point.
//
// One session binds a catalog to three execution paths:
//   * kEngine       — the baseline: built-ins via kernels, UDAFs via the
//                     IUME interface, row at a time over boxed values (how
//                     PostgreSQL / Spark SQL run the original queries);
//                     a library UDAF's IUME form is derived from its
//                     definition (DeriveUdaf), hardcoded() holds the rest;
//   * kSudafNoShare — SUDAF rewriting only: UDAF expressions are factored
//                     into aggregation states computed with built-in
//                     kernels, then finished by terminating functions;
//   * kSudafShare   — rewriting + the dynamic cache: states are served from
//                     cached class representatives whenever the sharing
//                     conditions of Theorem 4.1 allow, and newly computed
//                     representatives are cached.
//
// Example:
//   SudafSession session(&catalog);
//   session.library().Define("my_mean", {"x"}, "sum(x^2)/sum(x)");
//   auto result = session.Execute(
//       "SELECT square_id, my_mean(traffic) FROM milan_data "
//       "GROUP BY square_id", ExecMode::kSudafShare);
//   if (result.ok()) {
//     Table& table = **result;              // the result rows
//     double ms = result->stats.total_ms;   // per-query statistics
//     std::cout << result->ProfileText();   // per-phase trace breakdown
//   }
//
// Observability (docs/observability.md): every query executes against a
// registry private to that query — engine layers write their metrics
// there, ExecStats is *derived* from its final snapshot (no field is
// hand-incremented anywhere), and the per-query registry is then folded
// into the session-lifetime registry returned by metrics(), which stays
// cumulative. Each query additionally records a trace tree of timed spans
// (rewrite → probe → input → states → terminate) published through
// QueryResult::trace. `EXPLAIN ANALYZE <select>` surfaces the same data
// through SQL.
//
// Thread safety (docs/service.md): Execute/ExecuteStatement/ExecuteBatch
// are safe for concurrent callers — the state cache, the persistence
// journal, the catalog epochs and the metrics/trace plumbing all
// synchronize internally, and per-query state lives on the caller's
// stack. Session configuration (set_default_exec_options, set_cache_policy,
// persistence enable/disable/suspend/resume) is also thread-safe and takes
// effect for queries that start after the call. Catalog *table
// replacement* while a query that resolved the table is running remains
// undefined; concurrent workloads mutate data via TouchTable or new names
// only. Defining UDAFs (library()) while queries run is not synchronized;
// a definition takes effect for queries that start after it returns (the
// rewrite memo is keyed by the library's stamp).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "agg/udaf.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "engine/exec_options.h"
#include "engine/executor.h"
#include "sudaf/cache.h"
#include "sudaf/cache_persist.h"
#include "sudaf/rewriter.h"
#include "sudaf/shared_scan.h"
#include "sudaf/sharing.h"

namespace sudaf {

enum class ExecMode { kEngine, kSudafNoShare, kSudafShare };

// Per-query execution statistics (all times in milliseconds).
//
// Every field is a projection of the session's MetricsRegistry: the session
// snapshots the registry around each query and derives the struct from the
// delta (see DeriveExecStats in session.cc, which documents the
// field → metric mapping). The struct is kept because a flat value type is
// what benches and tests want to assert against; the registry remains the
// source of truth.
struct ExecStats {
  double total_ms = 0;
  double rewrite_ms = 0;     // rewrite-memo lookup, plus UDAF expansion,
                             // canonicalization and classification on a
                             // memo miss
  double probe_ms = 0;       // cache probing (union plan + lookup)
  double input_ms = 0;       // scan/filter/join/group of base data
  double filter_ms = 0;      // WHERE predicate pass (inside input_ms)
  double gather_ms = 0;      // column binding + any frame gather (inside
                             // input_ms)
  double group_ms = 0;       // group-by hashing (inside input_ms)
  double states_ms = 0;      // state computation (vectorized kernels)
  double terminate_ms = 0;   // terminating functions
  int num_states = 0;
  // Rewrites served from the session's rewrite memo, and rewrites computed
  // (docs/execution.md, "Rewrite memo"): one or the other per rewritten
  // query, 0 and 0 in engine mode.
  int rewrite_memo_hits = 0;
  int rewrite_memo_misses = 0;
  int states_from_cache = 0;
  int states_computed = 0;
  bool scanned_base_data = false;
  // State values served, summed over the query's states: one per state
  // and output row (docs/execution.md, "Output-first terminate"). A hit
  // ordered and cut on its group keys serves LIMIT × states; otherwise
  // every group is served.
  int64_t serve_rows = 0;
  // Bytes copied into a join's gathered frame, the only input that is
  // copied. 0 for a single-table scan in every mode, which reads its base
  // table in place.
  int64_t gathered_bytes = 0;

  // Fused StateBatch executor observability (zero when no fused pass ran:
  // an all-hit query, or an engine-mode query of interpreted UDAFs only).
  bool used_fused = false;
  int64_t morsels = 0;          // morsels processed across fused passes
  int fused_channels = 0;       // distinct (op, input) channels computed
  int fused_slots = 0;          // DAG slots evaluated per morsel
  int fused_shared_slots = 0;   // slots reused across states (CSE hits)
  int fused_log_product_channels = 0;  // Σ ln channels accumulated log-free
  int fused_threads = 1;        // workers per fused pass (mean of the
                                // sudaf.fused.threads_used histogram delta)
  // The terminate program (docs/execution.md, "Output-first terminate"):
  // slots evaluated per vector, and slots reused across terminating
  // functions (CSE hits). Zero in engine mode.
  int terminate_slots = 0;
  int terminate_shared_slots = 0;

  // Robustness counters (docs/robustness.md). A poisoned state has a
  // NaN/±Inf channel value: it is still served to the query that computed
  // it (the arithmetic answer is honest) but never enters the shared
  // cache. The cache_* fields are per-query deltas of StateCache
  // invalidation events.
  int states_poisoned = 0;           // computed states with non-finite values
  int cache_poison_evictions = 0;    // poisoned entries evicted at probe
  int64_t cache_epoch_invalidations = 0;  // sets dropped: table epoch moved
  int64_t cache_stale_discards = 0;       // sets dropped: group-count mismatch

  // Incremental maintenance (docs/execution.md, "Incremental
  // maintenance"): a probe whose set lags only in *append* epoch is
  // refreshed by folding a fused pass over the appended segments into the
  // cached accumulators instead of being discarded. delta_rows_scanned is
  // the base-table rows that delta pass read (≪ a full rescan);
  // full_invalidations are probes that still discarded the set (rewrite,
  // or refresh not possible).
  int64_t cache_delta_refreshes = 0;
  int64_t cache_delta_rows_scanned = 0;
  int64_t cache_full_invalidations = 0;

  // Byte-budget pressure (CachePolicy::max_bytes, docs/robustness.md).
  // Evictions are whole group sets dropped to make room before an insert;
  // budget_rejects are entries that could not fit even after eviction and
  // were kept query-local instead of cached.
  int64_t cache_evictions = 0;
  int64_t cache_bytes_evicted = 0;
  int cache_budget_rejects = 0;

  // Shared-scan batching (docs/service.md, "Shared-scan batching"). When a
  // query executed as part of an ExecuteBatch group, batch_size is the
  // number of queries fused into its pass (0 for solo execution) and
  // states_from_batch counts the representatives this query consumed that
  // another query of the same batch computed — work a solo run would have
  // repeated.
  int batch_size = 0;
  int states_from_batch = 0;

  // Service-layer fields (docs/service.md). Unlike everything above these
  // are NOT registry-derived: QueryService fills them in after the session
  // call returns. They stay zero/false when a session is driven directly.
  int service_attempts = 0;               // 1 + retries for this request
  bool degraded_cache_memory_only = false;  // persistence breaker was open
};

// Everything one query execution produced: the result rows, the derived
// statistics, and (when SessionOptions::collect_traces is on) the
// immutable trace tree. Returned by value from Execute/ExecuteStatement.
//
// operator->/operator* forward to the table, so call sites that only care
// about rows read naturally: `(*result)->num_rows()` on a
// Result<QueryResult> reaches the Table just as it used to reach a bare
// std::unique_ptr<Table>.
struct QueryResult {
  std::unique_ptr<Table> table;
  ExecStats stats;
  TraceHandle trace;  // null when tracing was disabled

  const Table* operator->() const { return table.get(); }
  const Table& operator*() const { return *table; }

  // The documented "sudaf.profile.v1" JSON object: stats + phase
  // breakdown + the full span/event trace (docs/observability.md). This is
  // the schema the shell's `\profile json` prints and bench_fused_states
  // embeds in BENCH_*.json.
  std::string ProfileJson() const;

  // Human-readable profile: one header line plus the indented span tree
  // (what `EXPLAIN ANALYZE` and the shell's `\profile on` print).
  std::string ProfileText() const;
};

// Session-construction knobs, separated by scope: `exec` holds the
// per-query defaults (any Execute call can override them), everything else
// is session-lifetime state (the cache policy lives here, not in
// ExecOptions, so no per-query knob can mutate session state).
struct SessionOptions {
  // Default execution options for queries that don't pass their own.
  ExecOptions exec;
  // Byte budget + WAL compaction threshold of the session's StateCache.
  CachePolicy cache_policy;
  // Record a per-query trace tree (spans + events), published through
  // QueryResult::trace. Costs one mutex op per span/event; turn off for
  // benchmark inner loops that only want ExecStats.
  bool collect_traces = true;
  // Filesystem backend for cache persistence (null = Vfs::Default(), the
  // real POSIX disk). Tests pass a FaultVfs here to drive power cuts and
  // disk faults through the whole persistence stack. Borrowed; must
  // outlive the session.
  Vfs* vfs = nullptr;

  SessionOptions& set_exec(const ExecOptions& e) {
    exec = e;
    return *this;
  }
  SessionOptions& set_cache_policy(const CachePolicy& p) {
    cache_policy = p;
    return *this;
  }
  SessionOptions& set_cache_max_bytes(int64_t bytes) {
    cache_policy.max_bytes = bytes;
    return *this;
  }
  SessionOptions& set_wal_max_bytes(int64_t bytes) {
    cache_policy.wal_max_bytes = bytes;
    return *this;
  }
  SessionOptions& set_collect_traces(bool v) {
    collect_traces = v;
    return *this;
  }
  SessionOptions& set_vfs(Vfs* v) {
    vfs = v;
    return *this;
  }
};

// One member of an ExecuteBatch call. Both pointers are borrowed and must
// outlive the call.
struct BatchItem {
  const SelectStatement* stmt = nullptr;
  const QueryGuard* guard = nullptr;  // may be null (no guard checks)
};

// Aggregate outcome of one ExecuteBatch call — the numbers behind the
// sudaf.batch.* service counters (docs/service.md).
struct BatchExecStats {
  int queries = 0;            // items submitted
  int groups_shared = 0;      // signature groups of >= 2 run as one pass
  int queries_coalesced = 0;  // queries served by a shared pass
  int queries_solo = 0;       // singletons (and kEngine items) run alone
  // Σ over coalesced queries of their distinct state representatives, and
  // how many of those resolved to a representative another query of the
  // same group already requested (computed/probed once instead of twice).
  int64_t states_requested = 0;
  int64_t states_deduped = 0;
  int scan_passes = 0;        // base-data scans shared groups performed
  int scan_passes_saved = 0;  // Σ (group size - 1) over groups that scanned
};

class SudafSession {
 public:
  // `catalog` must outlive the session.
  explicit SudafSession(const Catalog* catalog, SessionOptions options = {});

  UdafLibrary& library() { return library_; }
  UdafRegistry& hardcoded() { return hardcoded_; }
  StateCache& cache() { return cache_; }
  const Catalog* catalog() const { return catalog_; }

  // Options accessors return copies: the session options can be changed by
  // another thread at any time, so handing out references would hand out
  // torn reads. Each query snapshots the options it runs under at start.
  SessionOptions options() const {
    std::lock_guard<std::mutex> lock(options_mu_);
    return options_;
  }
  // Default per-query execution options (SessionOptions::exec).
  ExecOptions exec_options() const {
    std::lock_guard<std::mutex> lock(options_mu_);
    return options_.exec;
  }
  void set_default_exec_options(const ExecOptions& exec) {
    std::lock_guard<std::mutex> lock(options_mu_);
    options_.exec = exec;
  }
  // Applies `policy` to the state cache, evicting down to the new budget
  // immediately.
  void set_cache_policy(const CachePolicy& policy);

  // The session-lifetime metrics registry: cumulative counters over every
  // query this session ran (metric catalogue in docs/observability.md).
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // --- Durable cache (docs/robustness.md, "Durability & memory budget") --
  // Opens (creating if absent) a snapshot+WAL store at `dir`, recovers its
  // surviving contents into this session's cache, and keeps the store in
  // sync with every later cache mutation. Recovery is never fatal — torn,
  // corrupt, stale or poisoned records are dropped individually; inspect
  // cache_persistence()->recovery_stats().
  Status EnableCachePersistence(const std::string& dir);
  // Detaches the store. All mutations up to this point are already in the
  // WAL; no data is lost.
  void DisableCachePersistence();
  // Breaker hooks (docs/service.md): Suspend detaches the journal but
  // remembers the store directory, putting the cache in memory-only mode.
  // Resume reattaches by snapshotting the *current* cache contents over the
  // store (memory is the truth after a suspension — replaying the stale
  // disk state would resurrect old entries) and resets the WAL. Resume
  // fails if the snapshot cannot be written; the caller should stay
  // suspended and retry later. Both are no-ops when already in the target
  // state.
  void SuspendCachePersistence();
  Status ResumeCachePersistence();
  bool cache_persistence_suspended() const;
  // Runs any WAL compaction the journal deferred (see
  // CachePersistence::MaybeCompact). The session calls this itself after
  // every query; exposed for the shell and the service breaker.
  void MaybeCompactCache();
  // Raw store handle for inspection (shell `\cache`, tests). NOT protected
  // against a concurrent Disable/Suspend — callers that reconfigure
  // persistence from other threads must use the counters via the service.
  CachePersistence* cache_persistence() { return persistence_.get(); }

  // One-shot snapshot of the cache to/from a single file (`\cache save` /
  // `\cache load` in the shell). Load merges into the current cache and
  // applies the same per-record recovery rules as EnableCachePersistence.
  Status SaveCache(const std::string& path) const;
  Status LoadCache(const std::string& path,
                   CacheRecoveryStats* stats = nullptr);

  // --- Integrity scrubbing hooks (sudaf/scrubber.h) ----------------------
  // CRC-verifies the attached store's snapshot + WAL on disk without
  // mutating them. NotFound when persistence is disabled or suspended.
  Result<StoreScanReport> VerifyPersistentStore();
  // Rewrites the store from the current in-memory cache (snapshot + WAL
  // reset) — the scrubber's repair action after quarantining corruption.
  // NotFound when persistence is disabled or suspended.
  Status RepublishSnapshot();

  // Parses and runs `sql` under `mode`. `sql` may carry an
  // `EXPLAIN [ANALYZE]` prefix: plain EXPLAIN returns the rewritten form
  // as a one-column table without executing; EXPLAIN ANALYZE executes and
  // returns the profile text as the result table (stats and trace are
  // those of the analyzed query). The overload taking ExecOptions runs
  // this one query under `exec` instead of the session default.
  Result<QueryResult> Execute(const std::string& sql, ExecMode mode);
  Result<QueryResult> Execute(const std::string& sql, ExecMode mode,
                              const ExecOptions& exec);
  Result<QueryResult> ExecuteStatement(const SelectStatement& stmt,
                                       ExecMode mode);
  Result<QueryResult> ExecuteStatement(const SelectStatement& stmt,
                                       ExecMode mode, const ExecOptions& exec);

  // Shared-scan batch execution (docs/service.md, "Shared-scan batching"):
  // runs every item, fusing items with equal data signatures (same tables,
  // WHERE conjuncts and grouping) into one union state DAG computed in a
  // single pass — per-query states deduplicated across queries via their
  // equivalence-class representatives (sudaf/shared_scan.h), one cache
  // insert per shared representative, per-query results/stats/traces
  // fanned back in item order. Items with unique signatures (and every
  // item in kEngine mode) run as solo queries. Results are
  // bit-identical to executing each item alone. Statuses are per item: one
  // member failing (parse limits, guard trip) never fails its neighbors,
  // but a fault in the shared pass itself fails every member of that group
  // (the service retries them solo). `bstats`, when non-null, receives the
  // batch-level accounting.
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::vector<BatchItem>& items, ExecMode mode,
      const ExecOptions& exec, BatchExecStats* bstats = nullptr);
  // Convenience: parses each SQL string (EXPLAIN prefixes are rejected per
  // item) and delegates to the BatchItem overload under the session's
  // default exec options.
  std::vector<Result<QueryResult>> ExecuteBatch(
      const std::vector<std::string>& sqls, ExecMode mode,
      BatchExecStats* bstats = nullptr);

  // Returns the RQ-style rewritten form of `sql` (states + terminating
  // select list) without executing it.
  Result<std::string> ExplainRewrite(const std::string& sql) const;

  // Rewrites `stmt` under library() through the session's rewrite memo
  // (docs/execution.md, "Rewrite memo"). Counts sudaf.rewrite.memo_hits or
  // memo_misses into `metrics` and records a memo.hit or memo.miss event
  // on `span`, each when non-null. Every rewritten path (queries, batches,
  // EXPLAIN, chunked sharing, aggregate views) rewrites here.
  Result<RewrittenQuery> Rewrite(const SelectStatement& stmt,
                                 MetricsRegistry* metrics = nullptr,
                                 TraceSpan* span = nullptr) const;
  // The memo's size: rewrite_memo().entries() and .ApproxBytes().
  const RewriteMemo& rewrite_memo() const { return rewrite_memo_; }

 private:
  // One query's execution context (defined in session.cc): its private
  // metrics registry and trace, its "execute" root span, and its slots
  // into its group's union state plan.
  struct QueryRun;

  // Opens `q` for `stmt` under `exec` with `guard`: a fresh registry and
  // trace, the root span, and the guard counters at start.
  void BeginQuery(QueryRun* q, const SelectStatement& stmt,
                  const QueryGuard* guard, const ExecOptions& exec);
  // Closes `q`: mirrors its guard movement into its registry, derives its
  // ExecStats, folds the registry into metrics(), and returns its result.
  Result<QueryResult> FinishQuery(QueryRun* q);

  // Attempts a segment-delta refresh of `stale` (a FindResult::refreshable
  // set): runs the fused pass over only the appended segments of the
  // single base table of `stmt`, folds the results onto the cached
  // accumulators of every representative of `plan` present in `stale`,
  // extends the group keys with first-occurring-in-delta groups
  // (bit-identical to the cold full-scan group order), and commits through
  // StateCache::CommitRefresh.
  // Returns the refreshed set, or null when the refresh was abandoned
  // (coverage not a live segment boundary, nothing cached to refresh,
  // delta pass failed, or a concurrent writer won) — the caller then
  // re-probes with can_refresh=false to hard-invalidate and falls through
  // to the cold path. Never throws errors at the query: a genuine failure
  // (guard trip, bad plan) re-surfaces on the cold path.
  StateCache::GroupSetPtr RefreshGroupSet(
      const SelectStatement& stmt, const StateCache::GroupSetPtr& stale,
      const CatalogEpochs& epochs, const std::vector<int64_t>& segments,
      const SharedStatePlan& plan, const ExecOptions& exec);

  // The rewritten-mode pipeline for queries with one data signature (a
  // solo query is a group of one): rewrite, one cache probe per distinct
  // representative (or a delta refresh), at most one input scan, one
  // fused pass over the union state DAG, one insert per representative,
  // then per-member serving and termination. Each run must be open
  // (BeginQuery); its table or failure is left in it. A solo run's guard
  // acts inside the scan and the pass; a shared group's pass is
  // guard-free, its members check their guards between phases, and it is
  // accounted in `bstats` (unused for a group of one).
  void ExecuteGroup(std::vector<QueryRun>* runs, bool share,
                    BatchExecStats* bstats);

  // The persistence filesystem backend (SessionOptions::vfs; null means
  // Vfs::Default(), resolved by the persistence layer).
  Vfs* session_vfs() const {
    std::lock_guard<std::mutex> lock(options_mu_);
    return options_.vfs;
  }

  const Catalog* catalog_;
  // Guards options_ (exec defaults, cache policy copy, trace knobs).
  mutable std::mutex options_mu_;
  SessionOptions options_;
  UdafLibrary library_;
  // Rewrite plans by statement shape, keyed under library_.stamp().
  mutable RewriteMemo rewrite_memo_;
  UdafRegistry hardcoded_;
  Executor executor_;
  // Session-lifetime registry; per-query registries merge into it at query
  // end. Declared before cache_ so it outlives the cache on destruction.
  MetricsRegistry metrics_;
  StateCache cache_;
  // Guards the persistence_ pointer itself (enable/disable/suspend/resume
  // and MaybeCompactCache). Journal callbacks from inside queries go
  // through the cache's own journal pointer, not this mutex.
  mutable std::mutex persist_mu_;
  // Declared after cache_: destroyed first, detaching its journal while
  // the cache is still alive.
  std::unique_ptr<CachePersistence> persistence_;
  // Store directory remembered across SuspendCachePersistence so Resume
  // can reattach. Guarded by persist_mu_.
  std::string persist_dir_;
};

}  // namespace sudaf

#endif  // SUDAF_SUDAF_SESSION_H_
