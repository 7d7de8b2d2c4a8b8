#include "sudaf/session.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "agg/builtin_kernels.h"
#include "common/failpoint.h"
#include "common/query_guard.h"
#include "common/thread_pool.h"
#include "engine/state_batch.h"
#include "sudaf/shared_scan.h"

namespace sudaf {

namespace {

// The one place ExecStats is produced: every field below is a projection
// of a per-query registry delta (counters/dcounters subtract, gauges are
// read from the post-query snapshot). There are no other writers — which
// is what makes the struct provably consistent with the registry.
ExecStats DeriveExecStats(const MetricsSnapshot& d) {
  ExecStats s;
  s.total_ms = d.dcounter("sudaf.query.total_ms");
  s.rewrite_ms = d.dcounter("sudaf.phase.rewrite_ms");
  s.probe_ms = d.dcounter("sudaf.phase.probe_ms");
  s.input_ms = d.dcounter("sudaf.phase.input_ms");
  s.filter_ms = d.dcounter("sudaf.phase.filter_ms");
  s.gather_ms = d.dcounter("sudaf.phase.gather_ms");
  s.group_ms = d.dcounter("sudaf.phase.group_ms");
  s.states_ms = d.dcounter("sudaf.phase.states_ms");
  s.terminate_ms = d.dcounter("sudaf.phase.terminate_ms");
  s.num_states = static_cast<int>(d.counter("sudaf.states.requested"));
  s.rewrite_memo_hits =
      static_cast<int>(d.counter("sudaf.rewrite.memo_hits"));
  s.rewrite_memo_misses =
      static_cast<int>(d.counter("sudaf.rewrite.memo_misses"));
  s.states_from_cache = static_cast<int>(d.counter("sudaf.states.from_cache"));
  s.states_computed = static_cast<int>(d.counter("sudaf.states.computed"));
  s.scanned_base_data = d.counter("sudaf.input.scans") > 0;
  s.serve_rows = d.counter("sudaf.serve.rows");
  s.gathered_bytes = d.counter("sudaf.input.gathered_bytes");
  s.used_fused = d.counter("sudaf.fused.passes") > 0;
  s.morsels = d.counter("sudaf.fused.morsels");
  s.fused_channels = static_cast<int>(d.counter("sudaf.fused.channels"));
  s.fused_slots = static_cast<int>(d.counter("sudaf.fused.slots"));
  s.fused_shared_slots =
      static_cast<int>(d.counter("sudaf.fused.shared_slots"));
  s.terminate_slots = static_cast<int>(d.counter("sudaf.terminate.slots"));
  s.terminate_shared_slots =
      static_cast<int>(d.counter("sudaf.terminate.shared_slots"));
  s.fused_log_product_channels =
      static_cast<int>(d.counter("sudaf.fused.log_product_channels"));
  // Worker count per fused pass: the mean of the per-pass threads_used
  // histogram over this query's delta window. Chunked executions run many
  // passes; each observes its own worker count, so the mean (rounded) is
  // exact whenever all passes sized alike — and honest when they didn't.
  s.fused_threads = 1;
  auto th = d.histograms.find("sudaf.fused.threads_used");
  if (th != d.histograms.end() && th->second.count > 0) {
    s.fused_threads = std::max(
        1, static_cast<int>(th->second.sum / th->second.count + 0.5));
  }
  s.states_poisoned = static_cast<int>(d.counter("sudaf.states.poisoned"));
  s.cache_poison_evictions =
      static_cast<int>(d.counter("sudaf.cache.poison_evictions"));
  s.cache_epoch_invalidations = d.counter("sudaf.cache.epoch_invalidations");
  s.cache_stale_discards = d.counter("sudaf.cache.stale_discards");
  s.cache_delta_refreshes = d.counter("sudaf.cache.delta_refreshes");
  s.cache_delta_rows_scanned = d.counter("sudaf.cache.delta_rows_scanned");
  s.cache_full_invalidations = d.counter("sudaf.cache.full_invalidations");
  s.cache_evictions = d.counter("sudaf.cache.evictions");
  s.cache_bytes_evicted = d.counter("sudaf.cache.bytes_evicted");
  s.cache_budget_rejects =
      static_cast<int>(d.counter("sudaf.cache.budget_rejects"));
  s.batch_size = static_cast<int>(d.counter("sudaf.batch.size"));
  s.states_from_batch =
      static_cast<int>(d.counter("sudaf.states.from_batch"));
  return s;
}

std::string FmtMs(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

// Wraps multi-line text into a one-string-column table (one row per
// line) — the result shape of EXPLAIN and EXPLAIN ANALYZE.
std::unique_ptr<Table> TextTable(const std::string& column,
                                 const std::string& text) {
  Schema schema;
  (void)schema.AddField({column, DataType::kString});
  auto table = std::make_unique<Table>(schema);
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    table->AppendRow({Value(line)});
  }
  table->FinishBulkAppend();
  return table;
}

}  // namespace

std::string QueryResult::ProfileJson() const {
  // Probe decisions come from the trace when one was recorded (they are
  // per-probe events); the stats-based fallback counts served/computed
  // states instead, which is the closest registry-derived equivalent.
  int64_t hits = trace != nullptr ? trace->EventCount("cache.hit")
                                  : stats.states_from_cache;
  int64_t misses = trace != nullptr ? trace->EventCount("cache.miss")
                                    : stats.states_computed;
  std::string out = "{\"schema\": \"sudaf.profile.v1\"";
  out += ", \"total_ms\": " + FmtMs(stats.total_ms);
  out += ", \"phases\": {";
  out += "\"rewrite_ms\": " + FmtMs(stats.rewrite_ms);
  out += ", \"probe_ms\": " + FmtMs(stats.probe_ms);
  out += ", \"input_ms\": " + FmtMs(stats.input_ms);
  out += ", \"filter_ms\": " + FmtMs(stats.filter_ms);
  out += ", \"gather_ms\": " + FmtMs(stats.gather_ms);
  out += ", \"group_ms\": " + FmtMs(stats.group_ms);
  out += ", \"states_ms\": " + FmtMs(stats.states_ms);
  out += ", \"terminate_ms\": " + FmtMs(stats.terminate_ms);
  out += "}, \"rewrite\": {";
  out += "\"memo_hits\": " + std::to_string(stats.rewrite_memo_hits);
  out += ", \"memo_misses\": " + std::to_string(stats.rewrite_memo_misses);
  out += "}, \"states\": {";
  out += "\"requested\": " + std::to_string(stats.num_states);
  out += ", \"from_cache\": " + std::to_string(stats.states_from_cache);
  out += ", \"computed\": " + std::to_string(stats.states_computed);
  out += ", \"poisoned\": " + std::to_string(stats.states_poisoned);
  out += "}, \"cache\": {";
  out += "\"hits\": " + std::to_string(hits);
  out += ", \"misses\": " + std::to_string(misses);
  out += ", \"poison_evictions\": " +
         std::to_string(stats.cache_poison_evictions);
  out += ", \"epoch_invalidations\": " +
         std::to_string(stats.cache_epoch_invalidations);
  out += ", \"stale_discards\": " + std::to_string(stats.cache_stale_discards);
  out += ", \"delta_refreshes\": " +
         std::to_string(stats.cache_delta_refreshes);
  out += ", \"delta_rows_scanned\": " +
         std::to_string(stats.cache_delta_rows_scanned);
  out += ", \"full_invalidations\": " +
         std::to_string(stats.cache_full_invalidations);
  out += ", \"evictions\": " + std::to_string(stats.cache_evictions);
  out += ", \"bytes_evicted\": " + std::to_string(stats.cache_bytes_evicted);
  out += ", \"budget_rejects\": " +
         std::to_string(stats.cache_budget_rejects);
  out += "}, \"fused\": {";
  out += std::string("\"used\": ") + (stats.used_fused ? "true" : "false");
  out += ", \"morsels\": " + std::to_string(stats.morsels);
  out += ", \"channels\": " + std::to_string(stats.fused_channels);
  out += ", \"slots\": " + std::to_string(stats.fused_slots);
  out += ", \"shared_slots\": " + std::to_string(stats.fused_shared_slots);
  out += ", \"log_product_channels\": " +
         std::to_string(stats.fused_log_product_channels);
  out += ", \"threads_used\": " + std::to_string(stats.fused_threads);
  out += "}, \"terminate\": {";
  out += "\"slots\": " + std::to_string(stats.terminate_slots);
  out += ", \"shared_slots\": " + std::to_string(stats.terminate_shared_slots);
  out += "}, \"input\": {";
  out += "\"gathered_bytes\": " + std::to_string(stats.gathered_bytes);
  out += "}, \"trace\": ";
  out += trace != nullptr ? trace->ToJson() : std::string("null");
  out += "}";
  return out;
}

std::string QueryResult::ProfileText() const {
  std::string out = "total " + FmtMs(stats.total_ms) + " ms";
  out += "  states " + std::to_string(stats.num_states);
  out += " (cache " + std::to_string(stats.states_from_cache);
  out += ", computed " + std::to_string(stats.states_computed) + ")";
  if (stats.used_fused) {
    out += "  fused " + std::to_string(stats.fused_channels) + "ch/" +
           std::to_string(stats.fused_slots) + "slots";
  }
  out += "\n";
  if (trace != nullptr) {
    out += trace->ToText();
  } else {
    out += "  rewrite   " + FmtMs(stats.rewrite_ms) + " ms";
    if (stats.rewrite_memo_hits + stats.rewrite_memo_misses > 0) {
      out += stats.rewrite_memo_hits > 0 ? "  memo hit" : "  memo miss";
    }
    out += "\n";
    out += "  probe     " + FmtMs(stats.probe_ms) + " ms\n";
    out += "  input     " + FmtMs(stats.input_ms) + " ms\n";
    out += "  states    " + FmtMs(stats.states_ms) + " ms\n";
    out += "  terminate " + FmtMs(stats.terminate_ms) + " ms";
    if (stats.terminate_slots > 0) {
      out += "  slots " + std::to_string(stats.terminate_slots) +
             " (shared " + std::to_string(stats.terminate_shared_slots) + ")";
    }
    out += "\n";
  }
  return out;
}

SudafSession::SudafSession(const Catalog* catalog, SessionOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      library_(UdafLibrary::Standard()),
      executor_(catalog, &hardcoded_, &library_) {
  cache_.set_policy(options_.cache_policy);
}

void SudafSession::set_cache_policy(const CachePolicy& policy) {
  {
    std::lock_guard<std::mutex> lock(options_mu_);
    options_.cache_policy = policy;
  }
  cache_.set_policy(policy);
  cache_.EnforceBudget();
  std::lock_guard<std::mutex> lock(persist_mu_);
  if (persistence_ != nullptr) {
    persistence_->set_wal_limit(policy.wal_max_bytes);
  }
}

Status SudafSession::EnableCachePersistence(const std::string& dir) {
  std::lock_guard<std::mutex> lock(persist_mu_);
  persistence_.reset();  // detach any previous store first
  SUDAF_ASSIGN_OR_RETURN(
      persistence_,
      CachePersistence::Open(dir, catalog_, &cache_, session_vfs()));
  persist_dir_ = dir;
  return Status::OK();
}

void SudafSession::DisableCachePersistence() {
  std::lock_guard<std::mutex> lock(persist_mu_);
  persistence_.reset();
  persist_dir_.clear();
}

void SudafSession::SuspendCachePersistence() {
  std::lock_guard<std::mutex> lock(persist_mu_);
  // Resetting detaches the journal; set_journal blocks until in-flight
  // callbacks drain, so no append can land after this returns. persist_dir_
  // stays set — that is what distinguishes suspended from disabled.
  persistence_.reset();
}

Status SudafSession::ResumeCachePersistence() {
  std::lock_guard<std::mutex> lock(persist_mu_);
  if (persistence_ != nullptr) return Status::OK();
  if (persist_dir_.empty()) {
    return Status::InvalidArgument("cache persistence was never enabled");
  }
  SUDAF_ASSIGN_OR_RETURN(
      persistence_,
      CachePersistence::Attach(persist_dir_, catalog_, &cache_,
                               session_vfs()));
  return Status::OK();
}

bool SudafSession::cache_persistence_suspended() const {
  std::lock_guard<std::mutex> lock(persist_mu_);
  return persistence_ == nullptr && !persist_dir_.empty();
}

void SudafSession::MaybeCompactCache() {
  std::lock_guard<std::mutex> lock(persist_mu_);
  if (persistence_ != nullptr) persistence_->MaybeCompact();
}

Status SudafSession::SaveCache(const std::string& path) const {
  return SaveCacheSnapshot(cache_, path, session_vfs());
}

Status SudafSession::LoadCache(const std::string& path,
                               CacheRecoveryStats* stats) {
  return LoadCacheSnapshot(path, *catalog_, &cache_, stats, session_vfs());
}

Result<StoreScanReport> SudafSession::VerifyPersistentStore() {
  std::lock_guard<std::mutex> lock(persist_mu_);
  if (persistence_ == nullptr) {
    return Status::NotFound("cache persistence is not attached");
  }
  return persistence_->VerifyStore();
}

Status SudafSession::RepublishSnapshot() {
  std::lock_guard<std::mutex> lock(persist_mu_);
  if (persistence_ == nullptr) {
    return Status::NotFound("cache persistence is not attached");
  }
  return persistence_->Save();
}

Result<QueryResult> SudafSession::Execute(const std::string& sql,
                                          ExecMode mode) {
  return Execute(sql, mode, exec_options());
}

Result<QueryResult> SudafSession::Execute(const std::string& sql,
                                          ExecMode mode,
                                          const ExecOptions& exec) {
  SUDAF_ASSIGN_OR_RETURN(ParsedSql parsed, ParseSql(sql));
  if (parsed.explain && !parsed.analyze) {
    SUDAF_ASSIGN_OR_RETURN(RewrittenQuery rewritten, Rewrite(*parsed.select));
    QueryResult result;
    result.table = TextTable("plan", rewritten.Explain(*parsed.select));
    return result;
  }
  SUDAF_ASSIGN_OR_RETURN(QueryResult result,
                         ExecuteStatement(*parsed.select, mode, exec));
  if (parsed.analyze) {
    result.table = TextTable("profile", result.ProfileText());
  }
  return result;
}

Result<QueryResult> SudafSession::ExecuteStatement(const SelectStatement& stmt,
                                                   ExecMode mode) {
  return ExecuteStatement(stmt, mode, exec_options());
}


// One query's execution context. Every query — engine or rewritten, solo
// or batched — writes its metrics to a registry private to it, which is
// what makes concurrent queries' stats independent (no delta arithmetic
// against a shared registry, no cross-query attribution), and records its
// own trace under an "execute" root span whose accumulator IS the
// total_ms metric, so the trace tree and the derived stats agree by
// construction.
struct SudafSession::QueryRun {
  const SelectStatement* stmt = nullptr;
  const QueryGuard* guard = nullptr;
  std::shared_ptr<QueryTrace> trace;
  MetricsRegistry qm;
  // Caller knobs plus this query's observability sinks. Engine layers
  // only ever see these borrowed pointers.
  ExecOptions run;
  std::unique_ptr<TraceSpan> root;  // "execute"; closing stamps total_ms
  int64_t guard_checks0 = 0;
  int64_t guard_trips0 = 0;
  RewrittenQuery rewritten;
  std::vector<SharedStatePlan::Slot> slots;
  Status failed;  // first definite failure
  std::unique_ptr<Table> table;

  bool alive() const { return failed.ok(); }
};

void SudafSession::BeginQuery(QueryRun* q, const SelectStatement& stmt,
                              const QueryGuard* guard,
                              const ExecOptions& exec) {
  {
    std::lock_guard<std::mutex> lock(options_mu_);
    if (options_.collect_traces) {
      q->trace = std::make_shared<QueryTrace>();
    }
  }
  q->stmt = &stmt;
  q->guard = guard;
  q->run = exec;
  q->run.metrics = &q->qm;
  q->run.trace = q->trace.get();
  q->run.guard = guard;
  // The guard keeps its own cumulative counters; FinishQuery mirrors this
  // query's movement into the registry.
  if (guard != nullptr) {
    q->guard_checks0 = guard->checks();
    q->guard_trips0 = guard->trips();
  }
  q->qm.counter("sudaf.query.count")->Add();
  q->root = std::make_unique<TraceSpan>(q->trace.get(), "execute", -1,
                                        q->qm.dcounter("sudaf.query.total_ms"));
  q->run.trace_span = q->root->id();
}

Result<QueryResult> SudafSession::FinishQuery(QueryRun* q) {
  // Members of a batch sharing one guard object each see the full delta.
  if (q->guard != nullptr) {
    q->qm.counter("sudaf.guard.checks")
        ->Add(q->guard->checks() - q->guard_checks0);
    q->qm.counter("sudaf.guard.trips")
        ->Add(q->guard->trips() - q->guard_trips0);
  }
  if (!q->alive()) q->qm.counter("sudaf.query.errors")->Add();
  q->root.reset();
  // The registry started empty, so its snapshot IS the query's delta. This
  // also attributes work done on error paths (invalidations, guard trips)
  // before the error surfaces.
  const MetricsSnapshot snap = q->qm.Snapshot();
  metrics_.Merge(snap);
  SUDAF_RETURN_IF_ERROR(q->failed);
  QueryResult result;
  result.table = std::move(q->table);
  result.stats = DeriveExecStats(snap);
  result.trace = std::move(q->trace);
  return result;
}

Result<QueryResult> SudafSession::ExecuteStatement(const SelectStatement& stmt,
                                                   ExecMode mode,
                                                   const ExecOptions& exec) {
  std::vector<QueryRun> runs(1);
  QueryRun& q = runs[0];
  BeginQuery(&q, stmt, exec.guard, exec);
  // The pool keeps cumulative counters too. Its mirror over-attributes
  // under concurrency (other queries' tasks land in the window) but stays
  // exact for serial callers.
  const ThreadPool::Counters pool_before = ThreadPool::Global().counters();
  if (mode == ExecMode::kEngine) {
    Result<std::unique_ptr<Table>> table = executor_.Execute(stmt, q.run);
    if (table.ok()) {
      q.table = std::move(*table);
    } else {
      q.failed = table.status();
    }
  } else {
    ExecuteGroup(&runs, mode == ExecMode::kSudafShare, nullptr);
  }
  const ThreadPool::Counters pool_after = ThreadPool::Global().counters();
  q.qm.counter("sudaf.pool.jobs")->Add(pool_after.jobs - pool_before.jobs);
  q.qm.counter("sudaf.pool.tasks")->Add(pool_after.tasks - pool_before.tasks);
  Result<QueryResult> result = FinishQuery(&q);
  // Run any WAL compaction this query's cache traffic deferred, now that
  // no cache locks are held.
  MaybeCompactCache();
  return result;
}

Result<std::string> SudafSession::ExplainRewrite(
    const std::string& sql) const {
  SUDAF_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> stmt,
                         ParseSelect(sql));
  SUDAF_ASSIGN_OR_RETURN(RewrittenQuery rewritten, Rewrite(*stmt));
  return rewritten.Explain(*stmt);
}

Result<RewrittenQuery> SudafSession::Rewrite(const SelectStatement& stmt,
                                             MetricsRegistry* metrics,
                                             TraceSpan* span) const {
  bool hit = false;
  Result<RewrittenQuery> rewritten =
      rewrite_memo_.Rewrite(stmt, library_, &hit);
  if (metrics != nullptr) {
    metrics->counter(hit ? "sudaf.rewrite.memo_hits"
                         : "sudaf.rewrite.memo_misses")
        ->Add();
  }
  if (span != nullptr) span->Event(hit ? "memo.hit" : "memo.miss");
  return rewritten;
}

namespace {

// Consistent (epochs, segment log) view of a statement's tables. The two
// catalog reads are separate lock acquisitions, so the epochs are re-read
// until they bracket the segment read unchanged; queries clamp their scan
// to `rows` and stamp `epochs`, which keeps every cached state consistent
// with its stamp even when appends land mid-query.
struct TableSnapshot {
  CatalogEpochs epochs;
  std::vector<int64_t> segments;  // single-table statements only
  int64_t rows = -1;              // segment-log boundary; -1 = no segments
};

TableSnapshot SnapshotTables(const Catalog& catalog,
                             const std::vector<std::string>& tables) {
  TableSnapshot snap;
  snap.epochs = catalog.TablesEpochs(tables);
  if (tables.size() != 1) return snap;
  for (int attempt = 0; attempt < 4; ++attempt) {
    snap.segments = catalog.TableSegments(tables[0]);
    CatalogEpochs after = catalog.TablesEpochs(tables);
    if (after == snap.epochs) break;
    // An append raced the snapshot; adopt the newer epochs and re-read.
    snap.epochs = after;
  }
  if (!snap.segments.empty()) snap.rows = snap.segments.back();
  return snap;
}

// `channel` extended to `n` groups: cached values keep their slots, groups
// first occurring in the delta start from the ⊕-identity (exactly the
// initial accumulator a cold pass gives a group none of whose rows have
// been folded yet).
std::vector<double> ExtendChannel(const std::vector<double>& channel,
                                  int32_t n, double identity) {
  std::vector<double> out(static_cast<size_t>(n), identity);
  std::copy(channel.begin(), channel.end(), out.begin());
  return out;
}

}  // namespace

StateCache::GroupSetPtr SudafSession::RefreshGroupSet(
    const SelectStatement& stmt, const StateCache::GroupSetPtr& stale,
    const CatalogEpochs& epochs, const std::vector<int64_t>& segments,
    const SharedStatePlan& plan, const ExecOptions& exec) {
  MetricsRegistry& qm = *exec.metrics;
  QueryTrace* trace = exec.trace;
  const CacheOps cops{exec.metrics, trace};
  const int64_t snap = segments.empty() ? -1 : segments.back();
  const int64_t covered = stale->covered_rows;
  // Epochs are hash-mixed and therefore unordered — they can only be
  // compared for equality, never for direction. What proves the cached
  // accumulators are a *prefix* of the live table (rather than from a
  // divergent history whose append epoch merely collided) is the coverage
  // being a live segment-log boundary.
  if (snap < 0 || covered < 0 || covered > snap ||
      (covered != 0 &&
       !std::binary_search(segments.begin(), segments.end(), covered))) {
    return nullptr;
  }

  // Copy out every representative still cached (channel sizes must match
  // the set's group count — a malformed set is not worth trusting). With
  // nothing to carry forward, a cold recompute is strictly better.
  const std::vector<SharedStatePlan::Rep>& reps = plan.reps();
  std::vector<bool> carried(reps.size(), false);
  std::vector<StateCache::Entry> old(reps.size());
  bool any_carried = false;
  for (size_t r = 0; r < reps.size(); ++r) {
    if (reps[r].direct ||
        cache_.ProbeEntry(stale.get(), reps[r].key(), &old[r], cops) !=
            StateCache::Probe::kHit) {
      continue;
    }
    if (static_cast<int32_t>(old[r].main.size()) != stale->num_groups ||
        (!old[r].sign.empty() &&
         static_cast<int32_t>(old[r].sign.size()) != stale->num_groups)) {
      return nullptr;
    }
    carried[r] = true;
    any_carried = true;
  }
  if (!any_carried) return nullptr;

  TraceSpan refresh_span(trace, "refresh", exec.trace_span,
                         qm.dcounter("sudaf.phase.refresh_ms"));

  // Delta input: filter and group only the appended rows, read in place
  // under the snapshot's segment boundaries, so the fused pass's chunk
  // tree is exactly the suffix of the cold full pass's tree.
  BatchRequestPlan rq = BuildBatchRequests(plan, carried);
  ScanSpec scan;
  scan.begin = covered;
  scan.end = snap;
  scan.segment_ends = segments;
  ExecOptions dopts = exec;
  dopts.scan = &scan;
  dopts.trace_span = refresh_span.id();
  Result<PreparedInput> delta_or =
      executor_.Prepare(stmt, RequestColumns(rq), dopts);
  if (!delta_or.ok()) return nullptr;
  PreparedInput delta = std::move(*delta_or);
  refresh_span.Event("delta_rows", delta.num_input_rows);

  // Map delta-local group ids onto the cached group order, extending with
  // groups first occurring in the delta. BuildGroups assigns global ids in
  // first-occurrence row order and the selection vector is ascending, so
  // cached groups keep their ids and new groups land after them in exactly
  // the order a cold full scan over [0, snap) would have assigned. An
  // ungrouped set's key tables have no columns and its one group is 0.
  const Table& old_keys = *stale->group_keys;
  if (delta.group_keys == nullptr ||
      old_keys.num_columns() != delta.group_keys->num_columns() ||
      (old_keys.num_columns() > 0 ? old_keys.num_rows() != stale->num_groups
                                  : stale->num_groups > 1)) {
    return nullptr;
  }
  for (int c = 0; c < old_keys.num_columns(); ++c) {
    if (old_keys.column(c).type() != delta.group_keys->column(c).type()) {
      return nullptr;
    }
  }
  MergedGroupKeys merged = MergeGroupKeys(
      {{&old_keys, stale->num_groups},
       {delta.group_keys.get(), delta.num_groups}});
  const int32_t new_n = merged.num_groups;
  const std::vector<int32_t>& remap = merged.remaps[1];

  std::vector<int32_t> group_ids(delta.group_ids.size());
  for (size_t i = 0; i < delta.group_ids.size(); ++i) {
    group_ids[i] = remap[delta.group_ids[i]];
  }

  // One fused pass over the delta, folding onto the cached accumulators.
  std::vector<std::vector<double>> inits(rq.requests.size());
  for (size_t r = 0; r < reps.size(); ++r) {
    if (!carried[r]) continue;
    const int main = rq.main_idx[r];
    inits[main] = ExtendChannel(old[r].main, new_n,
                                AggIdentity(rq.requests[main].op));
    if (rq.sign_idx[r] >= 0) {
      inits[rq.sign_idx[r]] =
          ExtendChannel(old[r].sign, new_n, AggIdentity(AggOp::kProd));
    }
  }
  StateBatchIncremental inc;
  inc.segment_ends = delta.segment_ends;
  inc.init.reserve(inits.size());
  for (const std::vector<double>& v : inits) inc.init.push_back(&v);

  ExecOptions bopts = exec;
  bopts.trace_span = refresh_span.id();
  Result<std::vector<std::vector<double>>> channels_or =
      ComputeStateBatch(rq.requests, delta.Binder(), group_ids, new_n, bopts,
                        &inc);
  if (!channels_or.ok()) return nullptr;
  std::vector<std::vector<double>>& channels = *channels_or;

  std::vector<std::pair<std::string, StateCache::Entry>> entries;
  for (size_t r = 0; r < reps.size(); ++r) {
    if (!carried[r]) continue;
    StateCache::Entry e;
    e.main = std::move(channels[rq.main_idx[r]]);
    if (rq.sign_idx[r] >= 0) e.sign = std::move(channels[rq.sign_idx[r]]);
    entries.emplace_back(reps[r].key(), std::move(e));
  }

  // Commit: erase(old) → create(new) → inserts, journaled in WAL order;
  // counts the delta refresh and the delta rows scanned. Null on a lost
  // race — the caller falls back to the cold path.
  return cache_.CommitRefresh(stale, std::move(merged.keys), new_n, epochs,
                              snap, std::move(entries), snap - covered, cops);
}

std::vector<Result<QueryResult>> SudafSession::ExecuteBatch(
    const std::vector<BatchItem>& items, ExecMode mode,
    const ExecOptions& exec, BatchExecStats* bstats) {
  BatchExecStats stats;
  stats.queries = static_cast<int>(items.size());
  std::vector<Result<QueryResult>> results;
  results.reserve(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    results.emplace_back(Status::Internal("batch item was not executed"));
  }

  auto run_solo = [&](size_t i) {
    ++stats.queries_solo;
    if (items[i].stmt == nullptr) {
      results[i] = Status::InvalidArgument("batch item without a statement");
      return;
    }
    ExecOptions solo = exec;
    if (items[i].guard != nullptr) solo.guard = items[i].guard;
    results[i] = ExecuteStatement(*items[i].stmt, mode, solo);
  };

  if (mode == ExecMode::kEngine) {
    // The engine-native baseline has no rewritten states to share; batching
    // it would only serialize independent queries behind one another.
    for (size_t i = 0; i < items.size(); ++i) run_solo(i);
  } else {
    // Group items by data signature (tables + filter + grouping — exactly
    // the cache's notion of "same pass"), preserving first-appearance
    // order so results stay deterministic.
    std::map<std::string, std::vector<size_t>> groups;
    std::vector<const std::string*> order;
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].stmt == nullptr) {
        run_solo(i);
        continue;
      }
      auto [it, inserted] =
          groups.emplace(DataSignature(*items[i].stmt), std::vector<size_t>{});
      if (inserted) order.push_back(&it->first);
      it->second.push_back(i);
    }
    for (const std::string* sig : order) {
      const std::vector<size_t>& members = groups[*sig];
      if (members.size() == 1) {
        run_solo(members[0]);
        continue;
      }
      std::vector<QueryRun> runs(members.size());
      for (size_t k = 0; k < members.size(); ++k) {
        const BatchItem& item = items[members[k]];
        BeginQuery(&runs[k], *item.stmt,
                   item.guard != nullptr ? item.guard : exec.guard, exec);
      }
      ExecuteGroup(&runs, mode == ExecMode::kSudafShare, &stats);
      for (size_t k = 0; k < members.size(); ++k) {
        results[members[k]] = FinishQuery(&runs[k]);
      }
      MaybeCompactCache();
    }
  }
  if (bstats != nullptr) *bstats = stats;
  return results;
}

std::vector<Result<QueryResult>> SudafSession::ExecuteBatch(
    const std::vector<std::string>& sqls, ExecMode mode,
    BatchExecStats* bstats) {
  std::vector<std::unique_ptr<SelectStatement>> owned(sqls.size());
  std::vector<Status> parse_status(sqls.size());
  std::vector<BatchItem> items(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    Result<std::unique_ptr<SelectStatement>> parsed = ParseSelect(sqls[i]);
    if (parsed.ok()) {
      owned[i] = std::move(*parsed);
      items[i].stmt = owned[i].get();
    } else {
      parse_status[i] = parsed.status();
    }
  }
  std::vector<Result<QueryResult>> results =
      ExecuteBatch(items, mode, exec_options(), bstats);
  for (size_t i = 0; i < sqls.size(); ++i) {
    if (!parse_status[i].ok()) results[i] = parse_status[i];
  }
  return results;
}

void SudafSession::ExecuteGroup(std::vector<QueryRun>* runs, bool share,
                                BatchExecStats* bstats) {
  std::vector<QueryRun>& ctx = *runs;
  const int group_size = static_cast<int>(ctx.size());
  const bool solo = group_size == 1;
  if (!solo) {
    bstats->groups_shared += 1;
    bstats->queries_coalesced += group_size;
  }
  for (QueryRun& m : ctx) {
    if (!solo) {
      m.qm.counter("sudaf.batch.size")->Add(group_size);
      m.root->Event("batch.group_size", group_size);
    }
    if (m.guard != nullptr) {
      Status g = m.guard->Check();
      if (!g.ok()) m.failed = g;
    }
  }

  // 1. Rewrite every member under its own span: expand UDAFs, factor out
  // states, build terminating plans.
  for (QueryRun& m : ctx) {
    if (!m.alive()) continue;
    TraceSpan rewrite_span(m.trace.get(), "rewrite", m.run.trace_span,
                           m.qm.dcounter("sudaf.phase.rewrite_ms"));
    Result<RewrittenQuery> rewritten = Rewrite(*m.stmt, &m.qm, &rewrite_span);
    if (!rewritten.ok()) {
      m.failed = rewritten.status();
      continue;
    }
    m.rewritten = std::move(*rewritten);
    m.qm.counter("sudaf.states.requested")
        ->Add(static_cast<int64_t>(m.rewritten.form().states.size()));
  }

  // The leader is the first alive member: the group's single cache probe,
  // input scan and fused pass are attributed to its registry and trace
  // (the other members genuinely did not do that work — their stats say
  // so, and states_from_batch says what they got instead).
  QueryRun* lead = nullptr;
  for (QueryRun& m : ctx) {
    if (m.alive()) {
      lead = &m;
      break;
    }
  }

  // 2. Fold every member's classified states (Theorem 4.1, precomputed
  // in its rewrite plan) into the union plan, then probe the cache once
  // per distinct representative. Per-member probe spans stay open across
  // the leader's probe so each member logs its own per-state hit/miss view
  // inside its own span.
  SharedStatePlan plan;
  std::vector<std::unique_ptr<TraceSpan>> probe_spans(ctx.size());
  for (size_t k = 0; k < ctx.size(); ++k) {
    QueryRun& m = ctx[k];
    if (!m.alive()) continue;
    probe_spans[k] = std::make_unique<TraceSpan>(
        m.trace.get(), "probe", m.run.trace_span,
        m.qm.dcounter("sudaf.phase.probe_ms"));
    m.slots = plan.AddQuery(m.rewritten.form().states,
                            m.rewritten.classified(share));
  }
  const std::vector<SharedStatePlan::Rep>& reps = plan.reps();
  if (!solo) {
    bstats->states_requested += plan.states_requested();
    bstats->states_deduped += plan.states_deduped();
  }

  // The combined catalog epochs of the statement's tables version every
  // probe and insert: a set cached under a different *rewrite* epoch is
  // discarded rather than served, while one lagging only in *append* epoch
  // is refreshed in place — a fused pass over just the appended segments
  // is folded onto the cached accumulators (docs/robustness.md;
  // docs/execution.md, "Incremental maintenance").
  Status group_status;  // a failure here is fatal to every alive member
  TableSnapshot snap;
  // The set the probe resolved: every hit is served from it, even if it is
  // evicted or replaced mid-query (the reference keeps it alive).
  StateCache::GroupSetPtr probed_set;
  // The representatives this group computes: every one the probe missed.
  std::vector<bool> missing(reps.size(), true);
  if (share && lead != nullptr) {
    const CacheOps lead_cops{&lead->qm, lead->trace.get()};
    snap = SnapshotTables(*catalog_, lead->stmt->tables);
    group_status = [&]() -> Status {
      SUDAF_FAILPOINT("cache:probe");
      return Status::OK();
    }();
    if (group_status.ok()) {
      StateCache::FindResult found =
          cache_.Find(lead->rewritten.data_signature, snap.epochs,
                      /*can_refresh=*/snap.rows >= 0, lead_cops);
      probed_set = found.set;
      if (found.refreshable != nullptr) {
        // One refresh for the whole group (attributed to the leader),
        // carrying forward every distinct representative it requests.
        probed_set = RefreshGroupSet(*lead->stmt, found.refreshable,
                                     snap.epochs, snap.segments, plan,
                                     lead->run);
        if (probed_set == nullptr) {
          // Refresh abandoned (or lost a race): a non-refreshing re-probe
          // invalidates the lagging set (or returns a concurrent winner)
          // and counts the resolution.
          probed_set = cache_.Find(lead->rewritten.data_signature,
                                   snap.epochs, false, lead_cops)
                           .set;
        }
      }
      if (probed_set != nullptr) {
        // The entry probe evicts poisoned entries internally (poison cannot
        // enter the cache through this session, but an entry may have been
        // poisoned by other means); kPoisoned is a miss here.
        for (size_t r = 0; r < reps.size(); ++r) {
          missing[r] =
              cache_.ProbeEntry(probed_set.get(), reps[r].key(), nullptr,
                                lead_cops) != StateCache::Probe::kHit;
        }
      }
    }
  }
  if (share && group_status.ok()) {
    for (size_t k = 0; k < ctx.size(); ++k) {
      QueryRun& m = ctx[k];
      if (!m.alive()) continue;
      for (const SharedStatePlan::Slot& slot : m.slots) {
        if (!missing[slot.rep]) {
          m.qm.counter("sudaf.cache.probe_hits")->Add();
          probe_spans[k]->Event("cache.hit");
        } else {
          m.qm.counter("sudaf.cache.probe_misses")->Add();
          probe_spans[k]->Event("cache.miss");
        }
      }
    }
  }
  probe_spans.clear();

  // 3. Obtain the grouped input — one scan for the whole group, and only
  // when some representative actually needs computing (the all-hit case
  // never touches the data).
  const bool any_missing =
      std::find(missing.begin(), missing.end(), true) != missing.end();
  const bool need_scan = any_missing || reps.empty() || probed_set == nullptr;

  PreparedInput input;
  const Table* group_keys = nullptr;
  int32_t num_groups = 0;
  // The set this group's computed states are inserted into.
  StateCache::GroupSetPtr insert_set;
  if (group_status.ok() && lead != nullptr) {
    if (need_scan) {
      TraceSpan input_span(lead->trace.get(), "input", lead->run.trace_span,
                           lead->qm.dcounter("sudaf.phase.input_ms"));
      // The executor's filter/gather/group spans nest under the input span.
      ExecOptions input_opts = lead->run;
      input_opts.trace_span = input_span.id();
      // A shared scan runs guard-free: a single member's guard must not be
      // able to veto the whole group's pass. Each member admits the shared
      // input under its own guard right below, and a tripped member drops
      // out while the group continues.
      if (!solo) input_opts.guard = nullptr;
      // Clamp a single-table share scan to the epoch snapshot so the cached
      // states match the epochs they are stamped with even if an append
      // lands mid-query.
      ScanSpec snap_scan;
      if (share && snap.rows >= 0) {
        snap_scan.end = snap.rows;
        snap_scan.segment_ends = snap.segments;
        input_opts.scan = &snap_scan;
      }
      Result<PreparedInput> prepared = executor_.Prepare(
          *lead->stmt, RequestColumns(BuildBatchRequests(plan, missing)),
          input_opts);
      if (!prepared.ok()) {
        group_status = prepared.status();
      } else {
        input = std::move(*prepared);
        lead->qm.counter("sudaf.input.scans")->Add();
        input_span.Event("rows", input.num_input_rows);
        group_keys = input.group_keys.get();
        num_groups = input.num_groups;
        if (!solo) {
          bstats->scan_passes += 1;
          bstats->scan_passes_saved += group_size - 1;
        }
        // A probed set whose group count differs from the scan's is stale —
        // the condition under which GetOrCreate discards it — so none of
        // its hits is served: the pass (which runs, since the scan did)
        // computes every representative.
        if (probed_set != nullptr && probed_set->num_groups != num_groups) {
          missing.assign(reps.size(), true);
        }
        bool any_alive = false;
        for (QueryRun& m : ctx) {
          if (m.alive() && m.guard != nullptr) {
            Status g = m.guard->ChargeMemory(input.ApproxBytes());
            if (g.ok()) g = m.guard->Check();
            if (!g.ok()) m.failed = g;
          }
          any_alive |= m.alive();
        }
        if (share && any_alive) {
          insert_set = cache_.GetOrCreate(
              lead->rewritten.data_signature, *input.group_keys, num_groups,
              snap.epochs, snap.rows, CacheOps{&lead->qm, lead->trace.get()});
        }
      }
    } else {
      group_keys = probed_set->group_keys.get();
      num_groups = probed_set->num_groups;
    }
  }

  // Representative ownership for stats attribution: the first alive member
  // that requested a rep "computes" it (solo parity for that member); every
  // other member consuming it counts states_from_batch instead.
  std::vector<QueryRun*> rep_owner(reps.size(), nullptr);
  for (QueryRun& m : ctx) {
    if (!m.alive()) continue;
    for (const SharedStatePlan::Slot& slot : m.slots) {
      if (rep_owner[slot.rep] == nullptr) rep_owner[slot.rep] = &m;
    }
  }

  // Entries computed by this group, shared across members: every member
  // serves what the group computed from here, so a concurrent eviction of
  // what the group just inserted cannot perturb any member's answer.
  std::map<std::string, StateCache::Entry> local_entries;

  // Computes the representatives with need[r] in one fused pass over the
  // group's input, under `m`'s states span, and commits them. Each is
  // counted against its owner (or `m`). A solo query's guard acts at
  // every morsel; a shared pass is guard-free, like the scan.
  auto compute = [&](const std::vector<bool>& need, QueryRun& m,
                     int states_span_id) -> Status {
    BatchRequestPlan rq = BuildBatchRequests(plan, need);
    ExecOptions pass_opts = m.run;
    pass_opts.trace_span = states_span_id;
    if (!solo) pass_opts.guard = nullptr;
    // Carry the input's segment layout into the pass: the accumulation
    // tree must be a pure function of the segment log so a later delta
    // refresh reproduces this cold result bit for bit.
    StateBatchIncremental cold_inc;
    cold_inc.segment_ends = input.segment_ends;
    SUDAF_ASSIGN_OR_RETURN(
        std::vector<std::vector<double>> channels,
        ComputeStateBatch(rq.requests, input.Binder(), input.group_ids,
                          num_groups, pass_opts, &cold_inc));
    std::vector<std::pair<size_t, StateCache::Entry>> built;
    for (size_t r = 0; r < reps.size(); ++r) {
      if (rq.main_idx[r] < 0) continue;
      StateCache::Entry e;
      e.main = std::move(channels[rq.main_idx[r]]);
      if (rq.sign_idx[r] >= 0) e.sign = std::move(channels[rq.sign_idx[r]]);
      built.emplace_back(r, std::move(e));
    }
    // Two-phase commit: all insert-side failure checks fire before the
    // first entry lands in the shared cache, so an injected fault can
    // never leave a partial insert behind.
    if (share) {
      for (size_t b = 0; b < built.size(); ++b) {
        SUDAF_FAILPOINT("cache:insert");
      }
    }
    for (auto& [r, entry] : built) {
      QueryRun* owner = rep_owner[r] != nullptr ? rep_owner[r] : &m;
      const CacheOps oc{&owner->qm, owner->trace.get()};
      if (EntryIsPoisoned(entry)) {
        // Served to this group (the arithmetic answer is honest) but never
        // cached.
        owner->qm.counter("sudaf.states.poisoned")->Add();
      } else if (insert_set != nullptr &&
                 !cache_.InsertEntry(insert_set.get(), reps[r].key(), entry,
                                     oc)) {
        // Declined under the byte budget: served group-local.
        owner->qm.counter("sudaf.cache.budget_rejects")->Add();
      }
      local_entries.emplace(reps[r].key(), std::move(entry));
      owner->qm.counter("sudaf.states.computed")->Add();
    }
    return Status::OK();
  };

  // Serves one member at its output rows, reading each representative it
  // uses once: a probe hit is copied out of the probed set, anything else
  // comes from the group's computed entry. A hit whose copy misses (the
  // entry vanished mid-query, e.g. quarantined by the scrubber) is
  // computed from the group's input. A copy holds only the output rows and
  // lives on this frame, so a concurrent eviction cannot invalidate what is
  // served.
  auto serve_member = [&](QueryRun& m, const OutputRows& rows,
                          int states_span_id,
                          std::vector<std::vector<double>>* out) -> Status {
    const std::vector<AggStateDef>& states = m.rewritten.form().states;
    const CacheOps mc{&m.qm, m.trace.get()};
    out->assign(states.size(), {});
    struct RepSource {
      const StateCache::Entry* entry = nullptr;
      StateCache::Entry copy;  // the output rows of a cache hit
      bool from_cache = false;
    };
    std::vector<RepSource> sources(reps.size());
    int64_t served = 0;
    for (size_t i = 0; i < states.size(); ++i) {
      const SharedStatePlan::Slot& slot = m.slots[i];
      const SharedStatePlan::Rep& rep = reps[slot.rep];
      RepSource& src = sources[slot.rep];
      if (src.entry == nullptr) {
        if (!missing[slot.rep] &&
            cache_.ProbeEntry(probed_set.get(), rep.key(), &src.copy, mc,
                              rows.subset()) == StateCache::Probe::kHit) {
          src.entry = &src.copy;
          src.from_cache = true;
        } else {
          auto it = local_entries.find(rep.key());
          if (it == local_entries.end()) {
            if (input.source == nullptr) {
              // Every rep probed as a hit, so no input was scanned — and
              // then this entry vanished. Too late to scan; fail
              // definitively rather than serve garbage.
              return Status::Internal("cached state vanished mid-query: " +
                                      rep.key());
            }
            std::vector<bool> need(reps.size(), false);
            need[slot.rep] = true;
            SUDAF_RETURN_IF_ERROR(compute(need, m, states_span_id));
            it = local_entries.find(rep.key());
          } else if (rep_owner[slot.rep] != &m) {
            // The rep's owner counted states.computed when the pass built
            // it; everyone else got it for free from the batch.
            m.qm.counter("sudaf.states.from_batch")->Add();
          }
          src.entry = &it->second;
        }
      }
      if (src.from_cache) m.qm.counter("sudaf.states.from_cache")->Add();
      served += ServeState(*src.entry, src.from_cache && rows.presorted, rows,
                           states[i], rep.direct ? nullptr : rep.cls,
                           rep.direct ? nullptr : &slot.share_fn, &(*out)[i]);
    }
    m.qm.counter("sudaf.serve.rows")->Add(served);
    return Status::OK();
  };

  // 4+5. Compute the representatives the probe missed (once, at the first
  // alive member's turn, under its states span), then serve and terminate
  // each member under its own spans. Output-first: each member decides its
  // returned groups on the keys, then serves (and terminates) only those.
  if (group_status.ok()) {
    bool pass_done = false;
    for (QueryRun& m : ctx) {
      if (!m.alive()) continue;
      // A shared group's members admit each phase under their own guard (a
      // solo query's guard acts inside the pass itself).
      if (!solo && m.guard != nullptr) {
        Status g = m.guard->Check();
        if (!g.ok()) {
          m.failed = g;
          continue;
        }
      }
      std::vector<std::vector<double>> state_values;
      OutputRows rows;
      {
        TraceSpan states_span(m.trace.get(), "states", m.run.trace_span,
                              m.qm.dcounter("sudaf.phase.states_ms"));
        if (!pass_done) {
          pass_done = true;
          if (any_missing) group_status = compute(missing, m, states_span.id());
          if (!group_status.ok()) break;
        }
        rows = PlanOutputRows(m.rewritten, *m.stmt, *group_keys, num_groups);
        Status served = serve_member(m, rows, states_span.id(), &state_values);
        if (!served.ok()) {
          m.failed = served;
          continue;
        }
      }
      TraceSpan terminate_span(m.trace.get(), "terminate", m.run.trace_span,
                               m.qm.dcounter("sudaf.phase.terminate_ms"));
      Result<std::unique_ptr<Table>> assembled = AssembleRewrittenResult(
          m.rewritten, *m.stmt, *group_keys, rows, state_values, &m.qm);
      const SlotProgram& program = m.rewritten.plan->terminate;
      terminate_span.Event("slots", program.num_evaluated_slots());
      terminate_span.Event("shared_slots", program.num_shared_slots());
      if (!assembled.ok()) {
        m.failed = assembled.status();
      } else {
        m.table = std::move(*assembled);
      }
    }
  }

  // A group-fatal error (probe/scan/pass) fails every member still alive;
  // the service layer retries them solo.
  if (!group_status.ok()) {
    for (QueryRun& m : ctx) {
      if (m.alive()) m.failed = group_status;
    }
  }
}

}  // namespace sudaf
