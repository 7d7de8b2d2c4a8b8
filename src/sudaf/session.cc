#include "sudaf/session.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "agg/builtin_kernels.h"
#include "agg/interpreted_udaf.h"
#include "common/failpoint.h"
#include "common/query_guard.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "engine/state_batch.h"
#include "expr/evaluator.h"
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
  out += ", \"threads_used\": " + std::to_string(stats.fused_threads);
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
    out += "  rewrite   " + FmtMs(stats.rewrite_ms) + " ms\n";
    out += "  probe     " + FmtMs(stats.probe_ms) + " ms\n";
    out += "  input     " + FmtMs(stats.input_ms) + " ms\n";
    out += "  states    " + FmtMs(stats.states_ms) + " ms\n";
    out += "  terminate " + FmtMs(stats.terminate_ms) + " ms\n";
  }
  return out;
}

SudafSession::SudafSession(const Catalog* catalog, SessionOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      library_(UdafLibrary::Standard()),
      executor_(catalog, &hardcoded_) {
  // The engine-native baseline runs non-built-in aggregates the way real
  // engines do: through interpreted, boxed, row-at-a-time UDAFs (PL/pgSQL /
  // Scala-UDAF shape). Compiled IUME versions live in hardcoded_udafs.cc
  // for the ablation benchmarks.
  RegisterInterpretedUdafs(&hardcoded_);
  cache_.set_policy(options_.cache_policy);
}

SudafSession::SudafSession(const Catalog* catalog, ExecOptions exec)
    : SudafSession(catalog, SessionOptions{}.set_exec(exec)) {}

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
    SUDAF_ASSIGN_OR_RETURN(RewrittenQuery rewritten,
                           RewriteQuery(*parsed.select, library_));
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

Result<QueryResult> SudafSession::ExecuteStatement(const SelectStatement& stmt,
                                                   ExecMode mode,
                                                   const ExecOptions& exec) {
  std::shared_ptr<QueryTrace> trace;
  {
    std::lock_guard<std::mutex> lock(options_mu_);
    if (options_.collect_traces) {
      trace = std::make_shared<QueryTrace>(options_.trace_capacity);
    }
  }

  // Every metric this query produces goes to a registry private to it —
  // that is what makes concurrent queries' stats independent (no delta
  // arithmetic against a shared registry, no cross-query attribution). The
  // final snapshot becomes ExecStats and is then folded into the
  // session-lifetime registry.
  MetricsRegistry qmetrics;

  // Per-query run options: caller knobs plus this query's observability
  // sinks. Engine layers only ever see these borrowed pointers.
  ExecOptions run = exec;
  run.metrics = &qmetrics;
  run.trace = trace.get();

  // The pool and guard keep their own cumulative counters; mirror the
  // per-query movement into the registry so it shows up in snapshots.
  // (The pool mirror over-attributes under concurrency — other queries'
  // tasks land in the window — but stays exact for serial callers.)
  const ThreadPool::Counters pool_before = ThreadPool::Global().counters();
  const int64_t guard_checks_before =
      run.guard != nullptr ? run.guard->checks() : 0;
  const int64_t guard_trips_before =
      run.guard != nullptr ? run.guard->trips() : 0;

  qmetrics.counter("sudaf.query.count")->Add();

  Result<std::unique_ptr<Table>> table = std::unique_ptr<Table>();
  {
    // Root span; its accumulator IS the total_ms metric, so the trace tree
    // and the derived stats agree by construction.
    TraceSpan root(trace.get(), "execute", -1,
                   qmetrics.dcounter("sudaf.query.total_ms"));
    run.trace_span = root.id();
    table = mode == ExecMode::kEngine
                ? executor_.Execute(stmt, run)
                : ExecuteSudaf(stmt, mode == ExecMode::kSudafShare, run);
  }

  const ThreadPool::Counters pool_after = ThreadPool::Global().counters();
  qmetrics.counter("sudaf.pool.jobs")->Add(pool_after.jobs - pool_before.jobs);
  qmetrics.counter("sudaf.pool.tasks")
      ->Add(pool_after.tasks - pool_before.tasks);
  if (run.guard != nullptr) {
    qmetrics.counter("sudaf.guard.checks")
        ->Add(run.guard->checks() - guard_checks_before);
    qmetrics.counter("sudaf.guard.trips")
        ->Add(run.guard->trips() - guard_trips_before);
  }
  if (!table.ok()) qmetrics.counter("sudaf.query.errors")->Add();

  // Derive the stats struct straight from the per-query registry — it
  // started empty, so the snapshot IS the delta. This also attributes work
  // that happened on error paths (invalidations, guard trips) before the
  // error surfaces. Then fold the query's metrics into the cumulative
  // session registry.
  ExecStats stats = DeriveExecStats(qmetrics.Snapshot());
  metrics_.Merge(qmetrics.Snapshot());

  // Run any WAL compaction this query's cache traffic deferred, now that
  // no cache locks are held.
  MaybeCompactCache();

  SUDAF_RETURN_IF_ERROR(table.status());

  QueryResult result;
  result.table = std::move(*table);
  result.stats = stats;
  result.trace = std::move(trace);
  return result;
}

Result<std::string> SudafSession::ExplainRewrite(
    const std::string& sql) const {
  SUDAF_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> stmt,
                         ParseSelect(sql));
  SUDAF_ASSIGN_OR_RETURN(RewrittenQuery rewritten,
                         RewriteQuery(*stmt, library_));
  return rewritten.Explain(*stmt);
}

Status SudafSession::Prefetch(const std::string& sql) {
  SUDAF_ASSIGN_OR_RETURN(QueryResult ignored,
                         Execute(sql, ExecMode::kSudafShare));
  (void)ignored;
  return Status::OK();
}

namespace {

// Per-state execution descriptor.
struct StateExec {
  StateClass cls;
  SharedComputation share_fn;  // Share(state, cls.rep)
  bool from_cache = false;
};

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
    const std::vector<RefreshTarget>& targets, const ExecOptions& exec) {
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

  // Copy out every target entry still cached (channel sizes must match the
  // set's group count — a malformed set is not worth trusting). With
  // nothing to carry forward, a cold recompute is strictly better.
  struct Carried {
    const RefreshTarget* target = nullptr;
    StateCache::Entry old_entry;
  };
  std::vector<Carried> carried;
  std::set<std::string> seen;
  for (const RefreshTarget& t : targets) {
    if (t.cls == nullptr || !seen.insert(t.key).second) continue;
    StateCache::Entry copied;
    if (cache_.ProbeEntry(stale.get(), t.key, &copied, cops) !=
        StateCache::Probe::kHit) {
      continue;
    }
    if (static_cast<int32_t>(copied.main.size()) != stale->num_groups ||
        (!copied.sign.empty() &&
         static_cast<int32_t>(copied.sign.size()) != stale->num_groups)) {
      return nullptr;
    }
    carried.push_back({&t, std::move(copied)});
  }
  if (carried.empty()) return nullptr;

  TraceSpan refresh_span(trace, "refresh", exec.trace_span,
                         qm.dcounter("sudaf.phase.refresh_ms"));

  // Delta input: filter and group only the appended rows, read in place
  // under the snapshot's segment boundaries, so the fused pass's chunk
  // tree is exactly the suffix of the cold full pass's tree.
  ScanSpec scan;
  scan.begin = covered;
  scan.end = snap;
  scan.segment_ends = segments;
  ExecOptions dopts = exec;
  dopts.scan = &scan;
  dopts.trace_span = refresh_span.id();
  std::vector<std::string> extra_columns;
  for (const Carried& c : carried) {
    ExprPtr main = c.target->cls->MainInputExpr();
    if (main != nullptr) main->CollectColumns(&extra_columns);
    if (c.target->cls->log_domain) {
      c.target->cls->SignInputExpr()->CollectColumns(&extra_columns);
    }
  }
  Result<PreparedInput> delta_or =
      executor_.Prepare(stmt, extra_columns, dopts);
  if (!delta_or.ok()) return nullptr;
  PreparedInput delta = std::move(*delta_or);
  refresh_span.Event("delta_rows", delta.num_input_rows);

  // Map delta-local group ids onto the cached group order, extending with
  // groups first occurring in the delta. BuildGroups assigns global ids in
  // first-occurrence row order and the selection vector is ascending, so
  // cached groups keep their ids and new groups land after them in exactly
  // the order a cold full scan over [0, snap) would have assigned.
  const Table& old_keys = *stale->group_keys;
  int32_t new_n = stale->num_groups;
  std::vector<int32_t> remap(
      static_cast<size_t>(std::max<int32_t>(delta.num_groups, 0)), 0);
  std::vector<int64_t> appended_key_rows;
  if (stmt.group_by.empty()) {
    if (new_n < 1) new_n = 1;  // the single implicit group
  } else {
    if (delta.group_keys == nullptr || old_keys.num_rows() != new_n ||
        old_keys.num_columns() != delta.group_keys->num_columns()) {
      return nullptr;
    }
    for (int c = 0; c < old_keys.num_columns(); ++c) {
      if (old_keys.column(c).type() != delta.group_keys->column(c).type()) {
        return nullptr;
      }
    }
    remap = MatchGroupKeys(old_keys, *delta.group_keys, &appended_key_rows);
    new_n += static_cast<int32_t>(appended_key_rows.size());
  }
  auto ext_keys = std::make_unique<Table>(old_keys.schema());
  ext_keys->Reserve(old_keys.num_rows() +
                    static_cast<int64_t>(appended_key_rows.size()));
  ext_keys->AppendTable(old_keys);
  for (int c = 0; c < ext_keys->num_columns(); ++c) {
    ext_keys->column(c).AppendRows(
        delta.group_keys->column(c), appended_key_rows.data(),
        static_cast<int64_t>(appended_key_rows.size()));
  }
  ext_keys->FinishBulkAppend();

  std::vector<int32_t> group_ids(delta.group_ids.size());
  for (size_t i = 0; i < delta.group_ids.size(); ++i) {
    group_ids[i] = remap[delta.group_ids[i]];
  }

  // One fused pass over the delta, folding onto the cached accumulators.
  std::vector<ExprPtr> keepalive;
  std::vector<StateBatchRequest> requests;
  std::vector<std::vector<double>> inits;
  struct ChannelIdx {
    int main = -1;
    int sign = -1;
  };
  std::vector<ChannelIdx> idx(carried.size());
  for (size_t i = 0; i < carried.size(); ++i) {
    const StateClass& cls = *carried[i].target->cls;
    ExprPtr main = cls.MainInputExpr();
    const AggOp main_op = main == nullptr ? AggOp::kCount : cls.MainOp();
    idx[i].main = static_cast<int>(requests.size());
    if (main == nullptr) {
      requests.push_back({AggOp::kCount, nullptr});
    } else {
      requests.push_back({main_op, main.get()});
      keepalive.push_back(std::move(main));
    }
    inits.push_back(
        ExtendChannel(carried[i].old_entry.main, new_n, AggIdentity(main_op)));
    if (cls.log_domain) {
      ExprPtr sign = cls.SignInputExpr();
      idx[i].sign = static_cast<int>(requests.size());
      requests.push_back({AggOp::kProd, sign.get()});
      keepalive.push_back(std::move(sign));
      inits.push_back(ExtendChannel(carried[i].old_entry.sign, new_n,
                                    AggIdentity(AggOp::kProd)));
    }
  }
  StateBatchIncremental inc;
  inc.segment_ends = delta.segment_ends;
  inc.init.reserve(inits.size());
  for (const std::vector<double>& v : inits) inc.init.push_back(&v);

  ExecOptions bopts = exec;
  bopts.trace_span = refresh_span.id();
  StateBatchStats bstats;
  Result<std::vector<std::vector<double>>> channels_or = ComputeStateBatch(
      requests, delta.Binder(), group_ids, new_n, bopts, &bstats, &inc);
  if (!channels_or.ok()) return nullptr;
  std::vector<std::vector<double>>& channels = *channels_or;

  std::vector<std::pair<std::string, StateCache::Entry>> entries;
  entries.reserve(carried.size());
  for (size_t i = 0; i < carried.size(); ++i) {
    StateCache::Entry e;
    e.main = std::move(channels[idx[i].main]);
    if (idx[i].sign >= 0) e.sign = std::move(channels[idx[i].sign]);
    entries.emplace_back(carried[i].target->key, std::move(e));
  }

  // Commit: erase(old) → create(new) → inserts, journaled in WAL order;
  // counts the delta refresh and the delta rows scanned. Null on a lost
  // race — the caller falls back to the cold path.
  return cache_.CommitRefresh(stale, std::move(ext_keys), new_n, epochs,
                              snap, std::move(entries), snap - covered, cops);
}

Result<std::unique_ptr<Table>> SudafSession::ExecuteSudaf(
    const SelectStatement& stmt, bool share, const ExecOptions& exec) {
  if (exec.guard != nullptr) SUDAF_RETURN_IF_ERROR(exec.guard->Check());
  QueryTrace* trace = exec.trace;
  // The query-private registry (set up by ExecuteStatement) and the cache
  // observer handles carrying it into every cache call.
  MetricsRegistry& qm = *exec.metrics;
  const CacheOps cops{exec.metrics, trace};

  // 1. Rewrite: expand UDAFs, factor out states, build terminating plans.
  TraceSpan rewrite_span(trace, "rewrite", exec.trace_span,
                         qm.dcounter("sudaf.phase.rewrite_ms"));
  SUDAF_ASSIGN_OR_RETURN(RewrittenQuery rewritten,
                         RewriteQuery(stmt, library_));
  rewrite_span.Close();
  const std::vector<AggStateDef>& states = rewritten.form.states;
  qm.counter("sudaf.states.requested")
      ->Add(static_cast<int64_t>(states.size()));

  // 2. Classify states and probe the cache.
  TraceSpan probe_span(trace, "probe", exec.trace_span,
                       qm.dcounter("sudaf.phase.probe_ms"));
  std::vector<StateExec> execs(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    StateExec& ex = execs[i];
    ex.cls = ClassifyState(states[i]);
    std::optional<SharedComputation> fn = Share(states[i], ex.cls.rep);
    if (!fn.has_value()) {
      // The classification was coarser than the theorem allows for this
      // instance; fall back to a self-class (always shareable: identity).
      ex.cls.key = "self|" + states[i].Key();
      ex.cls.rep = states[i].Clone();
      ex.cls.log_domain = false;
      fn = SharedComputation{};
    }
    ex.share_fn = *fn;
  }

  // The combined catalog epochs of the query's tables version every probe
  // and insert: a set cached under a different *rewrite* epoch is discarded
  // rather than served, while one lagging only in *append* epoch is
  // refreshed in place — a fused pass over just the appended segments is
  // folded onto the cached accumulators (docs/robustness.md;
  // docs/execution.md, "Incremental maintenance").
  TableSnapshot snap;
  if (share) snap = SnapshotTables(*catalog_, stmt.tables);
  StateCache::GroupSetPtr group_set;
  if (share) {
    SUDAF_FAILPOINT("cache:probe");
    const bool can_refresh = exec.use_fused && snap.rows >= 0;
    StateCache::FindResult found =
        cache_.Find(rewritten.data_signature, snap.epochs, can_refresh, cops);
    group_set = found.set;
    if (found.refreshable != nullptr) {
      std::vector<RefreshTarget> targets;
      targets.reserve(execs.size());
      for (const StateExec& ex : execs) {
        targets.push_back(RefreshTarget{ex.cls.key, &ex.cls});
      }
      group_set = RefreshGroupSet(stmt, found.refreshable, snap.epochs,
                                  snap.segments, targets, exec);
      if (group_set == nullptr) {
        // Refresh abandoned (or lost a race): resolve the probe the hard
        // way — a non-refreshing re-probe invalidates the lagging set (or
        // returns a concurrent winner) and counts the resolution.
        group_set =
            cache_.Find(rewritten.data_signature, snap.epochs, false, cops)
                .set;
      }
    }
  }
  bool any_miss = false;
  for (size_t i = 0; i < states.size(); ++i) {
    if (share && group_set != nullptr) {
      // ProbeEntry evicts poisoned entries internally (defense in depth:
      // poison can't enter the cache through this session, but an entry
      // may have been poisoned by other means) and counts the eviction;
      // kPoisoned is a miss from this query's point of view.
      StateCache::Probe probe =
          cache_.ProbeEntry(group_set.get(), execs[i].cls.key, nullptr, cops);
      if (probe == StateCache::Probe::kHit) {
        execs[i].from_cache = true;
        qm.counter("sudaf.cache.probe_hits")->Add();
        probe_span.Event("cache.hit");
        continue;
      }
    }
    if (share) {
      qm.counter("sudaf.cache.probe_misses")->Add();
      probe_span.Event("cache.miss");
    }
    any_miss = true;
  }
  probe_span.Close();

  // 3. Obtain the grouped input (scanning base data only when some state
  //    actually needs computing — the all-hit case never touches the data).
  PreparedInput input;
  const Table* group_keys = nullptr;
  int32_t num_groups = 0;

  if (any_miss || states.empty()) {
    TraceSpan input_span(trace, "input", exec.trace_span,
                         qm.dcounter("sudaf.phase.input_ms"));
    std::vector<std::string> extra_columns;
    for (size_t i = 0; i < states.size(); ++i) {
      if (execs[i].from_cache) continue;
      ExprPtr main = execs[i].cls.MainInputExpr();
      if (main != nullptr) main->CollectColumns(&extra_columns);
      if (execs[i].cls.log_domain) {
        execs[i].cls.SignInputExpr()->CollectColumns(&extra_columns);
      }
      if (!share && states[i].input != nullptr) {
        states[i].input->CollectColumns(&extra_columns);
      }
    }
    // Nest the executor's filter/gather/group spans under the input span
    // and hand the pipeline stages the parallelism knobs. Single-table
    // share scans are clamped to the epoch snapshot's boundary so the
    // states this query caches match the epochs they are stamped with even
    // when an append lands mid-query.
    ExecOptions input_opts = exec;
    input_opts.trace_span = input_span.id();
    ScanSpec snap_scan;
    if (share && snap.rows >= 0) {
      snap_scan.end = snap.rows;
      snap_scan.segment_ends = snap.segments;
      input_opts.scan = &snap_scan;
    }
    SUDAF_ASSIGN_OR_RETURN(input,
                           executor_.Prepare(stmt, extra_columns, input_opts));
    // The legacy per-state loops evaluate over a gathered frame; the fused
    // pass reads the input in place.
    if (!exec.use_fused) {
      SUDAF_RETURN_IF_ERROR(MaterializeFrame(&input, input_opts));
    }
    qm.counter("sudaf.input.scans")->Add();
    input_span.Event("rows", input.num_input_rows);
    group_keys = input.group_keys.get();
    num_groups = input.num_groups;
    if (exec.guard != nullptr) {
      SUDAF_RETURN_IF_ERROR(exec.guard->ChargeMemory(input.ApproxBytes()));
      SUDAF_RETURN_IF_ERROR(exec.guard->Check());
    }

    if (share) {
      group_set = cache_.GetOrCreate(rewritten.data_signature,
                                     *input.group_keys, num_groups,
                                     snap.epochs, snap.rows, cops);
      // A recreated (stale) set lost its entries; demote affected states.
      for (StateExec& ex : execs) {
        if (ex.from_cache &&
            cache_.ProbeEntry(group_set.get(), ex.cls.key, nullptr, cops) !=
                StateCache::Probe::kHit) {
          ex.from_cache = false;
        }
      }
    }
  } else {
    group_keys = group_set->group_keys.get();
    num_groups = group_set->num_groups;
  }

  // 4. Compute missing states.
  TraceSpan states_span(trace, "states", exec.trace_span,
                        qm.dcounter("sudaf.phase.states_ms"));
  // Legacy per-state evaluation reads the gathered frame.
  ColumnResolver resolver = [&input](const std::string& name)
      -> Result<const Column*> {
    if (input.frame == nullptr) {
      return Status::Internal("no input frame materialized");
    }
    return input.frame->GetColumn(name);
  };

  std::vector<std::vector<double>> state_values(states.size());
  // Computed class entries local to this query (used in no-share mode and
  // as a per-query dedup in share mode).
  std::map<std::string, StateCache::Entry> local_entries;

  if (exec.use_fused && any_miss) {
    // Fused path: gather every missing channel — one (op, input) request per
    // class main state plus an optional sign channel — and compute them all
    // in a single morsel-driven pass over the input. The distribution loop
    // below then finds every entry pre-populated; its per-state compute
    // branches only run on the legacy (use_fused == false) path.
    std::vector<ExprPtr> keepalive;  // owns cloned inputs referenced below
    std::vector<StateBatchRequest> requests;
    struct PendingEntry {
      std::string key;
      int main_idx = -1;
      int sign_idx = -1;
      bool shared = false;  // destination: group_set (share) vs local_entries
    };
    std::vector<PendingEntry> pending;
    std::set<std::string> scheduled;

    for (size_t i = 0; i < states.size(); ++i) {
      StateExec& ex = execs[i];
      PendingEntry pe;
      if (share) {
        if (ex.from_cache ||
            cache_.ProbeEntry(group_set.get(), ex.cls.key, nullptr, cops) ==
                StateCache::Probe::kHit ||
            !scheduled.insert(ex.cls.key).second) {
          continue;
        }
        pe.key = ex.cls.key;
        pe.shared = true;
        ExprPtr main_expr = ex.cls.MainInputExpr();
        pe.main_idx = static_cast<int>(requests.size());
        if (main_expr == nullptr) {
          requests.push_back({AggOp::kCount, nullptr});
        } else {
          requests.push_back({ex.cls.MainOp(), main_expr.get()});
          keepalive.push_back(std::move(main_expr));
        }
        if (ex.cls.log_domain) {
          ExprPtr sign_expr = ex.cls.SignInputExpr();
          pe.sign_idx = static_cast<int>(requests.size());
          requests.push_back({AggOp::kProd, sign_expr.get()});
          keepalive.push_back(std::move(sign_expr));
        }
      } else {
        std::string direct_key = "direct|" + states[i].Key();
        if (!scheduled.insert(direct_key).second) continue;
        pe.key = std::move(direct_key);
        pe.main_idx = static_cast<int>(requests.size());
        if (states[i].op == AggOp::kCount) {
          requests.push_back({AggOp::kCount, nullptr});
        } else {
          requests.push_back({states[i].op, states[i].input.get()});
        }
      }
      pending.push_back(std::move(pe));
    }

    if (!requests.empty()) {
      // Parent the fused pass under the states phase, not the query root.
      ExecOptions batch_opts = exec;
      batch_opts.trace_span = states_span.id();
      StateBatchStats bstats;
      // Carry the input's segment layout into the pass: the accumulation
      // tree must be a pure function of the segment log so a later delta
      // refresh reproduces this cold result bit for bit.
      StateBatchIncremental cold_inc;
      cold_inc.segment_ends = input.segment_ends;
      SUDAF_ASSIGN_OR_RETURN(
          std::vector<std::vector<double>> batch,
          ComputeStateBatch(requests, input.Binder(), input.group_ids,
                            num_groups, batch_opts, &bstats, &cold_inc));
      std::vector<StateCache::Entry> built(pending.size());
      for (size_t p = 0; p < pending.size(); ++p) {
        built[p].main = std::move(batch[pending[p].main_idx]);
        if (pending[p].sign_idx >= 0) {
          built[p].sign = std::move(batch[pending[p].sign_idx]);
        }
      }
      // Two-phase commit: all insert-side failure checks fire before the
      // first entry lands in the shared cache, so an injected fault can
      // never leave a partial insert behind.
      for (const PendingEntry& pe : pending) {
        if (pe.shared) SUDAF_FAILPOINT("cache:insert");
      }
      for (size_t p = 0; p < pending.size(); ++p) {
        PendingEntry& pe = pending[p];
        bool poisoned = EntryIsPoisoned(built[p]);
        if (poisoned) qm.counter("sudaf.states.poisoned")->Add();
        if (pe.shared && !poisoned) {
          // Budget-aware insert: the cache evicts colder group sets first
          // and declines (false) when the entry cannot fit at all.
          if (!cache_.InsertEntry(group_set.get(), pe.key, built[p], cops)) {
            qm.counter("sudaf.cache.budget_rejects")->Add();
          }
        }
        // Every computed entry is also kept query-local: the distribution
        // loop serves from this map, so this query's answers cannot be
        // perturbed by a concurrent eviction of what it just inserted.
        local_entries.emplace(pe.key, std::move(built[p]));
        qm.counter("sudaf.states.computed")->Add();
      }
    }
  }

  auto compute_class_entry =
      [&](const StateClass& cls) -> Result<StateCache::Entry> {
    SUDAF_RETURN_IF_ERROR(MaterializeFrame(&input, exec));
    StateCache::Entry entry;
    ExprPtr main_expr = cls.MainInputExpr();
    if (main_expr == nullptr) {
      entry.main = ComputeGroupedState(AggOp::kCount, {}, input.group_ids,
                                       num_groups, exec);
    } else {
      SUDAF_ASSIGN_OR_RETURN(
          std::vector<double> in,
          EvalNumericVector(*main_expr, resolver, input.num_input_rows));
      entry.main = ComputeGroupedState(cls.MainOp(), in, input.group_ids,
                                       num_groups, exec);
    }
    if (cls.log_domain) {
      SUDAF_ASSIGN_OR_RETURN(
          std::vector<double> sgn,
          EvalNumericVector(*cls.SignInputExpr(), resolver,
                            input.num_input_rows));
      entry.sign = ComputeGroupedState(AggOp::kProd, sgn, input.group_ids,
                                       num_groups, exec);
    }
    return entry;
  };

  // Output-first: decide the returned groups on the keys, then serve (and
  // later terminate) only those.
  const OutputRows rows =
      PlanOutputRows(rewritten, stmt, *group_keys, num_groups);
  int64_t served = 0;
  for (size_t i = 0; i < states.size(); ++i) {
    const AggStateDef& state = states[i];
    StateExec& ex = execs[i];

    if (share) {
      // Serving order: cache copy-out for probe hits, then this query's
      // local entries, then a late cache re-probe, then compute. The copy
      // (of the output rows only) lives on this frame's stack, so a
      // concurrent eviction of the set cannot invalidate what we serve from.
      const StateCache::Entry* entry = nullptr;
      bool compact = false;
      StateCache::Entry copied;
      if (ex.from_cache &&
          cache_.ProbeEntry(group_set.get(), ex.cls.key, &copied, cops,
                            rows.subset()) == StateCache::Probe::kHit) {
        entry = &copied;
        compact = rows.presorted;
        qm.counter("sudaf.states.from_cache")->Add();
      }
      if (entry == nullptr) {
        auto local_it = local_entries.find(ex.cls.key);
        if (local_it != local_entries.end()) {
          // Computed by this query (fused pass, or poisoned/budget-rejected
          // earlier) — served locally.
          entry = &local_it->second;
        }
      }
      if (entry == nullptr &&
          cache_.ProbeEntry(group_set.get(), ex.cls.key, &copied, cops,
                            rows.subset()) == StateCache::Probe::kHit) {
        // Present in the cache without a probe hit: inserted by a
        // concurrent query after our probe.
        entry = &copied;
        compact = rows.presorted;
      }
      if (entry == nullptr) {
        if (input.source == nullptr) {
          // All states probed as hits, so no input was materialized — and
          // then this entry vanished (poisoned externally mid-query). Too
          // late to scan; fail definitively rather than serve garbage.
          return Status::Internal("cached state vanished mid-query: " +
                                  ex.cls.key);
        }
        SUDAF_ASSIGN_OR_RETURN(StateCache::Entry computed,
                               compute_class_entry(ex.cls));
        SUDAF_FAILPOINT("cache:insert");
        qm.counter("sudaf.states.computed")->Add();
        if (EntryIsPoisoned(computed)) {
          qm.counter("sudaf.states.poisoned")->Add();
        } else if (!cache_.InsertEntry(group_set.get(), ex.cls.key, computed,
                                       cops)) {
          // Declined under the byte budget: serve it query-local.
          qm.counter("sudaf.cache.budget_rejects")->Add();
        }
        entry = &local_entries.emplace(ex.cls.key, std::move(computed))
                     .first->second;
      }
      served += ServeState(*entry, compact, rows, state, &ex.cls,
                           &ex.share_fn, &state_values[i]);
      continue;
    }

    // No-share mode: compute each requested state directly.
    std::string direct_key = "direct|" + state.Key();
    auto it = local_entries.find(direct_key);
    if (it == local_entries.end()) {
      StateCache::Entry entry;
      if (state.op == AggOp::kCount) {
        entry.main = ComputeGroupedState(AggOp::kCount, {}, input.group_ids,
                                         num_groups, exec);
      } else {
        SUDAF_ASSIGN_OR_RETURN(
            std::vector<double> in,
            EvalNumericVector(*state.input, resolver, input.num_input_rows));
        entry.main = ComputeGroupedState(state.op, in, input.group_ids,
                                         num_groups, exec);
      }
      if (EntryIsPoisoned(entry)) {
        qm.counter("sudaf.states.poisoned")->Add();
      }
      it = local_entries.emplace(direct_key, std::move(entry)).first;
      qm.counter("sudaf.states.computed")->Add();
    }
    served += ServeState(it->second, /*compact=*/false, rows, state,
                         nullptr, nullptr, &state_values[i]);
  }
  qm.counter("sudaf.serve.rows")->Add(served);
  states_span.Close();

  // 5. Terminating functions over the output rows, output assembly.
  TraceSpan terminate_span(trace, "terminate", exec.trace_span,
                           qm.dcounter("sudaf.phase.terminate_ms"));
  return AssembleRewrittenResult(rewritten, stmt, *group_keys, rows,
                                 state_values);
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
      } else {
        ExecuteSharedGroup(members, items, mode == ExecMode::kSudafShare, exec,
                           &stats, &results);
      }
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

namespace {

// Per-member context of one shared-scan group: the same observability
// plumbing ExecuteStatement sets up for a solo query (private registry,
// trace, "execute" root span), plus the member's rewritten form and its
// slots into the group's union state plan.
struct GroupMember {
  size_t item = 0;
  const SelectStatement* stmt = nullptr;
  const QueryGuard* guard = nullptr;
  std::shared_ptr<QueryTrace> trace;
  std::unique_ptr<MetricsRegistry> qm;
  ExecOptions run;
  std::unique_ptr<TraceSpan> root;  // "execute"; closing stamps total_ms
  int64_t guard_checks0 = 0;
  int64_t guard_trips0 = 0;
  RewrittenQuery rewritten;
  std::vector<SharedStatePlan::Slot> slots;
  Status failed;  // first definite per-member failure
  std::unique_ptr<Table> table;

  bool alive() const { return failed.ok(); }
};

}  // namespace

void SudafSession::ExecuteSharedGroup(
    const std::vector<size_t>& members, const std::vector<BatchItem>& items,
    bool share, const ExecOptions& exec, BatchExecStats* bstats,
    std::vector<Result<QueryResult>>* results) {
  const int group_size = static_cast<int>(members.size());
  bstats->groups_shared += 1;
  bstats->queries_coalesced += group_size;

  bool collect_traces;
  int trace_capacity;
  {
    std::lock_guard<std::mutex> lock(options_mu_);
    collect_traces = options_.collect_traces;
    trace_capacity = options_.trace_capacity;
  }

  std::vector<GroupMember> ctx(members.size());
  for (size_t k = 0; k < members.size(); ++k) {
    GroupMember& m = ctx[k];
    m.item = members[k];
    m.stmt = items[m.item].stmt;
    m.guard = items[m.item].guard != nullptr ? items[m.item].guard
                                             : exec.guard;
    if (collect_traces) m.trace = std::make_shared<QueryTrace>(trace_capacity);
    m.qm = std::make_unique<MetricsRegistry>();
    m.run = exec;
    m.run.metrics = m.qm.get();
    m.run.trace = m.trace.get();
    m.run.guard = m.guard;
    m.guard_checks0 = m.guard != nullptr ? m.guard->checks() : 0;
    m.guard_trips0 = m.guard != nullptr ? m.guard->trips() : 0;
    m.qm->counter("sudaf.query.count")->Add();
    m.qm->counter("sudaf.batch.size")->Add(group_size);
    m.root = std::make_unique<TraceSpan>(
        m.trace.get(), "execute", -1,
        m.qm->dcounter("sudaf.query.total_ms"));
    m.run.trace_span = m.root->id();
    m.root->Event("batch.group_size", group_size);
    if (m.guard != nullptr) {
      Status g = m.guard->Check();
      if (!g.ok()) m.failed = g;
    }
  }

  // 1. Rewrite every member under its own span.
  for (GroupMember& m : ctx) {
    if (!m.alive()) continue;
    TraceSpan rewrite_span(m.trace.get(), "rewrite", m.run.trace_span,
                           m.qm->dcounter("sudaf.phase.rewrite_ms"));
    Result<RewrittenQuery> rewritten = RewriteQuery(*m.stmt, library_);
    if (!rewritten.ok()) {
      m.failed = rewritten.status();
      continue;
    }
    m.rewritten = std::move(*rewritten);
    m.qm->counter("sudaf.states.requested")
        ->Add(static_cast<int64_t>(m.rewritten.form.states.size()));
  }

  // The leader is the first alive member: the group's single cache probe,
  // input scan and fused pass are attributed to its registry and trace
  // (the other members genuinely did not do that work — their stats say
  // so, and states_from_batch says what they got instead).
  GroupMember* lead = nullptr;
  for (GroupMember& m : ctx) {
    if (m.alive()) {
      lead = &m;
      break;
    }
  }

  // 2. Classify every member's states into the union plan, then probe the
  // cache once per distinct representative. Per-member probe spans stay
  // open across the leader's probe so each member logs its own per-state
  // hit/miss view inside its own span, exactly like a solo run.
  SharedStatePlan plan;
  std::vector<std::unique_ptr<TraceSpan>> probe_spans(ctx.size());
  for (size_t k = 0; k < ctx.size(); ++k) {
    GroupMember& m = ctx[k];
    if (!m.alive()) continue;
    probe_spans[k] = std::make_unique<TraceSpan>(
        m.trace.get(), "probe", m.run.trace_span,
        m.qm->dcounter("sudaf.phase.probe_ms"));
    m.slots = plan.AddQuery(m.rewritten.form.states, share);
  }
  const std::vector<SharedStatePlan::Rep>& reps = plan.reps();
  bstats->states_requested += plan.states_requested();
  bstats->states_deduped += plan.states_deduped();

  Status group_status;  // a failure here is fatal to every alive member
  TableSnapshot snap;
  StateCache::GroupSetPtr group_set;
  std::vector<bool> rep_from_cache(reps.size(), false);
  if (share && lead != nullptr) {
    const CacheOps lead_cops{lead->qm.get(), lead->trace.get()};
    snap = SnapshotTables(*catalog_, lead->stmt->tables);
    group_status = [&]() -> Status {
      SUDAF_FAILPOINT("cache:probe");
      return Status::OK();
    }();
    if (group_status.ok()) {
      const bool can_refresh = exec.use_fused && snap.rows >= 0;
      StateCache::FindResult found =
          cache_.Find(lead->rewritten.data_signature, snap.epochs,
                      can_refresh, lead_cops);
      group_set = found.set;
      if (found.refreshable != nullptr) {
        // One refresh for the whole group (attributed to the leader),
        // carrying forward every distinct representative it requests.
        std::vector<RefreshTarget> targets;
        targets.reserve(reps.size());
        for (const SharedStatePlan::Rep& rep : reps) {
          if (!rep.direct) {
            targets.push_back(RefreshTarget{rep.key, &rep.cls});
          }
        }
        group_set = RefreshGroupSet(*lead->stmt, found.refreshable,
                                    snap.epochs, snap.segments, targets,
                                    lead->run);
        if (group_set == nullptr) {
          group_set = cache_.Find(lead->rewritten.data_signature, snap.epochs,
                                  false, lead_cops)
                          .set;
        }
      }
      if (group_set != nullptr) {
        for (size_t r = 0; r < reps.size(); ++r) {
          rep_from_cache[r] =
              cache_.ProbeEntry(group_set.get(), reps[r].key, nullptr,
                                lead_cops) == StateCache::Probe::kHit;
        }
      }
    }
  }
  if (share && group_status.ok()) {
    for (size_t k = 0; k < ctx.size(); ++k) {
      GroupMember& m = ctx[k];
      if (!m.alive()) continue;
      for (const SharedStatePlan::Slot& slot : m.slots) {
        if (rep_from_cache[slot.rep]) {
          m.qm->counter("sudaf.cache.probe_hits")->Add();
          probe_spans[k]->Event("cache.hit");
        } else {
          m.qm->counter("sudaf.cache.probe_misses")->Add();
          probe_spans[k]->Event("cache.miss");
        }
      }
    }
  }
  probe_spans.clear();

  // 3. Obtain the grouped input — one scan for the whole group, and only
  // when some representative actually needs computing.
  bool any_missing = false;
  for (size_t r = 0; r < reps.size(); ++r) {
    if (!rep_from_cache[r]) any_missing = true;
  }
  const bool need_scan = any_missing || group_set == nullptr;

  PreparedInput input;
  const Table* group_keys = nullptr;
  int32_t num_groups = 0;
  if (group_status.ok() && lead != nullptr) {
    if (need_scan) {
      TraceSpan input_span(lead->trace.get(), "input", lead->run.trace_span,
                           lead->qm->dcounter("sudaf.phase.input_ms"));
      std::vector<std::string> extra_columns;
      for (size_t r = 0; r < reps.size(); ++r) {
        if (rep_from_cache[r]) continue;
        const SharedStatePlan::Rep& rep = reps[r];
        if (rep.direct) {
          if (rep.cls.rep.input != nullptr) {
            rep.cls.rep.input->CollectColumns(&extra_columns);
          }
          continue;
        }
        ExprPtr main = rep.cls.MainInputExpr();
        if (main != nullptr) main->CollectColumns(&extra_columns);
        if (rep.cls.log_domain) {
          rep.cls.SignInputExpr()->CollectColumns(&extra_columns);
        }
      }
      ExecOptions input_opts = lead->run;
      input_opts.trace_span = input_span.id();
      // The scan runs guard-free: a single member's guard must not be able
      // to veto the whole group's pass. Each member admits the shared
      // input under its own guard right below, and a tripped member drops
      // out while the group continues.
      input_opts.guard = nullptr;
      // Clamp the group's shared scan to the epoch snapshot so the cached
      // states match the epochs they are stamped with even if an append
      // lands mid-query.
      ScanSpec snap_scan;
      if (share && snap.rows >= 0) {
        snap_scan.end = snap.rows;
        snap_scan.segment_ends = snap.segments;
        input_opts.scan = &snap_scan;
      }
      group_status = [&]() -> Status {
        SUDAF_ASSIGN_OR_RETURN(
            input, executor_.Prepare(*lead->stmt, extra_columns, input_opts));
        // The legacy per-channel sweeps evaluate over a gathered frame.
        if (!exec.use_fused) {
          SUDAF_RETURN_IF_ERROR(MaterializeFrame(&input, input_opts));
        }
        return Status::OK();
      }();
      if (group_status.ok()) {
        lead->qm->counter("sudaf.input.scans")->Add();
        input_span.Event("rows", input.num_input_rows);
        group_keys = input.group_keys.get();
        num_groups = input.num_groups;
        bstats->scan_passes += 1;
        bstats->scan_passes_saved += group_size - 1;
        for (GroupMember& m : ctx) {
          if (!m.alive() || m.guard == nullptr) continue;
          Status g = m.guard->ChargeMemory(input.ApproxBytes());
          if (g.ok()) g = m.guard->Check();
          if (!g.ok()) m.failed = g;
        }
        if (share) {
          const CacheOps lead_cops{lead->qm.get(), lead->trace.get()};
          group_set = cache_.GetOrCreate(lead->rewritten.data_signature,
                                         *input.group_keys, num_groups,
                                         snap.epochs, snap.rows, lead_cops);
          // A recreated (stale) set lost its entries; demote affected reps.
          for (size_t r = 0; r < reps.size(); ++r) {
            if (rep_from_cache[r] &&
                cache_.ProbeEntry(group_set.get(), reps[r].key, nullptr,
                                  lead_cops) != StateCache::Probe::kHit) {
              rep_from_cache[r] = false;
            }
          }
        }
      }
    } else {
      group_keys = group_set->group_keys.get();
      num_groups = group_set->num_groups;
    }
  }

  // Representative ownership for stats attribution: the first alive member
  // that requested a rep "computes" it (solo parity for that member); every
  // other member consuming it counts states_from_batch instead.
  std::vector<GroupMember*> rep_owner(reps.size(), nullptr);
  for (GroupMember& m : ctx) {
    if (!m.alive()) continue;
    for (const SharedStatePlan::Slot& slot : m.slots) {
      if (rep_owner[slot.rep] == nullptr) rep_owner[slot.rep] = &m;
    }
  }

  // Legacy per-channel sweeps read the gathered frame.
  ColumnResolver resolver =
      [&input](const std::string& name) -> Result<const Column*> {
    if (input.frame == nullptr) {
      return Status::Internal("no input frame materialized");
    }
    return input.frame->GetColumn(name);
  };

  // Entries computed by this group, shared across members (the analogue of
  // the solo path's query-local map — a concurrent eviction of what the
  // group just inserted cannot perturb any member's answer).
  std::map<std::string, StateCache::Entry> local_entries;
  std::vector<bool> computed_rep(reps.size(), false);

  // One fused pass over the union DAG: every representative still missing,
  // all queries' channels in a single morsel sweep. Attributed to the pass
  // owner (the first member still alive when the pass starts).
  auto compute_missing = [&](GroupMember& m, int states_span_id) -> Status {
    const CacheOps mc{m.qm.get(), m.trace.get()};
    std::vector<bool> need(reps.size(), false);
    bool any_need = false;
    for (size_t r = 0; r < reps.size(); ++r) {
      if (share && rep_from_cache[r]) continue;
      if (share && group_set != nullptr &&
          cache_.ProbeEntry(group_set.get(), reps[r].key, nullptr, mc) ==
              StateCache::Probe::kHit) {
        continue;  // inserted by a concurrent query since our probe
      }
      need[r] = true;
      any_need = true;
    }
    if (!any_need) return Status::OK();

    BatchRequestPlan rq = BuildBatchRequests(plan, need);
    std::vector<std::vector<double>> channels;
    if (exec.use_fused) {
      ExecOptions batch_opts = m.run;
      batch_opts.trace_span = states_span_id;
      // Same rationale as the scan: per-member guards act at phase
      // boundaries, not inside the shared pass.
      batch_opts.guard = nullptr;
      StateBatchStats bs;
      // Segment-aware like the solo path: the group's cold pass must be
      // reproducible by a later per-segment delta refresh.
      StateBatchIncremental cold_inc;
      cold_inc.segment_ends = input.segment_ends;
      SUDAF_ASSIGN_OR_RETURN(
          channels,
          ComputeStateBatch(rq.requests, input.Binder(), input.group_ids,
                            num_groups, batch_opts, &bs, &cold_inc));
    } else {
      // Legacy path: one kernel sweep per channel — still one scan and one
      // evaluation per representative for the whole group.
      channels.resize(rq.requests.size());
      for (size_t i = 0; i < rq.requests.size(); ++i) {
        const StateBatchRequest& r = rq.requests[i];
        if (r.input == nullptr) {
          channels[i] = ComputeGroupedState(AggOp::kCount, {},
                                            input.group_ids, num_groups,
                                            m.run);
        } else {
          SUDAF_ASSIGN_OR_RETURN(
              std::vector<double> in,
              EvalNumericVector(*r.input, resolver, input.num_input_rows));
          channels[i] = ComputeGroupedState(r.op, in, input.group_ids,
                                            num_groups, m.run);
        }
      }
    }

    struct Built {
      size_t rep = 0;
      StateCache::Entry entry;
    };
    std::vector<Built> built;
    for (size_t r = 0; r < reps.size(); ++r) {
      if (rq.main_idx[r] < 0) continue;
      Built b;
      b.rep = r;
      b.entry.main = std::move(channels[rq.main_idx[r]]);
      if (rq.sign_idx[r] >= 0) {
        b.entry.sign = std::move(channels[rq.sign_idx[r]]);
      }
      built.push_back(std::move(b));
    }
    // Two-phase commit (solo parity): all insert-side failure checks fire
    // before the first entry lands in the shared cache.
    if (share) {
      for (size_t b = 0; b < built.size(); ++b) {
        SUDAF_FAILPOINT("cache:insert");
      }
    }
    for (Built& b : built) {
      GroupMember* owner = rep_owner[b.rep] != nullptr ? rep_owner[b.rep] : &m;
      const CacheOps oc{owner->qm.get(), owner->trace.get()};
      if (EntryIsPoisoned(b.entry)) {
        owner->qm->counter("sudaf.states.poisoned")->Add();
      } else if (share && group_set != nullptr &&
                 !cache_.InsertEntry(group_set.get(), reps[b.rep].key,
                                     b.entry, oc)) {
        owner->qm->counter("sudaf.cache.budget_rejects")->Add();
      }
      local_entries.emplace(reps[b.rep].key, std::move(b.entry));
      computed_rep[b.rep] = true;
      owner->qm->counter("sudaf.states.computed")->Add();
    }
    return Status::OK();
  };

  // Late fallback, mirroring solo: recompute one representative for one
  // member over the shared input (reached only if an entry vanished from
  // both the cache and the group's local map — i.e. never for entries the
  // pass just computed).
  auto compute_rep_entry = [&](const SharedStatePlan::Rep& rep,
                               GroupMember& m) -> Result<StateCache::Entry> {
    SUDAF_RETURN_IF_ERROR(MaterializeFrame(&input, m.run));
    StateCache::Entry entry;
    if (rep.direct) {
      if (rep.cls.rep.op == AggOp::kCount) {
        entry.main = ComputeGroupedState(AggOp::kCount, {}, input.group_ids,
                                         num_groups, m.run);
      } else {
        SUDAF_ASSIGN_OR_RETURN(
            std::vector<double> in,
            EvalNumericVector(*rep.cls.rep.input, resolver,
                              input.num_input_rows));
        entry.main = ComputeGroupedState(rep.cls.rep.op, in, input.group_ids,
                                         num_groups, m.run);
      }
      return entry;
    }
    ExprPtr main_expr = rep.cls.MainInputExpr();
    if (main_expr == nullptr) {
      entry.main = ComputeGroupedState(AggOp::kCount, {}, input.group_ids,
                                       num_groups, m.run);
    } else {
      SUDAF_ASSIGN_OR_RETURN(
          std::vector<double> in,
          EvalNumericVector(*main_expr, resolver, input.num_input_rows));
      entry.main = ComputeGroupedState(rep.cls.MainOp(), in, input.group_ids,
                                       num_groups, m.run);
    }
    if (rep.cls.log_domain) {
      SUDAF_ASSIGN_OR_RETURN(
          std::vector<double> sgn,
          EvalNumericVector(*rep.cls.SignInputExpr(), resolver,
                            input.num_input_rows));
      entry.sign = ComputeGroupedState(AggOp::kProd, sgn, input.group_ids,
                                       num_groups, m.run);
    }
    return entry;
  };

  // Serve one member at its output rows from the per-rep entries: cache
  // copy-out first, then the group's local entries, then a late cache
  // re-probe, then per-member compute fallback — the exact solo serving
  // order.
  auto serve_member = [&](GroupMember& m, const OutputRows& rows,
                          std::vector<std::vector<double>>* out) -> Status {
    const std::vector<AggStateDef>& states = m.rewritten.form.states;
    const CacheOps mc{m.qm.get(), m.trace.get()};
    out->assign(states.size(), {});
    int64_t served = 0;
    std::set<int> consumed_reps;
    for (size_t i = 0; i < states.size(); ++i) {
      const SharedStatePlan::Slot& slot = m.slots[i];
      const SharedStatePlan::Rep& rep = reps[slot.rep];
      const StateCache::Entry* entry = nullptr;
      bool compact = false;
      StateCache::Entry copied;
      if (share && rep_from_cache[slot.rep] && group_set != nullptr &&
          cache_.ProbeEntry(group_set.get(), rep.key, &copied, mc,
                            rows.subset()) == StateCache::Probe::kHit) {
        entry = &copied;
        compact = rows.presorted;
        m.qm->counter("sudaf.states.from_cache")->Add();
      }
      if (entry == nullptr) {
        auto it = local_entries.find(rep.key);
        if (it != local_entries.end()) {
          entry = &it->second;
          if (computed_rep[slot.rep] && consumed_reps.insert(slot.rep).second &&
              rep_owner[slot.rep] != &m) {
            // The rep's owner counted states.computed when the pass built
            // it; everyone else got it for free from the batch.
            m.qm->counter("sudaf.states.from_batch")->Add();
          }
        }
      }
      if (entry == nullptr && share && group_set != nullptr &&
          cache_.ProbeEntry(group_set.get(), rep.key, &copied, mc,
                            rows.subset()) == StateCache::Probe::kHit) {
        entry = &copied;  // inserted by a concurrent query after our probe
        compact = rows.presorted;
      }
      if (entry == nullptr) {
        if (input.source == nullptr) {
          return Status::Internal("cached state vanished mid-query: " +
                                  rep.key);
        }
        SUDAF_ASSIGN_OR_RETURN(StateCache::Entry computed,
                               compute_rep_entry(rep, m));
        SUDAF_FAILPOINT("cache:insert");
        m.qm->counter("sudaf.states.computed")->Add();
        if (EntryIsPoisoned(computed)) {
          m.qm->counter("sudaf.states.poisoned")->Add();
        } else if (share && group_set != nullptr &&
                   !cache_.InsertEntry(group_set.get(), rep.key, computed,
                                       mc)) {
          m.qm->counter("sudaf.cache.budget_rejects")->Add();
        }
        entry = &local_entries.emplace(rep.key, std::move(computed))
                     .first->second;
      }
      served += ServeState(*entry, compact, rows, states[i], &rep.cls,
                           rep.direct ? nullptr : &slot.share_fn, &(*out)[i]);
    }
    m.qm->counter("sudaf.serve.rows")->Add(served);
    return Status::OK();
  };

  // 4+5. Compute missing representatives (once, at the first alive
  // member's turn, under its states span) and serve + terminate each
  // member under its own spans.
  if (group_status.ok()) {
    bool pass_done = false;
    for (GroupMember& m : ctx) {
      if (!m.alive()) continue;
      if (m.guard != nullptr) {
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
                              m.qm->dcounter("sudaf.phase.states_ms"));
        if (!pass_done) {
          pass_done = true;
          group_status = compute_missing(m, states_span.id());
          if (!group_status.ok()) break;
        }
        rows = PlanOutputRows(m.rewritten, *m.stmt, *group_keys, num_groups);
        Status served = serve_member(m, rows, &state_values);
        if (!served.ok()) {
          m.failed = served;
          continue;
        }
      }
      TraceSpan terminate_span(m.trace.get(), "terminate", m.run.trace_span,
                               m.qm->dcounter("sudaf.phase.terminate_ms"));
      Result<std::unique_ptr<Table>> assembled = AssembleRewrittenResult(
          m.rewritten, *m.stmt, *group_keys, rows, state_values);
      if (!assembled.ok()) {
        m.failed = assembled.status();
      } else {
        m.table = std::move(*assembled);
      }
    }
  }

  // A group-fatal error (probe/scan/pass) fails every member still alive;
  // the service layer retries them through the solo path.
  if (!group_status.ok()) {
    for (GroupMember& m : ctx) {
      if (m.alive()) m.failed = group_status;
    }
  }

  // Finalize each member exactly like ExecuteStatement: mirror guard
  // movement (note: members sharing one guard object each see the full
  // delta), close the root span, derive stats, fold into the session
  // registry, publish the per-item result.
  for (GroupMember& m : ctx) {
    if (m.guard != nullptr) {
      m.qm->counter("sudaf.guard.checks")
          ->Add(m.guard->checks() - m.guard_checks0);
      m.qm->counter("sudaf.guard.trips")
          ->Add(m.guard->trips() - m.guard_trips0);
    }
    if (!m.failed.ok()) m.qm->counter("sudaf.query.errors")->Add();
    m.root.reset();
    ExecStats stats = DeriveExecStats(m.qm->Snapshot());
    metrics_.Merge(m.qm->Snapshot());
    if (!m.failed.ok()) {
      (*results)[m.item] = m.failed;
      continue;
    }
    QueryResult qr;
    qr.table = std::move(m.table);
    qr.stats = stats;
    qr.trace = std::move(m.trace);
    (*results)[m.item] = std::move(qr);
  }
  MaybeCompactCache();
}

}  // namespace sudaf
