#include "sudaf/chunked.h"

#include <algorithm>

#include "agg/builtin_kernels.h"
#include "common/query_guard.h"
#include "common/timer.h"
#include "engine/aggregation.h"
#include "engine/executor.h"
#include "engine/state_batch.h"
#include "sudaf/shared_scan.h"

namespace sudaf {

namespace {

// Matches `col OP literal` and returns the literal.
bool MatchBound(const Expr& e, const std::string& column, BinaryOp op,
                int64_t* bound) {
  if (e.kind != ExprKind::kBinary || e.bin_op != op) return false;
  if (e.args[0]->kind != ExprKind::kColumnRef ||
      e.args[0]->column != column) {
    return false;
  }
  if (e.args[1]->kind != ExprKind::kLiteral ||
      !e.args[1]->literal.is_numeric()) {
    return false;
  }
  *bound = static_cast<int64_t>(e.args[1]->literal.AsDouble());
  return true;
}

// One chunk as this call merges it: its group set (which keeps the key
// table alive) and its channels per representative, copied out of the
// cache or computed by this call.
struct ChunkStates {
  StateCache::GroupSetPtr set;
  std::vector<StateCache::Entry> entries;
};

}  // namespace

ChunkedSharingSession::ChunkedSharingSession(SudafSession* session,
                                             std::string table,
                                             std::string chunk_column,
                                             int64_t chunk_width)
    : session_(session),
      table_(std::move(table)),
      chunk_column_(std::move(chunk_column)),
      chunk_width_(chunk_width) {
  SUDAF_CHECK_MSG(chunk_width_ > 0, "chunk width must be positive");
}

Result<std::unique_ptr<Table>> ChunkedSharingSession::Execute(
    const std::string& sql) {
  // Like ExecStats, ChunkedExecStats is derived from a registry: this
  // call's own, which starts empty, so its snapshot is the call's delta
  // even while other instances share the session. The TraceSpan (no trace
  // attached) is used purely as an RAII accumulator for total_ms.
  MetricsRegistry m;
  TraceSpan total_span(nullptr, "chunked", -1,
                       m.dcounter("sudaf.chunked.total_ms"));
  Result<std::unique_ptr<Table>> result = Run(sql, &m);
  total_span.Close();
  const MetricsSnapshot snap = m.Snapshot();
  session_->metrics().Merge(snap);
  session_->MaybeCompactCache();
  stats_.chunks_needed =
      static_cast<int>(snap.counter("sudaf.chunked.chunks_needed"));
  stats_.chunks_from_cache =
      static_cast<int>(snap.counter("sudaf.chunked.chunks_from_cache"));
  stats_.chunks_computed =
      static_cast<int>(snap.counter("sudaf.chunked.chunks_computed"));
  stats_.total_ms = snap.dcounter("sudaf.chunked.total_ms");
  return result;
}

Result<std::unique_ptr<Table>> ChunkedSharingSession::Run(
    const std::string& sql, MetricsRegistry* m) {
  ExecOptions opts = session_->exec_options();
  opts.metrics = m;
  const CacheOps cops{m, nullptr};
  if (opts.guard != nullptr) SUDAF_RETURN_IF_ERROR(opts.guard->Check());

  SUDAF_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> stmt,
                         ParseSelect(sql));
  if (stmt->tables.size() != 1 || stmt->tables[0] != table_) {
    return Status::InvalidArgument(
        "chunked sharing is configured for table " + table_);
  }

  // Split the WHERE clause into the chunk-range bounds and the residual
  // conjuncts (which become part of every chunk's signature).
  std::vector<const Expr*> conjuncts;
  if (stmt->where != nullptr) stmt->where->CollectConjuncts(&conjuncts);
  bool have_lo = false;
  bool have_hi = false;
  int64_t lo = 0;
  int64_t hi = 0;
  std::vector<const Expr*> residual;
  for (const Expr* conj : conjuncts) {
    int64_t bound;
    if (!have_lo && MatchBound(*conj, chunk_column_, BinaryOp::kGe, &bound)) {
      lo = bound;
      have_lo = true;
      continue;
    }
    if (!have_hi && MatchBound(*conj, chunk_column_, BinaryOp::kLt, &bound)) {
      hi = bound;
      have_hi = true;
      continue;
    }
    std::vector<std::string> cols;
    conj->CollectColumns(&cols);
    for (const std::string& col : cols) {
      if (col == chunk_column_) {
        return Status::Unimplemented(
            "chunk-column predicates must be `col >= lo and col < hi`: " +
            conj->ToString());
      }
    }
    residual.push_back(conj);
  }

  // Every chunk set this call probes or creates is stamped with the
  // table's epochs as of now: an append or a replace of the table bumps
  // them, and the next probe discards the set (chunks are never delta
  // refreshed, so their sets are created with covered_rows = -1).
  const CatalogEpochs epochs = session_->catalog()->TablesEpochs({table_});
  SUDAF_ASSIGN_OR_RETURN(Table * table,
                         session_->catalog()->GetTable(table_));
  SUDAF_ASSIGN_OR_RETURN(const Column* chunk_col,
                         table->GetColumn(chunk_column_));
  if (chunk_col->type() != DataType::kInt64) {
    return Status::InvalidArgument("chunk column must be INT64");
  }
  if (!have_lo || !have_hi) {
    // Infer the full domain from the data, snapped outward to boundaries.
    int64_t min_v = INT64_MAX;
    int64_t max_v = INT64_MIN;
    chunk_col->ForEachSpan<int64_t>(
        0, chunk_col->size(), [&](const int64_t* v, int64_t a, int64_t b) {
          for (int64_t i = 0; i < b - a; ++i) {
            min_v = std::min(min_v, v[i]);
            max_v = std::max(max_v, v[i]);
          }
        });
    if (min_v > max_v) return Status::InvalidArgument("empty table");
    if (!have_lo) {
      lo = min_v >= 0 ? (min_v / chunk_width_) * chunk_width_
                      : -(((-min_v + chunk_width_ - 1) / chunk_width_) *
                          chunk_width_);
    }
    if (!have_hi) hi = ((max_v / chunk_width_) + 1) * chunk_width_;
  }
  if (lo % chunk_width_ != 0 || hi % chunk_width_ != 0 || lo >= hi) {
    return Status::Unimplemented(
        "range bounds must be aligned to chunk boundaries");
  }

  // Rewrite the select list into states + terminating plans.
  SUDAF_ASSIGN_OR_RETURN(RewrittenQuery rewritten, session_->Rewrite(*stmt, m));
  const std::vector<AggStateDef>& states = rewritten.form().states;

  // Every state's class representative (Theorem 4.1), exactly as a query
  // of the shared cache resolves it.
  SharedStatePlan plan;
  const std::vector<SharedStatePlan::Slot> slots =
      plan.AddQuery(states, rewritten.classified(/*share=*/true));
  const std::vector<SharedStatePlan::Rep>& reps = plan.reps();

  // A chunk's signature is the data signature of the statement without
  // its range conjuncts, plus the chunk column and the chunk's [lo, hi).
  // Its states come from a covering-range pass, whose accumulation order
  // differs from a plain query's over the same rows, so the suffix keeps
  // chunk sets and plain query sets apart. It keeps the "T:" prefix that
  // recovery reads the tables from.
  SelectStatement unranged;
  unranged.tables = stmt->tables;
  unranged.group_by = stmt->group_by;
  unranged.where = Expr::AndAll(nullptr, residual);
  const std::string sig_prefix =
      DataSignature(unranged) + ";C:" + chunk_column_ + "[";
  auto chunk_sig = [&](int64_t c) {
    return sig_prefix + std::to_string(c * chunk_width_) + "," +
           std::to_string((c + 1) * chunk_width_) + ")";
  };
  StateCache& cache = session_->cache();

  // Probe every chunk in [lo, hi); a chunk missing some needed class entry
  // is computed. Hits are copied out, so a concurrent eviction cannot
  // change this call's answer.
  const int64_t first_chunk = lo / chunk_width_;
  const int64_t last_chunk = hi / chunk_width_;  // exclusive
  std::vector<ChunkStates> chunks(last_chunk - first_chunk);
  std::vector<int64_t> missing;
  for (int64_t c = first_chunk; c < last_chunk; ++c) {
    m->counter("sudaf.chunked.chunks_needed")->Add();
    ChunkStates& chunk = chunks[c - first_chunk];
    chunk.entries.resize(reps.size());
    chunk.set = cache.Find(chunk_sig(c), epochs, /*can_refresh=*/false, cops)
                    .set;
    bool complete = chunk.set != nullptr;
    for (size_t r = 0; complete && r < reps.size(); ++r) {
      complete = cache.ProbeEntry(chunk.set.get(), reps[r].key(),
                                  &chunk.entries[r],
                                  cops) == StateCache::Probe::kHit;
    }
    if (complete) {
      m->counter("sudaf.chunked.chunks_from_cache")->Add();
    } else {
      m->counter("sudaf.chunked.chunks_computed")->Add();
      missing.push_back(c);
    }
  }

  // Compute every missing chunk in ONE scan over the covering range,
  // grouping on the composite (chunk id, group keys).
  if (!missing.empty()) {
    const int64_t scan_first = missing.front();
    const int64_t scan_last = missing.back() + 1;  // exclusive
    SelectStatement range_stmt;
    range_stmt.tables = stmt->tables;
    range_stmt.group_by = stmt->group_by;
    range_stmt.where = Expr::AndAll(
        Expr::Binary(
            BinaryOp::kAnd,
            Expr::Binary(BinaryOp::kGe, Expr::Column(chunk_column_),
                         Expr::Literal(Value(
                             int64_t{scan_first * chunk_width_}))),
            Expr::Binary(BinaryOp::kLt, Expr::Column(chunk_column_),
                         Expr::Literal(Value(
                             int64_t{scan_last * chunk_width_})))),
        residual);
    for (const std::string& g : stmt->group_by) {
      range_stmt.items.push_back(SelectItem{Expr::Column(g), ""});
    }

    // Every representative's channels, in one fused pass over the range.
    BatchRequestPlan rq =
        BuildBatchRequests(plan, std::vector<bool>(reps.size(), true));
    std::vector<std::string> extra_columns = RequestColumns(rq);
    extra_columns.push_back(chunk_column_);
    Executor executor(session_->catalog());
    SUDAF_ASSIGN_OR_RETURN(PreparedInput input,
                           executor.Prepare(range_stmt, extra_columns, opts));

    // Composite group ids: BuildGroups over one INT64 code per row,
    // chunk × G + group id (the chunk counted from scan_first, G the
    // range's group count), so a code names its (chunk, group) pair and
    // composite ids come out in first-occurrence row order.
    SUDAF_ASSIGN_OR_RETURN(BoundColumn ts, input.Bind(chunk_column_));
    const int64_t rows = input.num_input_rows;
    const int64_t range_groups = std::max<int64_t>(input.num_groups, 1);
    const int64_t scan_lo = scan_first * chunk_width_;
    Schema code_schema;
    SUDAF_RETURN_IF_ERROR(
        code_schema.AddField(Field{"composite", DataType::kInt64}));
    Table codes(std::move(code_schema));
    Column& code_col = codes.column(0);
    code_col.Reserve(rows);
    for (int64_t i = 0; i < rows; ++i) {
      const int64_t chunk = (ts.col->GetInt64(ts.Row(i)) - scan_lo) /
                            chunk_width_;
      code_col.AppendInt64(chunk * range_groups + input.group_ids[i]);
    }
    codes.FinishBulkAppend();
    PreparedInput composite;
    composite.source = &codes;
    composite.num_input_rows = rows;
    SUDAF_RETURN_IF_ERROR(BuildGroups({"composite"}, &composite));
    const std::vector<int32_t>& cgids = composite.group_ids;
    const int32_t num_cgroups = composite.num_groups;
    const std::vector<int64_t>& composite_keys =
        composite.group_keys->column(0).ints();

    // Per-class channels at composite granularity.
    SUDAF_ASSIGN_OR_RETURN(
        std::vector<std::vector<double>> batch,
        ComputeStateBatch(rq.requests, input.Binder(), cgids, num_cgroups,
                          opts));

    // Composite ids run in first-occurrence row order, so the ids of one
    // chunk, in id order, are that chunk's groups in first-occurrence
    // order among the chunk's OWN rows. That order depends on nothing
    // else, so a chunk's set lines up with the entries of any later scan
    // that covers the chunk, and entries from different scans can share
    // one set. Every chunk of the covering range is (re)filled — gaps
    // between missing chunks come along, like a prefetch — and an empty
    // chunk gets a set of no groups.
    std::vector<std::vector<int32_t>> chunk_cgids(scan_last - scan_first);
    for (int32_t cg = 0; cg < num_cgroups; ++cg) {
      chunk_cgids[composite_keys[cg] / range_groups].push_back(cg);
    }
    for (int64_t c = scan_first; c < scan_last; ++c) {
      const std::vector<int32_t>& ids = chunk_cgids[c - scan_first];
      const int32_t n = static_cast<int32_t>(ids.size());
      std::vector<int64_t> key_rows(ids.size());
      for (size_t g = 0; g < ids.size(); ++g) {
        key_rows[g] = composite_keys[ids[g]] % range_groups;
      }
      ChunkStates& chunk = chunks[c - first_chunk];
      chunk.set = cache.GetOrCreate(chunk_sig(c),
                                    *GatherRows(*input.group_keys, key_rows),
                                    n, epochs, /*covered_rows=*/-1, cops);
      for (size_t r = 0; r < reps.size(); ++r) {
        StateCache::Entry entry;
        const std::vector<double>& main = batch[rq.main_idx[r]];
        entry.main.resize(n);
        for (int32_t g = 0; g < n; ++g) entry.main[g] = main[ids[g]];
        if (rq.sign_idx[r] >= 0) {
          const std::vector<double>& sign = batch[rq.sign_idx[r]];
          entry.sign.resize(n);
          for (int32_t g = 0; g < n; ++g) entry.sign[g] = sign[ids[g]];
        }
        // As in SudafSession::ExecuteGroup: a poisoned entry is served but
        // never cached, and one the budget declines is served call-local.
        if (EntryIsPoisoned(entry)) {
          m->counter("sudaf.states.poisoned")->Add();
        } else if (!cache.InsertEntry(chunk.set.get(), reps[r].key(), entry,
                                      cops)) {
          m->counter("sudaf.cache.budget_rejects")->Add();
        }
        chunk.entries[r] = std::move(entry);
      }
    }
  }

  // Merge the chunks with ⊕ in chunk order. Each chunk's groups are
  // merged on their typed keys, and groups not seen in an earlier chunk
  // take the next ids in the order they first appear. Ungrouped queries
  // have the single implicit group once some chunk has a row.
  std::vector<GroupKeyTable> key_tables;
  for (const ChunkStates& chunk : chunks) {
    key_tables.push_back({chunk.set->group_keys.get(), chunk.set->num_groups});
  }
  MergedGroupKeys keys = MergeGroupKeys(key_tables);
  const Table& group_keys = *keys.keys;
  const int32_t num_groups = keys.num_groups;
  const std::vector<std::vector<int32_t>>& remaps = keys.remaps;
  std::vector<StateCache::Entry> merged(reps.size());
  for (size_t r = 0; r < reps.size(); ++r) {
    StateCache::Entry& out = merged[r];
    const AggOp op = reps[r].cls->MainOp();
    out.main.assign(num_groups, AggIdentity(op));
    if (reps[r].cls->log_domain) out.sign.assign(num_groups, 1.0);
    for (size_t k = 0; k < chunks.size(); ++k) {
      const StateCache::Entry& part = chunks[k].entries[r];
      for (size_t g = 0; g < remaps[k].size(); ++g) {
        const int32_t target = remaps[k][g];
        out.main[target] = AggMerge(op, out.main[target], part.main[g]);
        if (!out.sign.empty()) out.sign[target] *= part.sign[g];
      }
    }
  }

  // Serve the requested states at the output rows and finish.
  const OutputRows rows =
      PlanOutputRows(rewritten, *stmt, group_keys, num_groups);
  std::vector<std::vector<double>> state_values(states.size());
  int64_t served = 0;
  for (size_t i = 0; i < states.size(); ++i) {
    served += ServeState(merged[slots[i].rep], /*compact=*/false, rows,
                         states[i], reps[slots[i].rep].cls, &slots[i].share_fn,
                         &state_values[i]);
  }
  m->counter("sudaf.serve.rows")->Add(served);

  return AssembleRewrittenResult(rewritten, *stmt, group_keys, rows,
                                 state_values, m);
}

}  // namespace sudaf
