#include "sudaf/chunked.h"

#include <algorithm>
#include <unordered_map>

#include "agg/builtin_kernels.h"
#include "common/query_guard.h"
#include "common/timer.h"
#include "engine/state_batch.h"
#include "sudaf/shared_scan.h"

namespace sudaf {

namespace {

void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kBinary && e->bin_op == BinaryOp::kAnd) {
    CollectConjuncts(e->args[0].get(), out);
    CollectConjuncts(e->args[1].get(), out);
    return;
  }
  out->push_back(e);
}

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

std::string SerializeKey(const std::vector<Value>& values) {
  std::string key;
  for (const Value& v : values) {
    key += v.ToString();
    key += '\x1f';
  }
  return key;
}

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

int64_t ChunkedSharingSession::num_cached_chunk_entries() const {
  int64_t n = 0;
  for (const auto& [_, entry] : chunks_) {
    n += static_cast<int64_t>(entry.states.size());
  }
  return n;
}

Result<std::unique_ptr<Table>> ChunkedSharingSession::Execute(
    const std::string& sql) {
  stats_ = ChunkedExecStats{};
  // Like ExecStats, ChunkedExecStats is derived from the session registry:
  // all counting below goes through sudaf.chunked.* metrics, and the
  // struct is a per-query delta computed at the end. The TraceSpan (no
  // trace attached) is used purely as an RAII accumulator for total_ms.
  MetricsRegistry& m = session_->metrics();
  const MetricsSnapshot before = m.Snapshot();
  TraceSpan total_span(nullptr, "chunked", -1,
                       m.dcounter("sudaf.chunked.total_ms"));
  if (session_->exec_options().guard != nullptr) {
    SUDAF_RETURN_IF_ERROR(session_->exec_options().guard->Check());
  }

  SUDAF_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> stmt,
                         ParseSelect(sql));
  if (stmt->tables.size() != 1 || stmt->tables[0] != table_) {
    return Status::InvalidArgument(
        "chunked sharing is configured for table " + table_);
  }

  // Split the WHERE clause into the chunk-range bounds and the residual
  // conjuncts (which become part of every chunk's signature).
  std::vector<const Expr*> conjuncts;
  if (stmt->where != nullptr) {
    CollectConjuncts(stmt->where.get(), &conjuncts);
  }
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
  SUDAF_ASSIGN_OR_RETURN(RewrittenQuery rewritten,
                         RewriteQuery(*stmt, session_->library()));
  const std::vector<AggStateDef>& states = rewritten.form.states;

  // Classify every state into its class representative (Theorem 4.1),
  // exactly as a query of the shared cache does.
  SharedStatePlan plan;
  const std::vector<SharedStatePlan::Slot> slots =
      plan.AddQuery(states, /*share=*/true);
  const std::vector<SharedStatePlan::Rep>& reps = plan.reps();

  // Chunk signature: residual predicates + grouping.
  std::vector<std::string> residual_strings;
  for (const Expr* conj : residual) residual_strings.push_back(conj->ToString());
  std::sort(residual_strings.begin(), residual_strings.end());
  std::string signature = table_ + ";";
  for (const std::string& s : residual_strings) signature += s + ",";
  signature += ";";
  for (const std::string& g : stmt->group_by) signature += g + ",";

  Executor executor(session_->catalog(), &session_->hardcoded());

  // Identify which chunks in [lo, hi) are missing some needed class entry.
  const int64_t first_chunk = lo / chunk_width_;
  const int64_t last_chunk = hi / chunk_width_;  // exclusive
  auto chunk_map_key = [&signature](int64_t c) {
    return signature + "#" + std::to_string(c);
  };
  std::vector<int64_t> missing;
  for (int64_t c = first_chunk; c < last_chunk; ++c) {
    m.counter("sudaf.chunked.chunks_needed")->Add();
    auto it = chunks_.find(chunk_map_key(c));
    bool complete = it != chunks_.end();
    if (complete) {
      for (const SharedStatePlan::Rep& rep : reps) {
        if (it->second.states.count(rep.key) == 0) complete = false;
      }
    }
    if (complete) {
      m.counter("sudaf.chunked.chunks_from_cache")->Add();
    } else {
      m.counter("sudaf.chunked.chunks_computed")->Add();
      missing.push_back(c);
    }
  }

  // Compute every missing chunk in ONE scan over the covering range,
  // grouping on the composite (chunk id, group keys).
  if (!missing.empty()) {
    SelectStatement range_stmt;
    range_stmt.tables = stmt->tables;
    range_stmt.group_by = stmt->group_by;
    ExprPtr where = Expr::Binary(
        BinaryOp::kGe, Expr::Column(chunk_column_),
        Expr::Literal(Value(int64_t{missing.front() * chunk_width_})));
    where = Expr::Binary(
        BinaryOp::kAnd, std::move(where),
        Expr::Binary(
            BinaryOp::kLt, Expr::Column(chunk_column_),
            Expr::Literal(Value(int64_t{(missing.back() + 1) *
                                        chunk_width_}))));
    for (const Expr* conj : residual) {
      where = Expr::Binary(BinaryOp::kAnd, std::move(where), conj->Clone());
    }
    range_stmt.where = std::move(where);
    for (const std::string& g : stmt->group_by) {
      range_stmt.items.push_back(SelectItem{Expr::Column(g), ""});
    }

    // Every representative's channels, in one fused pass over the range.
    BatchRequestPlan rq =
        BuildBatchRequests(plan, std::vector<bool>(reps.size(), true));
    std::vector<std::string> extra_columns = {chunk_column_};
    for (const StateBatchRequest& r : rq.requests) {
      if (r.input != nullptr) r.input->CollectColumns(&extra_columns);
    }
    // The session's default exec options carry the parallelism knobs for
    // the covering-range scan (no trace/metrics sinks to attach here).
    SUDAF_ASSIGN_OR_RETURN(
        PreparedInput input,
        executor.Prepare(range_stmt, extra_columns, session_->exec_options()));

    // Composite group ids: (chunk id, within-range group id) -> cgid.
    SUDAF_ASSIGN_OR_RETURN(BoundColumn ts, input.Bind(chunk_column_));
    const int64_t rows = input.num_input_rows;
    std::vector<int32_t> cgids(rows);
    std::map<std::pair<int64_t, int32_t>, int32_t> composite;
    std::vector<std::pair<int64_t, int32_t>> composite_keys;
    for (int64_t i = 0; i < rows; ++i) {
      std::pair<int64_t, int32_t> key = {
          ts.col->GetInt64(ts.Row(i)) / chunk_width_, input.group_ids[i]};
      auto [it, inserted] = composite.emplace(
          key, static_cast<int32_t>(composite_keys.size()));
      if (inserted) composite_keys.push_back(key);
      cgids[i] = it->second;
    }
    const int32_t num_cgroups = static_cast<int32_t>(composite_keys.size());

    // Per-class channels at composite granularity.
    SUDAF_ASSIGN_OR_RETURN(
        std::vector<std::vector<double>> batch,
        ComputeStateBatch(rq.requests, input.Binder(), cgids, num_cgroups,
                          session_->exec_options()));
    std::map<std::string, StateCache::Entry> computed;
    for (size_t r = 0; r < reps.size(); ++r) {
      StateCache::Entry& channels = computed[reps[r].key];
      channels.main = std::move(batch[rq.main_idx[r]]);
      if (rq.sign_idx[r] >= 0) channels.sign = std::move(batch[rq.sign_idx[r]]);
    }

    // Scatter composite results into per-chunk entries. Every chunk in the
    // covering range is (re)filled — contiguous gaps between missing chunks
    // come along for free, like a prefetch.
    std::map<int64_t, ChunkEntry> fresh;
    for (int64_t c = missing.front(); c <= missing.back(); ++c) {
      fresh[c];  // ensure empty chunks exist too
    }
    std::vector<int32_t> position_in_chunk(num_cgroups);
    for (int32_t cg = 0; cg < num_cgroups; ++cg) {
      const auto& [chunk_id, gid] = composite_keys[cg];
      ChunkEntry& entry = fresh[chunk_id];
      std::vector<Value> key;
      for (int kc = 0; kc < input.group_keys->num_columns(); ++kc) {
        key.push_back(input.group_keys->column(kc).GetValue(gid));
      }
      position_in_chunk[cg] =
          static_cast<int32_t>(entry.group_keys.size());
      entry.group_keys.push_back(SerializeKey(key));
      entry.key_values.push_back(std::move(key));
    }
    for (auto& [chunk_id, entry] : fresh) {
      for (const auto& [class_key, channels] : computed) {
        StateCache::Entry& dst = entry.states[class_key];
        dst.main.resize(entry.group_keys.size());
        if (!channels.sign.empty()) {
          dst.sign.resize(entry.group_keys.size());
        }
      }
    }
    for (int32_t cg = 0; cg < num_cgroups; ++cg) {
      const auto& [chunk_id, gid] = composite_keys[cg];
      (void)gid;
      ChunkEntry& entry = fresh[chunk_id];
      int32_t pos = position_in_chunk[cg];
      for (const auto& [class_key, channels] : computed) {
        StateCache::Entry& dst = entry.states[class_key];
        dst.main[pos] = channels.main[cg];
        if (!channels.sign.empty()) dst.sign[pos] = channels.sign[cg];
      }
    }
    for (auto& [chunk_id, entry] : fresh) {
      std::string map_key = chunk_map_key(chunk_id);
      auto old_it = chunks_.find(map_key);
      if (old_it != chunks_.end()) {
        // Carry over previously cached classes this query did not
        // recompute, remapping their group order onto the fresh entry's.
        const ChunkEntry& old = old_it->second;
        std::unordered_map<std::string, int32_t> old_pos;
        for (size_t g = 0; g < old.group_keys.size(); ++g) {
          old_pos[old.group_keys[g]] = static_cast<int32_t>(g);
        }
        for (const auto& [class_key, old_channels] : old.states) {
          if (entry.states.count(class_key) > 0) continue;
          StateCache::Entry remapped;
          remapped.main.resize(entry.group_keys.size());
          if (!old_channels.sign.empty()) {
            remapped.sign.resize(entry.group_keys.size());
          }
          bool consistent = old.group_keys.size() == entry.group_keys.size();
          for (size_t g = 0; consistent && g < entry.group_keys.size();
               ++g) {
            auto pos = old_pos.find(entry.group_keys[g]);
            if (pos == old_pos.end()) {
              consistent = false;
              break;
            }
            remapped.main[g] = old_channels.main[pos->second];
            if (!remapped.sign.empty()) {
              remapped.sign[g] = old_channels.sign[pos->second];
            }
          }
          if (consistent) {
            entry.states[class_key] = std::move(remapped);
          }
        }
      }
      chunks_.insert_or_assign(map_key, std::move(entry));
    }
  }

  std::vector<ChunkEntry*> needed;
  for (int64_t c = first_chunk; c < last_chunk; ++c) {
    auto it = chunks_.find(chunk_map_key(c));
    SUDAF_CHECK(it != chunks_.end());
    needed.push_back(&it->second);
  }

  // Merge per-chunk per-group channels with ⊕ across chunks.
  std::unordered_map<std::string, int32_t> group_index;
  std::vector<std::vector<Value>> merged_keys;
  std::map<std::string, StateCache::Entry> merged;
  for (const ChunkEntry* chunk : needed) {
    for (size_t g = 0; g < chunk->group_keys.size(); ++g) {
      auto [it, inserted] = group_index.emplace(
          chunk->group_keys[g], static_cast<int32_t>(merged_keys.size()));
      if (inserted) merged_keys.push_back(chunk->key_values[g]);
    }
  }
  const int32_t num_groups = static_cast<int32_t>(merged_keys.size());
  for (const SharedStatePlan::Rep& rep : reps) {
    StateCache::Entry& out = merged[rep.key];
    const AggOp op = rep.cls.MainOp();
    out.main.assign(num_groups, AggIdentity(op));
    if (rep.cls.log_domain) out.sign.assign(num_groups, 1.0);
    for (const ChunkEntry* chunk : needed) {
      const StateCache::Entry& part = chunk->states.at(rep.key);
      for (size_t g = 0; g < chunk->group_keys.size(); ++g) {
        int32_t target = group_index.at(chunk->group_keys[g]);
        out.main[target] = AggMerge(op, out.main[target], part.main[g]);
        if (!out.sign.empty()) out.sign[target] *= part.sign[g];
      }
    }
  }

  // Group-key table for planning and assembly.
  Schema key_schema;
  for (const std::string& g : stmt->group_by) {
    SUDAF_ASSIGN_OR_RETURN(const Column* col, table->GetColumn(g));
    SUDAF_RETURN_IF_ERROR(key_schema.AddField(Field{g, col->type()}));
  }
  Table group_keys(std::move(key_schema));
  for (int32_t g = 0; g < num_groups; ++g) {
    group_keys.AppendRow(merged_keys[g]);
  }

  // Serve the requested states at the output rows and finish.
  const OutputRows rows =
      PlanOutputRows(rewritten, *stmt, group_keys, num_groups);
  std::vector<std::vector<double>> state_values(states.size());
  int64_t served = 0;
  for (size_t i = 0; i < states.size(); ++i) {
    const SharedStatePlan::Rep& rep = reps[slots[i].rep];
    served += ServeState(merged.at(rep.key), /*compact=*/false, rows,
                         states[i], &rep.cls, &slots[i].share_fn,
                         &state_values[i]);
  }
  m.counter("sudaf.serve.rows")->Add(served);

  Result<std::unique_ptr<Table>> result = AssembleRewrittenResult(
      rewritten, *stmt, group_keys, rows, state_values);

  total_span.Close();
  const MetricsSnapshot delta = m.Snapshot().Delta(before);
  stats_.chunks_needed =
      static_cast<int>(delta.counter("sudaf.chunked.chunks_needed"));
  stats_.chunks_from_cache =
      static_cast<int>(delta.counter("sudaf.chunked.chunks_from_cache"));
  stats_.chunks_computed =
      static_cast<int>(delta.counter("sudaf.chunked.chunks_computed"));
  stats_.total_ms = delta.dcounter("sudaf.chunked.total_ms");
  return result;
}

}  // namespace sudaf
