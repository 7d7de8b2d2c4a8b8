#include "engine/hash_join.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "common/query_guard.h"
#include "common/thread_pool.h"
#include "expr/evaluator.h"

namespace sudaf {

namespace {

// Value of a numeric literal, possibly under unary minus, computed with the
// same operations EvalRow applies to it.
bool LiteralValue(const Expr& e, double* v) {
  if (e.kind == ExprKind::kLiteral && e.literal.is_numeric()) {
    *v = e.literal.AsDouble();
    return true;
  }
  if (e.kind == ExprKind::kUnaryMinus && LiteralValue(*e.args[0], v)) {
    *v = -*v;
    return true;
  }
  return false;
}

// `a op b` == `b Mirror(op) a` for every IEEE double pair, NaN included.
std::optional<BinaryOp> Mirror(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    case BinaryOp::kEq:
    case BinaryOp::kNe:
      return op;
    default:
      return std::nullopt;
  }
}

// Selection kernels. `sel` holds morsel-relative offsets of the surviving
// rows. A dense call selects from all `len` rows of the morsel; a sparse
// call compacts the first `n` entries of `sel` in place. Both write every
// candidate and advance by `pass(i)`, so the loops carry no data-dependent
// branch. Returns the new selection size.
template <typename Pass>
uint32_t SelectIf(int64_t len, bool dense, uint32_t n, uint32_t* sel,
                  const Pass& pass) {
  uint32_t k = 0;
  if (dense) {
    for (int64_t i = 0; i < len; ++i) {
      sel[k] = static_cast<uint32_t>(i);
      k += pass(i) ? 1 : 0;
    }
    return k;
  }
  for (uint32_t j = 0; j < n; ++j) {
    const uint32_t i = sel[j];
    sel[k] = i;
    k += pass(i) ? 1 : 0;
  }
  return k;
}

// Typed kernel for `v[i] <Cmp> c`, comparing as double like the
// interpreted evaluator.
template <typename Cmp, typename T>
uint32_t SelectCompare(const T* v, double c, int64_t len, bool dense,
                       uint32_t n, uint32_t* sel) {
  const Cmp cmp;
  return SelectIf(len, dense, n, sel, [&](int64_t i) {
    return cmp(static_cast<double>(v[i]), c);
  });
}

template <typename T>
uint32_t SelectTyped(const T* v, BinaryOp op, double c, int64_t len,
                     bool dense, uint32_t n, uint32_t* sel) {
  switch (op) {
    case BinaryOp::kLt:
      return SelectCompare<std::less<double>>(v, c, len, dense, n, sel);
    case BinaryOp::kLe:
      return SelectCompare<std::less_equal<double>>(v, c, len, dense, n, sel);
    case BinaryOp::kGt:
      return SelectCompare<std::greater<double>>(v, c, len, dense, n, sel);
    case BinaryOp::kGe:
      return SelectCompare<std::greater_equal<double>>(v, c, len, dense, n,
                                                       sel);
    case BinaryOp::kEq:
      return SelectCompare<std::equal_to<double>>(v, c, len, dense, n, sel);
    default:
      return SelectCompare<std::not_equal_to<double>>(v, c, len, dense, n,
                                                      sel);
  }
}

// Applies compiled predicate `p` to the morsel of base rows
// [lo, lo + len), which lies in one storage chunk; see SelectIf for
// `dense`, `n` and `sel`.
uint32_t ApplyCompiled(const CompiledPredicate& p, int64_t lo, int64_t len,
                       bool dense, uint32_t n, uint32_t* sel) {
  if (p.column->type() == DataType::kFloat64) {
    return SelectTyped(p.column->RangeData<double>(lo, lo + len), p.op,
                       p.literal, len, dense, n, sel);
  }
  return SelectTyped(p.column->RangeData<int64_t>(lo, lo + len), p.op,
                     p.literal, len, dense, n, sel);
}

// Base-table row range [lo, hi) a scan of `table` covers. Scan bounds
// (delta-refresh passes scan only appended rows) are only ever set for
// single-table plans — FilterAndJoin rejects them otherwise — so applying
// them unconditionally is safe.
std::pair<int64_t, int64_t> ScanRange(const Table& table,
                                      const ExecOptions& opts) {
  int64_t lo = 0;
  int64_t hi = table.num_rows();
  if (opts.scan != nullptr) {
    lo = std::clamp<int64_t>(opts.scan->begin, 0, hi);
    if (opts.scan->end >= 0) hi = std::clamp<int64_t>(opts.scan->end, lo, hi);
  }
  return {lo, hi};
}

// Runs every conjunct of `filter` over the base rows [lo, lo + len) of one
// storage chunk (len <= kVector if the program has roots): the typed
// kernels first (the first one
// writing the selection, later ones compacting it in place), then the
// program's roots, each compacting it to the rows whose value is not 0,
// then EvalRow over the rows still selected. Conjuncts are row-local, so
// the order never changes the result. Writes the offsets of the passing
// rows into `sel` and returns their count.
Result<uint32_t> SelectVector(const CompiledFilter& filter,
                              const RowAccessor& accessor, int64_t lo,
                              int64_t len, SlotBuffers* slots,
                              uint32_t* sel) {
  bool dense = true;  // every row of the vector selected, sel unset
  uint32_t k = 0;
  for (const CompiledPredicate& c : filter.kernels) {
    k = ApplyCompiled(c, lo, len, dense, k, sel);
    dense = false;
    if (k == 0) return k;
  }
  if (!filter.roots.empty()) {
    EvalVector(filter.program, slots, lo, len);
    for (int root : filter.roots) {
      const double* v = slots->ptr[root];
      k = SelectIf(len, dense, k, sel, [v](int64_t i) { return v[i] != 0.0; });
      dense = false;
      if (k == 0) return k;
    }
  }
  for (const Expr* pred : filter.interpreted) {
    Status st;
    k = SelectIf(len, dense, k, sel, [&](int64_t i) {
      if (!st.ok()) return false;
      Result<Value> v = EvalRow(*pred, accessor, lo + i);
      if (!v.ok()) {
        st = v.status();
        return false;
      }
      return v->is_numeric() && v->AsDouble() != 0.0;
    });
    SUDAF_RETURN_IF_ERROR(st);
    dense = false;
    if (k == 0) return k;
  }
  return k;
}

// Evaluates the per-table filters; returns the selected row ids of table `t`.
//
// Each conjunct's path is fixed once, before the first morsel
// (CompileFilter). Every morsel then runs SelectVector, in kVector-row
// steps when there is a program to evaluate, with one SlotBuffers per
// worker. Per-morsel selections are kept
// as offsets; a prefix sum over their counts gives each morsel its write
// offset in the output, so the row ids come out in ascending order for
// every worker count. The scan range splits at the table's storage chunk
// ends before it splits into morsels, so no morsel straddles a chunk and
// each kernel reads one contiguous buffer; a single-chunk table gets the
// plain morsel grid.
Result<std::vector<int64_t>> FilterTable(const QueryPlan& plan, int t,
                                         const ExecOptions& opts) {
  Table* table = plan.tables[t];
  const auto [lo, hi] = ScanRange(*table, opts);
  std::vector<const Expr*> conjuncts;
  for (const TableFilter& f : plan.filters) {
    if (f.table_index == t) conjuncts.push_back(f.predicate);
  }
  std::vector<int64_t> out;
  if (conjuncts.empty()) {
    out.resize(hi - lo);
    for (int64_t i = lo; i < hi; ++i) out[i - lo] = i;
    return out;
  }
  if (hi == lo) return out;

  const CompiledFilter filter = CompileFilter(conjuncts, *table);
  RowAccessor accessor = [table](const std::string& col,
                                 int64_t row) -> Result<Value> {
    SUDAF_ASSIGN_OR_RETURN(const Column* c, table->GetColumn(col));
    return c->GetValue(row);
  };

  const int64_t span = hi - lo;
  const int64_t morsel = std::max(1, opts.morsel_size);
  // Morsel m covers base rows [bounds[m], bounds[m + 1]).
  std::vector<int64_t> bounds;
  int64_t piece_lo = lo;
  for (int64_t end : table->ChunkEnds()) {
    const int64_t piece_hi = std::min(end, hi);
    for (int64_t m = piece_lo; m < piece_hi; m += morsel) bounds.push_back(m);
    piece_lo = std::max(piece_lo, piece_hi);
  }
  bounds.push_back(hi);
  const int64_t num_morsels = static_cast<int64_t>(bounds.size()) - 1;
  const int workers = std::min(PlannedWorkers(opts, num_morsels),
                               ThreadPool::kMaxGlobalWorkers + 1);

  // Phase 1: per-morsel selections, one contiguous morsel range per
  // worker. The decomposition never affects the result. A morsel runs in
  // kVector-row steps when the program has roots (its buffers hold
  // kVector rows), else in one step, which spares the kernels' selection
  // the per-step offset shift.
  std::vector<std::vector<uint32_t>> morsel_sel(num_morsels);
  const int64_t step_rows = filter.roots.empty() ? morsel : kVector;
  auto run_range = [&](int64_t wi) -> Status {
    const int64_t m_lo = num_morsels * wi / workers;
    const int64_t m_hi = num_morsels * (wi + 1) / workers;
    std::vector<uint32_t> sel(static_cast<size_t>(std::min(morsel, span)));
    SlotBuffers slots;
    slots.Init(filter.program, std::min(kVector, span));
    for (int64_t m = m_lo; m < m_hi; ++m) {
      if (opts.guard != nullptr) {
        SUDAF_RETURN_IF_ERROR(opts.guard->Check());
      }
      const int64_t mlo = bounds[m];
      const int64_t len = bounds[m + 1] - mlo;
      // Step v's survivors follow the earlier steps' in `sel`, shifted to
      // morsel offsets.
      uint32_t kept = 0;
      for (int64_t v = 0; v < len; v += step_rows) {
        uint32_t* step = sel.data() + kept;
        SUDAF_ASSIGN_OR_RETURN(
            const uint32_t k,
            SelectVector(filter, accessor, mlo + v,
                         std::min(step_rows, len - v), &slots, step));
        if (v > 0) {
          for (uint32_t j = 0; j < k; ++j) step[j] += static_cast<uint32_t>(v);
        }
        kept += k;
      }
      morsel_sel[m].assign(sel.begin(), sel.begin() + kept);
    }
    return Status::OK();
  };
  if (workers > 1) {
    ThreadPool& pool = ThreadPool::Global();
    pool.EnsureWorkers(workers - 1);
    SUDAF_RETURN_IF_ERROR(pool.TryParallelFor(workers, run_range));
  } else {
    SUDAF_RETURN_IF_ERROR(run_range(0));
  }

  // Phase 2: prefix sum over the per-morsel counts, then each worker writes
  // its morsels' row ids at their offsets.
  std::vector<int64_t> offsets(num_morsels + 1, 0);
  for (int64_t m = 0; m < num_morsels; ++m) {
    offsets[m + 1] = offsets[m] + static_cast<int64_t>(morsel_sel[m].size());
  }
  out.resize(offsets[num_morsels]);
  auto write_range = [&](int64_t wi) {
    for (int64_t m = num_morsels * wi / workers;
         m < num_morsels * (wi + 1) / workers; ++m) {
      const int64_t mlo = bounds[m];
      int64_t* dst = out.data() + offsets[m];
      for (uint32_t i : morsel_sel[m]) *dst++ = mlo + i;
      std::vector<uint32_t>().swap(morsel_sel[m]);
    }
  };
  if (workers > 1) {
    ThreadPool::Global().ParallelFor(workers, write_range);
  } else {
    write_range(0);
  }
  return out;
}

int64_t KeyAt(const Column& col, int64_t row) {
  switch (col.type()) {
    case DataType::kInt64:
      return col.GetInt64(row);
    case DataType::kString:
      return col.GetStringCode(row);  // only valid within one table
    case DataType::kFloat64:
      break;
  }
  SUDAF_CHECK_MSG(false, "join key must be INT64");
  return 0;
}

}  // namespace

std::optional<CompiledPredicate> CompilePredicate(const Expr& pred,
                                                  const Table& table) {
  if (pred.kind != ExprKind::kBinary || !Mirror(pred.bin_op).has_value()) {
    return std::nullopt;
  }
  const Expr* col = nullptr;
  BinaryOp op = pred.bin_op;
  double literal = 0.0;
  if (pred.args[0]->kind == ExprKind::kColumnRef &&
      LiteralValue(*pred.args[1], &literal)) {
    col = pred.args[0].get();
  } else if (pred.args[1]->kind == ExprKind::kColumnRef &&
             LiteralValue(*pred.args[0], &literal)) {
    col = pred.args[1].get();
    op = *Mirror(pred.bin_op);
  } else {
    return std::nullopt;
  }
  Result<const Column*> column = table.GetColumn(col->column);
  if (!column.ok() || (*column)->type() == DataType::kString) {
    return std::nullopt;
  }
  return CompiledPredicate{*column, op, literal};
}

CompiledFilter CompileFilter(const std::vector<const Expr*>& conjuncts,
                             const Table& table) {
  CompiledFilter filter;
  const ColumnBinder binder =
      [&table](const std::string& name) -> Result<BoundColumn> {
    SUDAF_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(name));
    return BoundColumn{col, nullptr, 0};
  };
  for (const Expr* c : conjuncts) {
    if (std::optional<CompiledPredicate> kernel = CompilePredicate(*c, table)) {
      filter.kernels.push_back(*kernel);
      continue;
    }
    Result<int> root = filter.program.Add(*c, SlotLeaves{&binder});
    if (root.ok()) {
      filter.program.MarkRoot(*root);
      filter.roots.push_back(*root);
    } else {
      filter.interpreted.push_back(c);
    }
  }
  filter.program.Finish();
  return filter;
}

Result<JoinedRows> FilterAndJoin(const QueryPlan& plan,
                                 const ExecOptions& opts) {
  const int num_tables = static_cast<int>(plan.tables.size());
  if (opts.scan != nullptr && num_tables != 1) {
    return Status::InvalidArgument(
        "scan bounds are only supported for single-table plans");
  }

  // A lone unfiltered table is an identity range, not an iota vector.
  if (num_tables == 1 && plan.filters.empty()) {
    const auto [lo, hi] = ScanRange(*plan.tables[0], opts);
    JoinedRows result;
    result.rows.resize(1);
    result.identity_base = lo;
    result.num_tuples = hi - lo;
    return result;
  }

  // 1. Filter every table (morsel-parallel under opts.parallel).
  std::vector<std::vector<int64_t>> selected(num_tables);
  for (int t = 0; t < num_tables; ++t) {
    SUDAF_ASSIGN_OR_RETURN(selected[t], FilterTable(plan, t, opts));
  }

  // 2. Seed the tuple stream with the largest filtered table.
  int start = 0;
  for (int t = 1; t < num_tables; ++t) {
    if (selected[t].size() > selected[start].size()) start = t;
  }

  JoinedRows result;
  result.rows.resize(num_tables);
  result.rows[start] = std::move(selected[start]);
  result.num_tuples = static_cast<int64_t>(result.rows[start].size());

  std::vector<bool> joined(num_tables, false);
  joined[start] = true;
  std::vector<bool> edge_used(plan.joins.size(), false);

  // 3. Attach remaining tables via join edges; run to fixpoint.
  int joined_count = 1;
  while (joined_count < num_tables) {
    bool progress = false;
    for (size_t e = 0; e < plan.joins.size(); ++e) {
      if (edge_used[e]) continue;
      const JoinEdge& edge = plan.joins[e];
      int probe_t, probe_c, build_t, build_c;
      if (joined[edge.left_table] && !joined[edge.right_table]) {
        probe_t = edge.left_table;
        probe_c = edge.left_column;
        build_t = edge.right_table;
        build_c = edge.right_column;
      } else if (joined[edge.right_table] && !joined[edge.left_table]) {
        probe_t = edge.right_table;
        probe_c = edge.right_column;
        build_t = edge.left_table;
        build_c = edge.left_column;
      } else {
        continue;
      }
      edge_used[e] = true;
      progress = true;

      const Column& build_col = plan.tables[build_t]->column(build_c);
      if (build_col.type() != DataType::kInt64) {
        return Status::Unimplemented("non-INT64 join keys are not supported");
      }
      const Column& probe_col = plan.tables[probe_t]->column(probe_c);
      if (probe_col.type() != DataType::kInt64) {
        return Status::Unimplemented("non-INT64 join keys are not supported");
      }

      // Build hash table over the new table's filtered rows.
      std::unordered_map<int64_t, std::vector<int64_t>> hash;
      hash.reserve(selected[build_t].size() * 2);
      for (int64_t row : selected[build_t]) {
        hash[build_col.GetInt64(row)].push_back(row);
      }

      // Probe with the current tuple stream.
      std::vector<std::vector<int64_t>> new_rows(num_tables);
      const std::vector<int64_t>& probe_rows = result.rows[probe_t];
      for (int64_t i = 0; i < result.num_tuples; ++i) {
        auto it = hash.find(probe_col.GetInt64(probe_rows[i]));
        if (it == hash.end()) continue;
        for (int64_t build_row : it->second) {
          for (int t = 0; t < num_tables; ++t) {
            if (!result.rows[t].empty()) {
              new_rows[t].push_back(result.rows[t][i]);
            }
          }
          new_rows[build_t].push_back(build_row);
        }
      }
      result.rows = std::move(new_rows);
      result.num_tuples =
          static_cast<int64_t>(result.rows[build_t].size());
      joined[build_t] = true;
      ++joined_count;
    }
    if (!progress) {
      return Status::InvalidArgument(
          "FROM tables are not connected by join predicates (cross products "
          "are not supported)");
    }
  }

  // 4. Remaining unused edges connect already-joined tables: apply as
  //    post-join filters.
  for (size_t e = 0; e < plan.joins.size(); ++e) {
    if (edge_used[e]) continue;
    const JoinEdge& edge = plan.joins[e];
    const Column& lcol = plan.tables[edge.left_table]->column(edge.left_column);
    const Column& rcol =
        plan.tables[edge.right_table]->column(edge.right_column);
    std::vector<std::vector<int64_t>> kept(num_tables);
    for (int64_t i = 0; i < result.num_tuples; ++i) {
      int64_t lkey = KeyAt(lcol, result.rows[edge.left_table][i]);
      int64_t rkey = KeyAt(rcol, result.rows[edge.right_table][i]);
      if (lkey != rkey) continue;
      for (int t = 0; t < num_tables; ++t) {
        if (!result.rows[t].empty()) kept[t].push_back(result.rows[t][i]);
      }
    }
    int64_t new_count = 0;
    for (int t = 0; t < num_tables; ++t) {
      if (!kept[t].empty()) {
        new_count = static_cast<int64_t>(kept[t].size());
        break;
      }
    }
    result.rows = std::move(kept);
    result.num_tuples = new_count;
  }

  return result;
}

}  // namespace sudaf
