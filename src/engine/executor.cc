#include "engine/executor.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/metrics.h"
#include "common/query_guard.h"
#include "common/trace.h"
#include "engine/ordering.h"
#include "engine/state_batch.h"
#include "expr/evaluator.h"
#include "sudaf/rewriter.h"

namespace sudaf {

namespace {

bool IsNativeFinalized(const std::string& name) {
  return name == "avg" || name == "var" || name == "stddev";
}

}  // namespace

std::string SelectItemName(const SelectItem& item) {
  return item.alias.empty() ? item.expr->ToString() : item.alias;
}

Result<PreparedInput> Executor::Prepare(
    const SelectStatement& stmt,
    const std::vector<std::string>& extra_columns,
    const ExecOptions& opts) const {
  SUDAF_ASSIGN_OR_RETURN(QueryPlan plan, PlanQuery(stmt, *catalog_));

  auto phase_ms = [&](const char* name) -> DCounter* {
    return opts.metrics != nullptr ? opts.metrics->dcounter(name) : nullptr;
  };

  JoinedRows joined;
  {
    TraceSpan filter_span(opts.trace, "filter", opts.trace_span,
                          phase_ms("sudaf.phase.filter_ms"));
    SUDAF_ASSIGN_OR_RETURN(joined, FilterAndJoin(plan, opts));
  }

  // Columns the query reads: group-by keys, select-list references, caller
  // extras. Deduplicated, insertion-ordered.
  PreparedInput prepared;
  std::set<std::string> seen;
  auto add = [&](const std::string& name) {
    if (name == "*" || seen.count(name) > 0) return;
    seen.insert(name);
    prepared.columns.push_back(name);
  };
  for (const std::string& g : stmt.group_by) add(g);
  for (const SelectItem& item : stmt.items) {
    std::vector<std::string> cols;
    item.expr->CollectColumns(&cols);
    for (const std::string& c : cols) add(c);
  }
  for (const std::string& c : extra_columns) add(c);
  prepared.num_input_rows = joined.num_tuples;

  // A single-table input binds its base table through the selection (or
  // the identity range): nothing is copied. A join gathers the columns it
  // reads into a frame once — its tuple stream is a permutation of every
  // joined table — and binds the frame as an identity range.
  {
    TraceSpan gather_span(opts.trace, "gather", opts.trace_span,
                          phase_ms("sudaf.phase.gather_ms"));
    if (plan.tables.size() == 1) {
      for (const std::string& name : prepared.columns) {
        SUDAF_RETURN_IF_ERROR(plan.ResolveColumn(name).status());
      }
      prepared.source = plan.tables[0];
      if (joined.identity_base >= 0) {
        prepared.base = joined.identity_base;
      } else {
        prepared.row_ids = std::move(joined.rows[0]);
      }
    } else {
      std::vector<BoundColumn> columns;
      for (const std::string& name : prepared.columns) {
        SUDAF_ASSIGN_OR_RETURN(auto loc, plan.ResolveColumn(name));
        const Column& col = plan.tables[loc.first]->column(loc.second);
        columns.push_back(
            BoundColumn{&col, joined.rows[loc.first].data(), 0});
      }
      SUDAF_ASSIGN_OR_RETURN(prepared.frame,
                             GatherColumns(prepared.columns, columns,
                                           joined.num_tuples, opts));
      prepared.source = prepared.frame.get();
    }
  }

  // Map the base table's append-segment boundaries into filtered-row
  // space: the selection vector of a single-table plan is ascending, so a
  // base-table boundary `e` lands at the index of the first selected row
  // >= e. Predicates are row-local, which makes each filtered segment's
  // content — and therefore the fused executor's per-segment chunk tree —
  // identical whether the segment is scanned as part of a cold full pass
  // or alone as a delta (docs/execution.md, "Incremental maintenance").
  if (plan.tables.size() == 1) {
    std::vector<int64_t> base_ends;
    if (opts.scan != nullptr && !opts.scan->segment_ends.empty()) {
      base_ends = opts.scan->segment_ends;
    } else {
      base_ends = catalog_->TableSegments(stmt.tables[0]);
    }
    const std::vector<int64_t>& sel = prepared.row_ids;
    const int64_t scan_lo = opts.scan != nullptr ? opts.scan->begin : 0;
    for (int64_t e : base_ends) {
      if (e <= scan_lo) continue;
      const int64_t idx =
          joined.identity_base >= 0
              ? e - prepared.base
              : std::lower_bound(sel.begin(), sel.end(), e) - sel.begin();
      if (idx < joined.num_tuples) prepared.segment_ends.push_back(idx);
    }
  }
  prepared.segment_ends.push_back(joined.num_tuples);

  {
    TraceSpan group_span(opts.trace, "group", opts.trace_span,
                         phase_ms("sudaf.phase.group_ms"));
    SUDAF_RETURN_IF_ERROR(BuildGroups(stmt.group_by, &prepared));
  }
  return prepared;
}

Result<std::unique_ptr<Table>> Executor::Execute(
    const SelectStatement& stmt, const ExecOptions& opts) const {
  TraceSpan exec_span(opts.trace, "engine_execute", opts.trace_span);
  if (opts.metrics != nullptr) {
    opts.metrics->counter("sudaf.engine.executions")->Add();
  }
  if (opts.guard != nullptr) {
    SUDAF_RETURN_IF_ERROR(opts.guard->Check());
  }
  ExecOptions prep_opts = opts;
  prep_opts.trace_span = exec_span.id() >= 0 ? exec_span.id() : opts.trace_span;
  SUDAF_ASSIGN_OR_RETURN(PreparedInput input, Prepare(stmt, {}, prep_opts));
  if (opts.metrics != nullptr) {
    opts.metrics->counter("sudaf.engine.input_rows")
        ->Add(input.num_input_rows);
  }
  if (opts.guard != nullptr) {
    SUDAF_RETURN_IF_ERROR(opts.guard->ChargeMemory(input.ApproxBytes()));
  }
  const int32_t num_groups = input.num_groups;

  Schema out_schema;
  std::vector<std::vector<double>> agg_outputs(stmt.items.size());
  std::vector<int> group_key_source(stmt.items.size(), -1);

  // Fused pre-pass: collect every kernel-backed aggregate in the select
  // list — primitive aggregate calls plus the states behind the native
  // avg/var/stddev finalizers — and compute them in ONE morsel-driven pass.
  // Duplicate channels (e.g. the count shared by every avg/var item, or
  // sum(x) shared by avg(x) and var(x)) are deduplicated by the batch
  // engine.
  struct FusedItem {
    int direct = -1;            // primitive aggregate: finished state
    int cnt = -1, sum = -1, sum2 = -1;  // avg/var/stddev channels
  };
  std::vector<FusedItem> fused_items(stmt.items.size());
  std::vector<std::vector<double>> fused_batch;
  {  // the requests and their inputs live only as long as the pass
    std::vector<ExprPtr> keepalive;
    std::vector<StateBatchRequest> requests;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const Expr& expr = *stmt.items[i].expr;
      if (expr.kind == ExprKind::kAggCall) {
        fused_items[i].direct = static_cast<int>(requests.size());
        if (expr.agg_op == AggOp::kCount) {
          requests.push_back({AggOp::kCount, nullptr});
        } else {
          requests.push_back({expr.agg_op, expr.args[0].get()});
        }
      } else if (expr.kind == ExprKind::kFuncCall &&
                 IsNativeFinalized(expr.func_name) && expr.args.size() == 1) {
        fused_items[i].cnt = static_cast<int>(requests.size());
        requests.push_back({AggOp::kCount, nullptr});
        fused_items[i].sum = static_cast<int>(requests.size());
        requests.push_back({AggOp::kSum, expr.args[0].get()});
        if (expr.func_name != "avg") {
          ExprPtr sq = Expr::Binary(BinaryOp::kMul, expr.args[0]->Clone(),
                                    expr.args[0]->Clone());
          fused_items[i].sum2 = static_cast<int>(requests.size());
          requests.push_back({AggOp::kSum, sq.get()});
          keepalive.push_back(std::move(sq));
        }
      }
    }
    if (!requests.empty()) {
      SUDAF_ASSIGN_OR_RETURN(
          fused_batch, ComputeStateBatch(requests, input.Binder(),
                                         input.group_ids, num_groups, opts));
    }
  }

  for (size_t i = 0; i < stmt.items.size(); ++i) {
    // Interpreted UDAFs each make their own pass over the input, so the
    // guard is re-checked between items (the fused pre-pass above checks
    // at morsel granularity).
    if (opts.guard != nullptr) {
      SUDAF_RETURN_IF_ERROR(opts.guard->Check());
    }
    const SelectItem& item = stmt.items[i];
    const Expr& expr = *item.expr;
    const std::string out_name = SelectItemName(item);

    if (expr.kind == ExprKind::kColumnRef) {
      // Group key column.
      int key_idx = input.group_keys->schema().FindField(expr.column);
      if (key_idx < 0) {
        return Status::InvalidArgument("select column " + expr.column +
                                       " is not in GROUP BY");
      }
      SUDAF_RETURN_IF_ERROR(out_schema.AddField(
          Field{out_name, input.group_keys->schema().field(key_idx).type}));
      group_key_source[i] = key_idx;
      continue;
    }

    SUDAF_RETURN_IF_ERROR(
        out_schema.AddField(Field{out_name, DataType::kFloat64}));

    if (expr.kind == ExprKind::kAggCall) {
      agg_outputs[i] = std::move(fused_batch[fused_items[i].direct]);
      continue;
    }

    if (expr.kind != ExprKind::kFuncCall) {
      return Status::Unimplemented(
          "engine-native execution supports only aggregate calls and group "
          "keys in the select list, got: " +
          expr.ToString());
    }

    if (IsNativeFinalized(expr.func_name)) {
      // avg / var / stddev: built-in, computed from kernel states.
      if (expr.args.size() != 1) {
        return Status::InvalidArgument(expr.func_name +
                                       "() takes one argument");
      }
      // Moved out so each item's channels are freed with the item.
      std::vector<double> cnt = std::move(fused_batch[fused_items[i].cnt]);
      std::vector<double> sum = std::move(fused_batch[fused_items[i].sum]);
      std::vector<double> out(num_groups);
      if (expr.func_name == "avg") {
        for (int32_t g = 0; g < num_groups; ++g) out[g] = sum[g] / cnt[g];
      } else {
        std::vector<double> sum2 =
            std::move(fused_batch[fused_items[i].sum2]);
        for (int32_t g = 0; g < num_groups; ++g) {
          double m = sum[g] / cnt[g];
          double v = sum2[g] / cnt[g] - m * m;
          out[g] = expr.func_name == "var" ? v : std::sqrt(v);
        }
      }
      agg_outputs[i] = std::move(out);
      continue;
    }

    // A UDAF through the IUME interface.
    std::unique_ptr<Udaf> derived;
    std::vector<std::string> columns;
    SUDAF_ASSIGN_OR_RETURN(const Udaf* udaf,
                           FindUdaf(expr, &derived, &columns));
    std::vector<BoundColumn> args;
    for (const std::string& name : columns) {
      SUDAF_ASSIGN_OR_RETURN(BoundColumn arg, input.Bind(name));
      if (arg.col->type() == DataType::kString) {
        return Status::TypeError("UDAF argument " + name + " is not numeric");
      }
      args.push_back(arg);
    }
    SUDAF_ASSIGN_OR_RETURN(
        agg_outputs[i],
        RunHardcodedUdaf(*udaf, args, input.group_ids, num_groups, opts));
  }

  // Assemble the result table: one row per group.
  auto result = std::make_unique<Table>(std::move(out_schema));
  result->Reserve(num_groups);
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    Column& dst = result->column(static_cast<int>(i));
    if (group_key_source[i] >= 0) {
      const Column& src = input.group_keys->column(group_key_source[i]);
      for (int32_t g = 0; g < num_groups; ++g) {
        dst.AppendValue(src.GetValue(g));
      }
    } else {
      for (int32_t g = 0; g < num_groups; ++g) {
        dst.AppendFloat64(agg_outputs[i][g]);
      }
    }
  }
  result->FinishBulkAppend();

  return SortAndLimit(std::move(result), stmt);
}

Result<const Udaf*> Executor::FindUdaf(
    const Expr& call, std::unique_ptr<Udaf>* derived,
    std::vector<std::string>* columns) const {
  if (registry_ != nullptr && registry_->Has(call.func_name)) {
    for (const auto& arg : call.args) {
      if (arg->kind != ExprKind::kColumnRef) {
        return Status::Unimplemented(
            "arguments of a registered UDAF must be plain columns: " +
            call.ToString());
      }
      columns->push_back(arg->column);
    }
    return registry_->Get(call.func_name);
  }
  const UdafDefinition* def =
      library_ != nullptr ? library_->GetExpr(call.func_name) : nullptr;
  if (def == nullptr) {
    return Status::NotFound("no UDAF named " + call.func_name);
  }
  if (def->params.size() != call.args.size()) {
    return Status::InvalidArgument(
        call.func_name + "() takes " + std::to_string(def->params.size()) +
        " argument(s)");
  }
  // The expanded body reads the argument expressions in place of the
  // parameters, so the derived UDAF takes the columns they name.
  SUDAF_ASSIGN_OR_RETURN(ExprPtr body, library_->Expand(call));
  std::vector<std::string> read;
  body->CollectColumns(&read);
  for (std::string& name : read) {
    if (std::find(columns->begin(), columns->end(), name) == columns->end()) {
      columns->push_back(std::move(name));
    }
  }
  SUDAF_ASSIGN_OR_RETURN(*derived,
                         DeriveUdaf(call.func_name, *columns, *body));
  return derived->get();
}

std::unique_ptr<Table> GatherRows(const Table& table,
                                  const std::vector<int64_t>& rows) {
  auto out = std::make_unique<Table>(table.schema());
  const int64_t n = static_cast<int64_t>(rows.size());
  out->Reserve(n);
  for (int c = 0; c < table.num_columns(); ++c) {
    out->column(c).AppendRows(table.column(c), rows.data(), n);
  }
  out->FinishBulkAppend();
  return out;
}

Result<std::unique_ptr<Table>> SortAndLimit(std::unique_ptr<Table> result,
                                            const SelectStatement& stmt) {
  if (stmt.having != nullptr) {
    // HAVING filters the finished rows; it references output column names.
    const Table& t = *result;
    RowAccessor accessor = [&t](const std::string& col,
                                int64_t row) -> Result<Value> {
      SUDAF_ASSIGN_OR_RETURN(const Column* c, t.GetColumn(col));
      return c->GetValue(row);
    };
    std::vector<int64_t> kept;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      SUDAF_ASSIGN_OR_RETURN(Value v, EvalRow(*stmt.having, accessor, r));
      if (v.is_numeric() && v.AsDouble() != 0.0) kept.push_back(r);
    }
    result = GatherRows(t, kept);
  }
  if (stmt.order_by.empty() && stmt.limit < 0) return result;

  std::vector<SortKey> keys;
  for (const OrderByItem& item : stmt.order_by) {
    SUDAF_ASSIGN_OR_RETURN(const Column* col, result->GetColumn(item.column));
    keys.push_back(SortKey{col, item.ascending});
  }
  return GatherRows(*result,
                    OrderRows(keys, result->num_rows(), stmt.limit));
}

}  // namespace sudaf
