#include "sudaf/view_rewrite.h"

#include <map>
#include <set>

#include "engine/state_batch.h"
#include "sudaf/shared_scan.h"

namespace sudaf {

namespace {

std::string StateColumnName(size_t i) {
  return "__s" + std::to_string(i);
}

}  // namespace

Result<AggregateView> MaterializeAggregateView(SudafSession* session,
                                               const std::string& name,
                                               const std::string& sql) {
  SUDAF_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> stmt,
                         ParseSelect(sql));
  SUDAF_ASSIGN_OR_RETURN(RewrittenQuery rewritten, session->Rewrite(*stmt));
  const std::vector<AggStateDef>& states = rewritten.form().states;

  // Every view state is stored verbatim (no-share plan): one direct
  // representative per distinct state, all computed in one fused pass.
  SharedStatePlan plan;
  const std::vector<SharedStatePlan::Slot> slots =
      plan.AddQuery(states, rewritten.classified(/*share=*/false));
  const BatchRequestPlan rq =
      BuildBatchRequests(plan, std::vector<bool>(plan.reps().size(), true));

  Executor executor(session->catalog());
  SUDAF_ASSIGN_OR_RETURN(
      PreparedInput input,
      executor.Prepare(*stmt, RequestColumns(rq), session->exec_options()));

  AggregateView view;
  view.name = name;
  view.num_key_columns = input.group_keys->num_columns();

  Schema schema;
  for (const Field& f : input.group_keys->schema().fields()) {
    SUDAF_RETURN_IF_ERROR(schema.AddField(f));
  }
  for (size_t i = 0; i < states.size(); ++i) {
    SUDAF_RETURN_IF_ERROR(
        schema.AddField(Field{StateColumnName(i), DataType::kFloat64}));
  }
  view.data = std::make_unique<Table>(std::move(schema));

  for (int c = 0; c < view.num_key_columns; ++c) {
    view.data->column(c).AppendColumn(input.group_keys->column(c));
  }
  SUDAF_ASSIGN_OR_RETURN(
      std::vector<std::vector<double>> channels,
      ComputeStateBatch(rq.requests, input.Binder(), input.group_ids,
                        input.num_groups, session->exec_options()));
  for (size_t i = 0; i < states.size(); ++i) {
    Column& dst = view.data->column(view.num_key_columns +
                                    static_cast<int>(i));
    for (double v : channels[rq.main_idx[slots[i].rep]]) {
      dst.AppendFloat64(v);
    }
    view.states.push_back(states[i].Clone());
  }
  view.data->FinishBulkAppend();
  view.stmt = std::move(stmt);
  return view;
}

Result<std::unique_ptr<Table>> ExecuteWithView(SudafSession* session,
                                               const AggregateView& view,
                                               const std::string& sql) {
  SUDAF_ASSIGN_OR_RETURN(std::unique_ptr<SelectStatement> stmt,
                         ParseSelect(sql));
  SUDAF_ASSIGN_OR_RETURN(RewrittenQuery rewritten, session->Rewrite(*stmt));
  const std::vector<AggStateDef>& states = rewritten.form().states;

  // Condition: query grouping is coarser than (a subset of) the view's.
  for (const std::string& g : stmt->group_by) {
    bool in_view = false;
    for (const std::string& vg : view.stmt->group_by) {
      if (vg == g) in_view = true;
    }
    if (!in_view) {
      return Status::InvalidArgument(
          "query groups by " + g + " which the view does not retain");
    }
  }

  // Condition: the view's tables and predicates are contained in the query.
  std::set<std::string> query_tables(stmt->tables.begin(),
                                     stmt->tables.end());
  std::vector<std::string> extra_tables;
  for (const std::string& t : view.stmt->tables) {
    if (query_tables.count(t) == 0) {
      return Status::InvalidArgument("view uses table " + t +
                                     " absent from the query");
    }
  }
  for (const std::string& t : stmt->tables) {
    bool in_view = false;
    for (const std::string& vt : view.stmt->tables) {
      if (vt == t) in_view = true;
    }
    if (!in_view) extra_tables.push_back(t);
  }

  std::vector<const Expr*> query_conjuncts;
  if (stmt->where != nullptr) {
    stmt->where->CollectConjuncts(&query_conjuncts);
  }
  std::vector<const Expr*> view_conjuncts;
  if (view.stmt->where != nullptr) {
    view.stmt->where->CollectConjuncts(&view_conjuncts);
  }
  std::vector<const Expr*> remaining = query_conjuncts;
  for (const Expr* vc : view_conjuncts) {
    bool found = false;
    for (auto it = remaining.begin(); it != remaining.end(); ++it) {
      if ((*it)->ToString() == vc->ToString()) {
        remaining.erase(it);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument(
          "view predicate not implied by the query: " + vc->ToString());
    }
  }

  // Map every query state onto a view state via Theorem 4.1.
  struct StateSource {
    int view_state = -1;
    SharedComputation share_fn;
  };
  std::vector<StateSource> sources(states.size());
  for (size_t i = 0; i < states.size(); ++i) {
    bool mapped = false;
    for (size_t v = 0; v < view.states.size(); ++v) {
      std::optional<SharedComputation> fn =
          Share(states[i], view.states[v]);
      if (fn.has_value()) {
        sources[i] = StateSource{static_cast<int>(v), *fn};
        mapped = true;
        break;
      }
    }
    if (!mapped) {
      return Status::InvalidArgument(
          "query state " + states[i].ToString() +
          " is not computable from the view");
    }
  }

  // Delta statement: view ⋈ extra dimension tables, remaining predicates,
  // the query's grouping.
  SelectStatement delta;
  delta.tables.push_back(view.name);
  for (const std::string& t : extra_tables) delta.tables.push_back(t);
  delta.where = Expr::AndAll(nullptr, remaining);
  delta.group_by = stmt->group_by;
  for (const std::string& g : delta.group_by) {
    delta.items.push_back(SelectItem{Expr::Column(g), ""});
  }

  Catalog delta_catalog;
  for (const std::string& t : session->catalog()->TableNames()) {
    SUDAF_ASSIGN_OR_RETURN(Table * table, session->catalog()->GetTable(t));
    delta_catalog.PutExternalTable(t, table);
  }
  delta_catalog.PutExternalTable(view.name, view.data.get());

  Executor executor(&delta_catalog);
  std::vector<std::string> extra_columns;
  std::set<int> needed_view_states;
  for (const StateSource& src : sources) {
    needed_view_states.insert(src.view_state);
  }
  for (int v : needed_view_states) {
    extra_columns.push_back(StateColumnName(v));
  }
  SUDAF_ASSIGN_OR_RETURN(
      PreparedInput input,
      executor.Prepare(delta, extra_columns, session->exec_options()));

  // Roll up each needed view state with its own ⊕, then apply r.
  // Rolling up materialized counts means summing them (⊕ of count is +
  // over already-counted chunks, not counting view rows).
  // One fused pass over the delta input; float64 state columns are read
  // in place by the batch engine, so no per-state copies are made.
  std::map<int, StateCache::Entry> rolled;
  std::vector<ExprPtr> keepalive;
  std::vector<StateBatchRequest> requests;
  std::vector<int> request_state(needed_view_states.begin(),
                                 needed_view_states.end());
  for (int v : request_state) {
    ExprPtr col_ref = Expr::Column(StateColumnName(v));
    AggOp rollup_op =
        view.states[v].op == AggOp::kCount ? AggOp::kSum : view.states[v].op;
    requests.push_back({rollup_op, col_ref.get()});
    keepalive.push_back(std::move(col_ref));
  }
  SUDAF_ASSIGN_OR_RETURN(
      std::vector<std::vector<double>> batch,
      ComputeStateBatch(requests, input.Binder(), input.group_ids,
                        input.num_groups, session->exec_options()));
  for (size_t r = 0; r < request_state.size(); ++r) {
    rolled[request_state[r]].main = std::move(batch[r]);
  }

  const OutputRows rows = PlanOutputRows(rewritten, *stmt, *input.group_keys,
                                        input.num_groups);
  std::vector<std::vector<double>> state_values(states.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    ServeState(rolled[sources[i].view_state], /*compact=*/false, rows,
               states[i], nullptr, &sources[i].share_fn,
               &state_values[i]);
  }

  return AssembleRewrittenResult(rewritten, *stmt, *input.group_keys, rows,
                                 state_values,
                                 session->exec_options().metrics);
}

}  // namespace sudaf
