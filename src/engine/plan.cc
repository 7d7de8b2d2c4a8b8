#include "engine/plan.h"

#include <set>

namespace sudaf {

Result<std::pair<int, int>> QueryPlan::ResolveColumn(
    const std::string& column) const {
  int found_table = -1;
  int found_col = -1;
  for (size_t t = 0; t < tables.size(); ++t) {
    int c = tables[t]->schema().FindField(column);
    if (c >= 0) {
      if (found_table >= 0) {
        return Status::InvalidArgument("ambiguous column: " + column);
      }
      found_table = static_cast<int>(t);
      found_col = c;
    }
  }
  if (found_table < 0) return Status::NotFound("unknown column: " + column);
  return std::make_pair(found_table, found_col);
}

Result<QueryPlan> PlanQuery(const SelectStatement& stmt,
                            const Catalog& catalog) {
  QueryPlan plan;
  plan.stmt = &stmt;
  for (const std::string& name : stmt.tables) {
    SUDAF_ASSIGN_OR_RETURN(Table * table, catalog.GetTable(name));
    plan.tables.push_back(table);
  }

  if (stmt.where != nullptr) {
    std::vector<const Expr*> conjuncts;
    stmt.where->CollectConjuncts(&conjuncts);
    for (const Expr* conj : conjuncts) {
      // Column-equality between two tables => join edge.
      if (conj->kind == ExprKind::kBinary && conj->bin_op == BinaryOp::kEq &&
          conj->args[0]->kind == ExprKind::kColumnRef &&
          conj->args[1]->kind == ExprKind::kColumnRef) {
        SUDAF_ASSIGN_OR_RETURN(auto lhs,
                               plan.ResolveColumn(conj->args[0]->column));
        SUDAF_ASSIGN_OR_RETURN(auto rhs,
                               plan.ResolveColumn(conj->args[1]->column));
        if (lhs.first != rhs.first) {
          plan.joins.push_back(
              JoinEdge{lhs.first, lhs.second, rhs.first, rhs.second});
          continue;
        }
        // Same table: fall through to the filter path.
      }
      std::vector<std::string> cols;
      conj->CollectColumns(&cols);
      std::set<int> touched;
      for (const std::string& col : cols) {
        SUDAF_ASSIGN_OR_RETURN(auto loc, plan.ResolveColumn(col));
        touched.insert(loc.first);
      }
      if (touched.size() != 1) {
        return Status::Unimplemented(
            "WHERE conjunct must be a two-table equality or reference a "
            "single table: " +
            conj->ToString());
      }
      plan.filters.push_back(TableFilter{*touched.begin(), conj});
    }
  }

  // Validate group-by columns resolve.
  for (const std::string& col : stmt.group_by) {
    SUDAF_ASSIGN_OR_RETURN(auto loc, plan.ResolveColumn(col));
    (void)loc;
  }
  return plan;
}

}  // namespace sudaf
