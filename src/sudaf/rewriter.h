#ifndef SUDAF_SUDAF_REWRITER_H_
#define SUDAF_SUDAF_REWRITER_H_

// SUDAF's declarative UDAF registry and the query rewriter that factors
// queries into (aggregation states, terminating functions) — the step that
// turns Q1 into RQ1 in the paper's motivating example.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/statement.h"
#include "sudaf/cache.h"
#include "sudaf/canonical.h"
#include "sudaf/sharing.h"

namespace sudaf {

// A UDAF defined declaratively as a mathematical expression over named
// parameters, e.g. theta1(x, y) = (count()*sum(x*y) - ...) / (...).
struct UdafDefinition {
  std::string name;
  std::vector<std::string> params;
  ExprPtr body;
};

// The paper's second definition scenario (Section 4.1): aggregation states
// declared as expressions plus a hardcoded terminating function — e.g. the
// MomentSolver consuming a moments sketch to approximate a quantile.
struct NativeUdaf {
  std::string name;
  // State expressions over the single formal parameter "x",
  // e.g. {"min(x)", "max(x)", "count()", "sum(x)", "sum(ln(x)^2)", ...}.
  std::vector<std::string> state_templates;
  // Terminating function over the evaluated state values (same order).
  std::function<Result<double>(const std::vector<double>&)> terminate;
};

// Registry of declaratively-defined UDAFs.
class UdafLibrary {
 public:
  // Parses and registers `expression` under `name`. Scalar-function names
  // (sqrt, ln, ...) cannot be redefined.
  Status Define(const std::string& name,
                const std::vector<std::string>& params,
                const std::string& expression);
  Status DefineNative(NativeUdaf udaf);

  const UdafDefinition* GetExpr(const std::string& name) const;
  const NativeUdaf* GetNative(const std::string& name) const;
  std::vector<std::string> Names() const;

  // Expands every registered-UDAF call inside `expr` (to a fixpoint).
  Result<ExprPtr> Expand(const Expr& expr) const;

  // A library preloaded with the aggregates used throughout the paper's
  // experiments: avg, var, stddev, qm, cm, apm, hm, gm, skewness, kurtosis,
  // theta1, theta0, covar, corr, logsumexp.
  static UdafLibrary Standard();

 private:
  std::map<std::string, UdafDefinition> exprs_;
  std::map<std::string, NativeUdaf> natives_;
};

// Plan for one select item after rewriting.
struct ItemPlan {
  std::string output_name;
  int group_key_index = -1;    // >= 0: copy this group-key column
  int terminating_index = -1;  // >= 0: evaluate form.terminating[i] per group
  const NativeUdaf* native = nullptr;  // set for native-terminated UDAFs
  std::vector<int> native_term_indices;  // their states' terminating indices
};

// A fully rewritten query: deduplicated aggregation states + per-item
// terminating plans (the paper's RQ form).
struct RewrittenQuery {
  CanonicalForm form;
  std::vector<ItemPlan> items;
  std::string data_signature;

  // RQ1-style rendering: the inner built-in-aggregate query and the outer
  // terminating select list.
  std::string Explain(const SelectStatement& stmt) const;
};

// Rewrites `stmt`: expands registered UDAFs in the select list, factors out
// aggregation states (splitting rules included), deduplicates them across
// items, and produces terminating plans.
Result<RewrittenQuery> RewriteQuery(const SelectStatement& stmt,
                                    const UdafLibrary& library);

// --- Output-first tail (docs/execution.md, "Output-first terminate") -----
//
// A rewritten query finishes in three steps, and only the first one sees
// every group: PlanOutputRows decides which groups the query returns, and
// in what order, from the group keys alone; ServeState applies the sharing
// function for just those groups; AssembleRewrittenResult terminates them a
// column at a time.

// The groups a rewritten query returns, in output order.
struct OutputRows {
  // True when ORDER BY names only group keys (or is absent under a LIMIT)
  // and there is no HAVING: `groups` is then the final output, ordered on
  // the keys and cut to the LIMIT. False means every group in group order
  // (`groups` is 0..num_groups-1) and the assembled table still goes
  // through SortAndLimit.
  bool presorted = false;
  std::vector<int64_t> groups;

  // Row subset for StateCache::ProbeEntry: null copies the whole entry.
  const std::vector<int64_t>* subset() const {
    return presorted ? &groups : nullptr;
  }
};

// Plans the output rows of `stmt` over its `num_groups` groups (passed
// explicitly because ungrouped queries have one group but a zero-column
// key table).
OutputRows PlanOutputRows(const RewrittenQuery& rewritten,
                          const SelectStatement& stmt,
                          const Table& group_keys, int32_t num_groups);

// Serves one requested state at the output rows into `out` (one value per
// output row) — the serve step shared by every rewritten-query path.
// `entry` holds the channels of the state's class representative: either
// for every group, or, when `compact`, for exactly the output rows in order
// (a ProbeEntry row-subset copy-out). A null `share_fn` serves the main
// channel as is (direct states); otherwise each value is
// ApplyFromClass(target, *cls, *share_fn, main, sign), or
// share_fn->Apply(main) when `cls` is null. An exact identity
// (SharedComputation::IsExactIdentity) with no product sign to restore is a
// plain copy, which gives the same bits. Returns the rows served (the
// sudaf.serve.rows counter).
int64_t ServeState(const StateCache::Entry& entry, bool compact,
                   const OutputRows& rows, const AggStateDef& target,
                   const StateClass* cls, const SharedComputation* share_fn,
                   std::vector<double>* out);

// Terminates the output rows and assembles the result table (group keys +
// item columns). `state_columns[s]` holds state s at the output rows, as
// ServeState left it; each terminating function runs once over the whole
// column (EvalTerminatingRange). Unless `rows.presorted`, the table then
// goes through SortAndLimit for HAVING, ORDER BY and LIMIT.
Result<std::unique_ptr<Table>> AssembleRewrittenResult(
    const RewrittenQuery& rewritten, const SelectStatement& stmt,
    const Table& group_keys, const OutputRows& rows,
    const std::vector<std::vector<double>>& state_columns);

}  // namespace sudaf

#endif  // SUDAF_SUDAF_REWRITER_H_
