#ifndef SUDAF_SUDAF_REWRITER_H_
#define SUDAF_SUDAF_REWRITER_H_

// SUDAF's declarative UDAF registry and the query rewriter that factors
// queries into (aggregation states, terminating functions) — the step that
// turns Q1 into RQ1 in the paper's motivating example.

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "engine/slot_program.h"
#include "sql/statement.h"
#include "sudaf/cache.h"
#include "sudaf/canonical.h"
#include "sudaf/shared_scan.h"
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
  // A registered native UDAF: its definition and its state templates,
  // parsed once by DefineNative. Shared, so a rewrite plan that uses it
  // stays valid after the library redefines or drops the name.
  struct Native {
    NativeUdaf udaf;
    std::vector<ExprPtr> states;  // udaf.state_templates, parsed
  };

  UdafLibrary();
  // A move carries the stamp over and gives the moved-from library a new
  // one, so no two library contents ever share a stamp.
  UdafLibrary(UdafLibrary&& other) noexcept;
  UdafLibrary& operator=(UdafLibrary&& other) noexcept;

  // Parses and registers `expression` under `name`. Scalar-function names
  // (sqrt, ln, ...) cannot be redefined.
  Status Define(const std::string& name,
                const std::vector<std::string>& params,
                const std::string& expression);
  Status DefineNative(NativeUdaf udaf);

  const UdafDefinition* GetExpr(const std::string& name) const;
  std::shared_ptr<const Native> GetNative(const std::string& name) const;
  std::vector<std::string> Names() const;

  // Expands every registered-UDAF call inside `expr` (to a fixpoint).
  Result<ExprPtr> Expand(const Expr& expr) const;

  // Identifies this library's definitions: drawn from a process-wide
  // counter at construction and on every Define/DefineNative, so a rewrite
  // memoized under one stamp is never served after the definitions change.
  uint64_t stamp() const { return stamp_; }

  // A library preloaded with the aggregates used throughout the paper's
  // experiments: avg, var, stddev, qm, cm, apm, hm, gm, skewness, kurtosis,
  // theta1, theta0, covar, corr, logsumexp.
  static UdafLibrary Standard();

 private:
  std::map<std::string, UdafDefinition> exprs_;
  std::map<std::string, std::shared_ptr<const Native>> natives_;
  uint64_t stamp_;
};

// Plan for one select item after rewriting.
struct ItemPlan {
  std::string output_name;
  int group_key_index = -1;    // >= 0: copy this group-key column
  int terminating_index = -1;  // >= 0: evaluate form.terminating[i] per group
  // Set for native-terminated UDAFs.
  std::shared_ptr<const UdafLibrary::Native> native;
  std::vector<int> native_term_indices;  // their states' terminating indices
};

// The part of a rewrite that depends only on the statement's select list,
// its GROUP BY and the library, never on its tables or WHERE clause:
// deduplicated aggregation states, per-item terminating plans (the
// paper's RQ form) and each state's resolution for the shared state plan.
// Immutable, so statements of one shape share it through the rewrite memo.
struct RewritePlan {
  CanonicalForm form;
  std::vector<ItemPlan> items;
  // Per state of `form`: its Theorem 4.1 class (share mode) and its
  // "direct|" key (no-share mode), so serving a memoized plan classifies
  // nothing.
  std::vector<ClassifiedState> shared;
  std::vector<ClassifiedState> direct;
  // Every terminating function of `form` compiled into one program over
  // the state columns (docs/execution.md, "Output-first terminate"):
  // form.terminating[i] is slot terminate_roots[i]. Built once per plan,
  // so a memo hit compiles nothing.
  SlotProgram terminate;
  std::vector<int> terminate_roots;

  // Approximate heap footprint, for the memo's accounting.
  int64_t ApproxBytes() const;
};

// A fully rewritten query: the shape's plan plus the statement's own data
// signature (tables, WHERE conjuncts, grouping).
struct RewrittenQuery {
  std::shared_ptr<const RewritePlan> plan;
  std::string data_signature;

  const CanonicalForm& form() const { return plan->form; }
  const std::vector<ItemPlan>& items() const { return plan->items; }
  const std::vector<ClassifiedState>& classified(bool share) const {
    return share ? plan->shared : plan->direct;
  }

  // RQ1-style rendering: the inner built-in-aggregate query and the outer
  // terminating select list.
  std::string Explain(const SelectStatement& stmt) const;
};

// Rewrites `stmt`: expands registered UDAFs in the select list, factors out
// aggregation states (splitting rules included), deduplicates them across
// items, produces terminating plans and classifies every state
// (ClassifyForPlan) for both execution modes.
Result<RewrittenQuery> RewriteQuery(const SelectStatement& stmt,
                                    const UdafLibrary& library);

// Rewrite plans memoized by statement shape (docs/execution.md, "Rewrite
// memo"). The key is the library's stamp, each select item's exact
// expression text and alias, and the GROUP BY list: everything
// RewriteQuery reads besides the data signature, which every lookup
// computes afresh. Holds at most kCapacity plans and evicts the least
// recently used. Thread-safe.
class RewriteMemo {
 public:
  static constexpr size_t kCapacity = 256;

  // RewriteQuery(stmt, library), with the plan served from the memo when
  // the statement's shape is there (`*hit` set true). A failed rewrite is
  // returned and not memoized.
  Result<RewrittenQuery> Rewrite(const SelectStatement& stmt,
                                 const UdafLibrary& library, bool* hit);

  size_t entries() const;
  // Σ of the memoized plans' ApproxBytes plus their keys.
  int64_t ApproxBytes() const;

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const RewritePlan> plan;
    int64_t bytes = 0;
  };
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // most recently used first
  // Keys view the entries' own key strings (list nodes never move).
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  int64_t bytes_ = 0;
};

// --- Output-first tail (docs/execution.md, "Output-first terminate") -----
//
// A rewritten query finishes in three steps, and only the first one sees
// every group: PlanOutputRows decides which groups the query returns, and
// in what order, from the group keys alone; ServeState applies the sharing
// function for just those groups; AssembleRewrittenResult terminates them
// through the plan's compiled program.

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
// ServeState left it. The plan's terminate program runs over them in
// kVector-row blocks, and each item's block is appended to its column in
// bulk; a native item calls its terminating function once per row on its
// state terms' slots. Unless `rows.presorted`, the table then goes through
// SortAndLimit for HAVING, ORDER BY and LIMIT. `metrics`, when non-null,
// counts the program's evaluated and shared slots
// (sudaf.terminate.{slots,shared_slots}).
Result<std::unique_ptr<Table>> AssembleRewrittenResult(
    const RewrittenQuery& rewritten, const SelectStatement& stmt,
    const Table& group_keys, const OutputRows& rows,
    const std::vector<std::vector<double>>& state_columns,
    MetricsRegistry* metrics = nullptr);

}  // namespace sudaf

#endif  // SUDAF_SUDAF_REWRITER_H_
