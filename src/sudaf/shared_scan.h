#ifndef SUDAF_SUDAF_SHARED_SCAN_H_
#define SUDAF_SUDAF_SHARED_SCAN_H_

// Cross-query state deduplication for shared-scan batching.
//
// The rewriter factors each query into aggregation states and resolves
// each, once per rewrite plan, to its equivalence-class representative
// (Theorem 4.1, ClassifyForPlan). A SharedStatePlan extends that mapping
// *across queries*: the rewritten states of several queries over the same
// data signature are folded into one union list of distinct
// representatives, and each (query, state) pair resolves to a slot in that
// list plus the SharedComputation that reconstructs the state's value from
// the representative's channels. A variance query and a kurtosis query added
// together therefore request count / sum(x) / sum(x^2) exactly once — the
// union state DAG a shared-scan batch executes in a single fused pass.
//
// The plan is a pure bookkeeping structure (no execution): the session's
// query-group executor (a solo query is a group of one) walks reps() to
// probe the cache, schedules the missing ones through
// BuildBatchRequests(), and serves every query from the per-rep results
// via its slots. The chunked executor and view materialization plan and
// schedule through the same two calls.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "engine/state_batch.h"
#include "sudaf/canonical.h"
#include "sudaf/sharing.h"

namespace sudaf {

// One state's resolution to the representative that is computed and cached
// for it. It depends on the state alone, so a rewrite plan computes it once
// per state (RewritePlan::shared / direct) and every query of that shape
// reuses it.
struct ClassifiedState {
  // cls.key is the cache key. Share mode: the class whose representative
  // cls.rep is computed and cached. No-share mode: only the key,
  // "direct|<state key>"; the state itself is computed verbatim.
  StateClass cls;
  // Reconstructs the state from cls.rep's channels: Share(state, cls.rep).
  // The identity when direct.
  SharedComputation share_fn;
  bool direct = false;
};

// In share mode, the state's class representative (Theorem 4.1), or the
// state as its own self-class representative when Share() declines the
// class representative; in no-share mode, the state as a direct rep.
ClassifiedState ClassifyForPlan(const AggStateDef& state, bool share);

class SharedStatePlan {
 public:
  // One distinct representative across every query added so far.
  struct Rep {
    const StateClass* cls = nullptr;  // borrowed; only the key when direct
    // The first state that requested it (borrowed): direct reps compute
    // it verbatim (op + input), skipping the class channel machinery.
    const AggStateDef* state = nullptr;
    bool direct = false;
    const std::string& key() const { return cls->key; }
  };

  // Resolution of one (query, state) pair.
  struct Slot {
    int rep = -1;
    SharedComputation share_fn;  // Share(state, reps[rep].cls->rep)
  };

  // Registers one query's states with their classifications (share or
  // no-share mode alike, see ClassifyForPlan; `classified[i]` resolves
  // `states[i]`); returns one Slot per state. Both must outlive the plan:
  // reps borrow from them.
  std::vector<Slot> AddQuery(const std::vector<AggStateDef>& states,
                             const std::vector<ClassifiedState>& classified);

  const std::vector<Rep>& reps() const { return reps_; }

  // Σ over queries of their per-query distinct representatives. (Duplicate
  // states *within* one query don't count — solo execution dedups those
  // already; this is the work solo runs would have repeated.)
  int64_t states_requested() const { return states_requested_; }
  // states_requested() - reps().size(): representatives shared by at least
  // two queries in the batch, counted once per extra requesting query.
  int64_t states_deduped() const {
    return states_requested_ - static_cast<int64_t>(reps_.size());
  }

 private:
  std::vector<Rep> reps_;
  std::map<std::string_view, int> by_key_;  // views of the reps' keys
  int64_t states_requested_ = 0;
};

// The fused-pass schedule for the subset of representatives with
// need[r] == true (typically: not served by the cache).
struct BatchRequestPlan {
  std::vector<StateBatchRequest> requests;
  // Owns the input expressions the requests borrow; must stay alive until
  // ComputeStateBatch returns.
  std::vector<ExprPtr> keepalive;
  // Per rep index: positions of its main / sign channels in `requests`
  // (-1 when the rep was not scheduled, or has no sign channel).
  std::vector<int> main_idx;
  std::vector<int> sign_idx;
};

// Builds the channel requests for every needed representative: count reps
// get a null-input kCount channel, class reps get (MainOp, MainInputExpr)
// plus a Π sgn side channel for log-domain classes, and direct reps get
// (op, input) verbatim.
BatchRequestPlan BuildBatchRequests(const SharedStatePlan& plan,
                                    const std::vector<bool>& need);

// The input columns a fused pass over `rq` reads (with duplicates).
std::vector<std::string> RequestColumns(const BatchRequestPlan& rq);

}  // namespace sudaf

#endif  // SUDAF_SUDAF_SHARED_SCAN_H_
