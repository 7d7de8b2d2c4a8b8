#include "sudaf/shared_scan.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace sudaf {

ClassifiedState ClassifyForPlan(const AggStateDef& state, bool share) {
  ClassifiedState out;
  if (!share) {
    out.direct = true;
    out.cls.key = "direct|" + state.Key();
    return out;
  }
  out.cls = ClassifyState(state);
  std::optional<SharedComputation> fn = Share(state, out.cls.rep);
  if (!fn.has_value()) {
    // The classification was coarser than the theorem allows for this
    // instance, so the state becomes its own (trivially shareable)
    // representative.
    out.cls.key = "self|" + state.Key();
    out.cls.rep = state.Clone();
    out.cls.log_domain = false;
    fn = SharedComputation{};
  }
  out.share_fn = *fn;
  return out;
}

std::vector<SharedStatePlan::Slot> SharedStatePlan::AddQuery(
    const std::vector<AggStateDef>& states,
    const std::vector<ClassifiedState>& classified) {
  std::vector<Slot> slots(states.size());
  std::vector<int> this_query;  // distinct reps this query requested
  for (size_t i = 0; i < states.size(); ++i) {
    const ClassifiedState& state = classified[i];
    auto [it, inserted] = by_key_.try_emplace(
        state.cls.key, static_cast<int>(reps_.size()));
    if (inserted) {
      reps_.push_back(Rep{&state.cls, &states[i], state.direct});
    }
    const int rep = it->second;
    if (std::find(this_query.begin(), this_query.end(), rep) ==
        this_query.end()) {
      this_query.push_back(rep);
      ++states_requested_;
    }
    slots[i] = Slot{rep, state.share_fn};
  }
  return slots;
}

BatchRequestPlan BuildBatchRequests(const SharedStatePlan& plan,
                                    const std::vector<bool>& need) {
  BatchRequestPlan out;
  const std::vector<SharedStatePlan::Rep>& reps = plan.reps();
  out.main_idx.assign(reps.size(), -1);
  out.sign_idx.assign(reps.size(), -1);
  for (size_t r = 0; r < reps.size(); ++r) {
    if (r >= need.size() || !need[r]) continue;
    const SharedStatePlan::Rep& rep = reps[r];
    const StateClass& cls = *rep.cls;
    out.main_idx[r] = static_cast<int>(out.requests.size());
    if (rep.direct) {
      if (rep.state->op == AggOp::kCount) {
        out.requests.push_back({AggOp::kCount, nullptr});
      } else {
        out.requests.push_back({rep.state->op, rep.state->input.get()});
      }
      continue;
    }
    ExprPtr main_expr = cls.MainInputExpr();
    if (main_expr == nullptr) {
      out.requests.push_back({AggOp::kCount, nullptr});
    } else {
      out.requests.push_back({cls.MainOp(), main_expr.get()});
      out.keepalive.push_back(std::move(main_expr));
    }
    if (cls.log_domain) {
      ExprPtr sign_expr = cls.SignInputExpr();
      out.sign_idx[r] = static_cast<int>(out.requests.size());
      out.requests.push_back({AggOp::kProd, sign_expr.get()});
      out.keepalive.push_back(std::move(sign_expr));
    }
  }
  return out;
}

std::vector<std::string> RequestColumns(const BatchRequestPlan& rq) {
  std::vector<std::string> columns;
  for (const StateBatchRequest& r : rq.requests) {
    if (r.input != nullptr) r.input->CollectColumns(&columns);
  }
  return columns;
}

}  // namespace sudaf
