#include "sudaf/shared_scan.h"

#include <set>
#include <utility>

namespace sudaf {

std::vector<SharedStatePlan::Slot> SharedStatePlan::AddQuery(
    const std::vector<AggStateDef>& states, bool share) {
  const int query = num_queries_++;
  std::vector<Slot> slots(states.size());
  std::set<std::string> seen_this_query;
  for (size_t i = 0; i < states.size(); ++i) {
    Slot& slot = slots[i];
    Rep rep;
    if (share) {
      rep.cls = ClassifyState(states[i]);
      std::optional<SharedComputation> fn = Share(states[i], rep.cls.rep);
      if (!fn.has_value()) {
        // The classification was coarser than the theorem allows for this
        // instance, so the state becomes its own (trivially shareable)
        // representative.
        rep.cls.key = "self|" + states[i].Key();
        rep.cls.rep = states[i].Clone();
        rep.cls.log_domain = false;
        fn = SharedComputation{};
      }
      rep.key = rep.cls.key;
      slot.share_fn = *fn;
    } else {
      rep.direct = true;
      rep.key = "direct|" + states[i].Key();
      rep.cls.key = rep.key;
      rep.cls.rep = states[i].Clone();
      rep.cls.log_domain = false;
      slot.share_fn = SharedComputation{};
    }
    if (seen_this_query.insert(rep.key).second) ++states_requested_;
    auto [it, inserted] =
        by_key_.emplace(rep.key, static_cast<int>(reps_.size()));
    if (inserted) {
      rep.first_query = query;
      reps_.push_back(std::move(rep));
    }
    slot.rep = it->second;
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
    out.main_idx[r] = static_cast<int>(out.requests.size());
    if (rep.direct) {
      if (rep.cls.rep.op == AggOp::kCount) {
        out.requests.push_back({AggOp::kCount, nullptr});
      } else {
        out.requests.push_back({rep.cls.rep.op, rep.cls.rep.input.get()});
      }
      continue;
    }
    ExprPtr main_expr = rep.cls.MainInputExpr();
    if (main_expr == nullptr) {
      out.requests.push_back({AggOp::kCount, nullptr});
    } else {
      out.requests.push_back({rep.cls.MainOp(), main_expr.get()});
      out.keepalive.push_back(std::move(main_expr));
    }
    if (rep.cls.log_domain) {
      ExprPtr sign_expr = rep.cls.SignInputExpr();
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
