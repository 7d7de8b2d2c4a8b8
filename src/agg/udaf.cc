#include "agg/udaf.h"

#include <algorithm>
#include <string>

#include "agg/builtin_kernels.h"
#include "expr/evaluator.h"
#include "expr/expr.h"

namespace sudaf {

namespace {

// One state of a derived UDAF and its update statement: s ⊕ f(row), with
// s read by name like a PL/pgSQL variable. min and max have no ⊕ operator
// in the expression language, so theirs is f alone, folded in by AggMerge.
struct DerivedState {
  AggOp op;
  ExprPtr update;
};

std::string StateName(size_t index) { return "$" + std::to_string(index); }

ExprPtr UpdateStatement(AggOp op, size_t index, ExprPtr f) {
  ExprPtr s = Expr::Column(StateName(index));
  switch (op) {
    case AggOp::kSum:
      return Expr::Binary(BinaryOp::kAdd, std::move(s), std::move(f));
    case AggOp::kCount:
      return Expr::Binary(BinaryOp::kAdd, std::move(s), Expr::Number(1));
    case AggOp::kProd:
      return Expr::Binary(BinaryOp::kMul, std::move(s), std::move(f));
    case AggOp::kMin:
    case AggOp::kMax:
      break;
  }
  return f;
}

class DerivedUdaf : public Udaf {
 public:
  DerivedUdaf(std::string name, std::vector<std::string> params,
              std::vector<DerivedState> states, ExprPtr evaluate)
      : name_(std::move(name)),
        params_(std::move(params)),
        states_(std::move(states)),
        evaluate_(std::move(evaluate)) {
    for (size_t i = 0; i < states_.size(); ++i) {
      state_names_.push_back(StateName(i));
    }
  }

  std::string name() const override { return name_; }
  int num_args() const override { return static_cast<int>(params_.size()); }

  std::vector<Value> Initialize() const override {
    std::vector<Value> state;
    state.reserve(states_.size());
    for (const DerivedState& s : states_) state.emplace_back(AggIdentity(s.op));
    return state;
  }

  void Update(std::vector<Value>* state,
              const std::vector<Value>& args) const override {
    // One interpreted statement per state and row over boxed values — the
    // PL/pgSQL execution shape this class models. Each statement reads only
    // its own state, so updating in place is simultaneous.
    RowAccessor env = [this, state, &args](const std::string& name,
                                           int64_t) -> Result<Value> {
      for (size_t a = 0; a < params_.size(); ++a) {
        if (params_[a] == name) return args[a];
      }
      for (size_t i = 0; i < state_names_.size(); ++i) {
        if (state_names_[i] == name) return (*state)[i];
      }
      return Status::NotFound("unbound variable " + name);
    };
    for (size_t i = 0; i < states_.size(); ++i) {
      Result<Value> v = EvalRow(*states_[i].update, env, 0);
      SUDAF_CHECK_MSG(v.ok(), v.status().ToString());
      const AggOp op = states_[i].op;
      (*state)[i] = op == AggOp::kMin || op == AggOp::kMax
                        ? Value(AggMerge(op, (*state)[i].AsDouble(),
                                         v->AsDouble()))
                        : std::move(*v);
    }
  }

  void Merge(std::vector<Value>* state,
             const std::vector<Value>& other) const override {
    std::vector<Value> merged;
    merged.reserve(states_.size());
    for (size_t i = 0; i < states_.size(); ++i) {
      merged.emplace_back(AggMerge(states_[i].op, (*state)[i].AsDouble(),
                                   other[i].AsDouble()));
    }
    *state = std::move(merged);
  }

  Result<Value> Evaluate(const std::vector<Value>& state) const override {
    std::vector<double> values;
    values.reserve(state.size());
    for (const Value& v : state) values.push_back(v.AsDouble());
    SUDAF_ASSIGN_OR_RETURN(double result, EvalTerminating(*evaluate_, values));
    return Value(result);
  }

 private:
  std::string name_;
  std::vector<std::string> params_;
  std::vector<DerivedState> states_;
  std::vector<std::string> state_names_;
  ExprPtr evaluate_;
};

// Checks the nodes that must evaluate over numbers: numeric literals and
// known scalar functions.
Status CheckScalarNode(const Expr& e) {
  if (e.kind == ExprKind::kLiteral && !e.literal.is_numeric()) {
    return Status::InvalidArgument("string literal in a UDAF body: " +
                                   e.ToString());
  }
  if (e.kind == ExprKind::kFuncCall) {
    return ResolveScalarFunc(e.func_name, static_cast<int>(e.args.size()))
        .status();
  }
  return Status::OK();
}

// Checks that an aggregate's input f evaluates row by row over `params`.
Status CheckRowInput(const Expr& e, const std::vector<std::string>& params) {
  if (e.kind == ExprKind::kAggCall || e.kind == ExprKind::kStateRef) {
    return Status::InvalidArgument("nested aggregate: " + e.ToString());
  }
  if (e.kind == ExprKind::kColumnRef &&
      std::find(params.begin(), params.end(), e.column) == params.end()) {
    return Status::InvalidArgument("column " + e.column +
                                   " is not a UDAF argument");
  }
  SUDAF_RETURN_IF_ERROR(CheckScalarNode(e));
  for (const ExprPtr& a : e.args) {
    SUDAF_RETURN_IF_ERROR(CheckRowInput(*a, params));
  }
  return Status::OK();
}

// Replaces each aggregate call under `*node` by a reference to its state,
// adding a state per distinct call text.
Status ReplaceCallsByStates(ExprPtr* node,
                            const std::vector<std::string>& params,
                            std::vector<std::string>* keys,
                            std::vector<DerivedState>* states) {
  Expr& e = **node;
  switch (e.kind) {
    case ExprKind::kAggCall: {
      const std::string key = e.ToString();
      auto it = std::find(keys->begin(), keys->end(), key);
      const int index = static_cast<int>(it - keys->begin());
      if (it == keys->end()) {
        ExprPtr input;
        if (e.agg_op != AggOp::kCount) {
          SUDAF_RETURN_IF_ERROR(CheckRowInput(*e.args[0], params));
          input = std::move(e.args[0]);
        }
        keys->push_back(key);
        states->push_back(DerivedState{
            e.agg_op, UpdateStatement(e.agg_op, index, std::move(input))});
      }
      *node = Expr::StateRef(index);
      return Status::OK();
    }
    case ExprKind::kColumnRef:
      return Status::InvalidArgument("column " + e.column +
                                     " outside an aggregate call");
    case ExprKind::kStateRef:
      return Status::InvalidArgument("state reference in a UDAF body");
    default:
      break;
  }
  SUDAF_RETURN_IF_ERROR(CheckScalarNode(e));
  for (ExprPtr& a : e.args) {
    SUDAF_RETURN_IF_ERROR(ReplaceCallsByStates(&a, params, keys, states));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Udaf>> DeriveUdaf(std::string name,
                                         std::vector<std::string> params,
                                         const Expr& body) {
  ExprPtr evaluate = body.Clone();
  std::vector<std::string> keys;
  std::vector<DerivedState> states;
  SUDAF_RETURN_IF_ERROR(
      ReplaceCallsByStates(&evaluate, params, &keys, &states));
  if (states.empty()) {
    return Status::InvalidArgument("UDAF " + name +
                                   " contains no aggregate call");
  }
  return std::unique_ptr<Udaf>(new DerivedUdaf(
      std::move(name), std::move(params), std::move(states),
      std::move(evaluate)));
}

Status UdafRegistry::Register(std::unique_ptr<Udaf> udaf) {
  std::string name = udaf->name();
  if (udafs_.count(name) > 0) {
    return Status::AlreadyExists("UDAF already registered: " + name);
  }
  udafs_.emplace(std::move(name), std::move(udaf));
  return Status::OK();
}

bool UdafRegistry::Has(const std::string& name) const {
  return udafs_.count(name) > 0;
}

Result<const Udaf*> UdafRegistry::Get(const std::string& name) const {
  auto it = udafs_.find(name);
  if (it == udafs_.end()) return Status::NotFound("no UDAF named " + name);
  return it->second.get();
}

std::vector<std::string> UdafRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(udafs_.size());
  for (const auto& [name, _] : udafs_) names.push_back(name);
  return names;
}

}  // namespace sudaf
