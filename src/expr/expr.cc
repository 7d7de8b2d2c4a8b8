#include "expr/expr.h"

#include <algorithm>
#include <cctype>

namespace sudaf {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kPow:
      return "^";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "and";
    case BinaryOp::kOr:
      return "or";
  }
  return "?";
}

const char* AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kSum:
      return "sum";
    case AggOp::kProd:
      return "prod";
    case AggOp::kCount:
      return "count";
    case AggOp::kMin:
      return "min";
    case AggOp::kMax:
      return "max";
  }
  return "?";
}

ExprPtr Expr::Literal(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::Number(double v) { return Literal(Value(v)); }

ExprPtr Expr::Column(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->column = std::move(name);
  return e;
}

ExprPtr Expr::Unary(ExprPtr child) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnaryMinus;
  e->args.push_back(std::move(child));
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->bin_op = op;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::Func(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFuncCall;
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  e->func_name = std::move(name);
  e->args = std::move(args);
  return e;
}

ExprPtr Expr::Agg(AggOp op, ExprPtr arg) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAggCall;
  e->agg_op = op;
  if (arg != nullptr) e->args.push_back(std::move(arg));
  return e;
}

ExprPtr Expr::StateRef(int index) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStateRef;
  e->state_index = index;
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->column = column;
  e->bin_op = bin_op;
  e->func_name = func_name;
  e->agg_op = agg_op;
  e->state_index = state_index;
  e->args.reserve(args.size());
  for (const auto& a : args) e->args.push_back(a->Clone());
  return e;
}

bool Expr::Equals(const Expr& other) const {
  if (kind != other.kind || args.size() != other.args.size()) return false;
  switch (kind) {
    case ExprKind::kLiteral:
      if (!literal.Equals(other.literal)) return false;
      break;
    case ExprKind::kColumnRef:
      if (column != other.column) return false;
      break;
    case ExprKind::kBinary:
      if (bin_op != other.bin_op) return false;
      break;
    case ExprKind::kFuncCall:
      if (func_name != other.func_name) return false;
      break;
    case ExprKind::kAggCall:
      if (agg_op != other.agg_op) return false;
      break;
    case ExprKind::kStateRef:
      if (state_index != other.state_index) return false;
      break;
    case ExprKind::kUnaryMinus:
      break;
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (!args[i]->Equals(*other.args[i])) return false;
  }
  return true;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      // Exact: statement text keys the cache and the rewrite memo.
      return literal.type() == DataType::kFloat64
                 ? FormatExactDouble(literal.float64())
                 : literal.ToString();
    case ExprKind::kColumnRef:
      return column;
    case ExprKind::kUnaryMinus:
      return "(-" + args[0]->ToString() + ")";
    case ExprKind::kBinary:
      return "(" + args[0]->ToString() + " " + BinaryOpName(bin_op) + " " +
             args[1]->ToString() + ")";
    case ExprKind::kFuncCall: {
      std::string out = func_name + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kAggCall: {
      std::string out = AggOpName(agg_op);
      out += "(";
      if (!args.empty()) out += args[0]->ToString();
      return out + ")";
    }
    case ExprKind::kStateRef:
      return "s" + std::to_string(state_index + 1);
  }
  return "?";
}

void Expr::CollectColumns(std::vector<std::string>* out) const {
  if (kind == ExprKind::kColumnRef) out->push_back(column);
  for (const auto& a : args) a->CollectColumns(out);
}

void Expr::CollectAggCalls(std::vector<const Expr*>* out) const {
  if (kind == ExprKind::kAggCall) out->push_back(this);
  for (const auto& a : args) a->CollectAggCalls(out);
}

void Expr::CollectConjuncts(std::vector<const Expr*>* out) const {
  if (kind == ExprKind::kBinary && bin_op == BinaryOp::kAnd) {
    args[0]->CollectConjuncts(out);
    args[1]->CollectConjuncts(out);
    return;
  }
  out->push_back(this);
}

ExprPtr Expr::AndAll(ExprPtr where,
                     const std::vector<const Expr*>& conjuncts) {
  for (const Expr* conj : conjuncts) {
    where = where == nullptr ? conj->Clone()
                             : Binary(BinaryOp::kAnd, std::move(where),
                                      conj->Clone());
  }
  return where;
}

bool Expr::ContainsAggregate() const {
  if (kind == ExprKind::kAggCall || kind == ExprKind::kStateRef) return true;
  for (const auto& a : args) {
    if (a->ContainsAggregate()) return true;
  }
  return false;
}

bool Expr::ContainsFunc(const std::string& name) const {
  if (kind == ExprKind::kFuncCall && func_name == name) return true;
  for (const auto& a : args) {
    if (a->ContainsFunc(name)) return true;
  }
  return false;
}

ExprPtr ExpandFunctionCalls(const Expr& expr, const std::string& name,
                            const std::vector<std::string>& params,
                            const Expr& body) {
  if (expr.kind == ExprKind::kFuncCall && expr.func_name == name &&
      expr.args.size() == params.size()) {
    // Expand arguments first (supports nested calls), then substitute.
    std::vector<ExprPtr> expanded_args;
    expanded_args.reserve(expr.args.size());
    for (const auto& a : expr.args) {
      expanded_args.push_back(ExpandFunctionCalls(*a, name, params, body));
    }
    std::vector<std::pair<std::string, const Expr*>> bindings;
    for (size_t i = 0; i < params.size(); ++i) {
      bindings.emplace_back(params[i], expanded_args[i].get());
    }
    return SubstituteColumns(body, bindings);
  }
  ExprPtr copy = expr.Clone();
  for (size_t i = 0; i < expr.args.size(); ++i) {
    copy->args[i] = ExpandFunctionCalls(*expr.args[i], name, params, body);
  }
  return copy;
}

ExprPtr SubstituteColumns(
    const Expr& expr,
    const std::vector<std::pair<std::string, const Expr*>>& bindings) {
  if (expr.kind == ExprKind::kColumnRef) {
    for (const auto& [name, replacement] : bindings) {
      if (expr.column == name) return replacement->Clone();
    }
    return expr.Clone();
  }
  ExprPtr copy = expr.Clone();
  for (size_t i = 0; i < expr.args.size(); ++i) {
    copy->args[i] = SubstituteColumns(*expr.args[i], bindings);
  }
  return copy;
}

}  // namespace sudaf
