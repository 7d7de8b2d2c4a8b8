#include "expr/evaluator.h"

#include <cmath>
#include <limits>

namespace sudaf {

namespace {

// Resolved scalar-function bodies. Arity is validated by ResolveScalarFunc;
// these assume `a` points at the right number of doubles.
double FnSqrt(const double* a) { return std::sqrt(a[0]); }
double FnLn(const double* a) { return std::log(a[0]); }
double FnLog2(const double* a) { return std::log(a[1]) / std::log(a[0]); }
double FnExp(const double* a) { return std::exp(a[0]); }
double FnAbs(const double* a) { return std::fabs(a[0]); }
double FnSgn(const double* a) {
  return a[0] > 0 ? 1.0 : (a[0] < 0 ? -1.0 : 0.0);
}
double FnPow(const double* a) { return std::pow(a[0], a[1]); }
double FnNullif(const double* a) {
  if (a[0] == a[1]) return std::numeric_limits<double>::quiet_NaN();
  return a[0];
}
double FnNot(const double* a) { return a[0] == 0.0 ? 1.0 : 0.0; }

}  // namespace

double ApplyBinaryOp(BinaryOp op, double a, double b) {
  switch (op) {
    case BinaryOp::kAdd:
      return a + b;
    case BinaryOp::kSub:
      return a - b;
    case BinaryOp::kMul:
      return a * b;
    case BinaryOp::kDiv:
      return a / b;  // IEEE semantics; NaN/inf propagate like SQL NULL here.
    case BinaryOp::kPow:
      return std::pow(a, b);
    case BinaryOp::kEq:
      return a == b ? 1.0 : 0.0;
    case BinaryOp::kNe:
      return a != b ? 1.0 : 0.0;
    case BinaryOp::kLt:
      return a < b ? 1.0 : 0.0;
    case BinaryOp::kLe:
      return a <= b ? 1.0 : 0.0;
    case BinaryOp::kGt:
      return a > b ? 1.0 : 0.0;
    case BinaryOp::kGe:
      return a >= b ? 1.0 : 0.0;
    case BinaryOp::kAnd:
      return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
    case BinaryOp::kOr:
      return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
  }
  return std::numeric_limits<double>::quiet_NaN();  // the switch is exhaustive
}

Result<ScalarFn> ResolveScalarFunc(const std::string& name, int arity) {
  struct Entry {
    const char* name;
    int arity;
    ScalarFn fn;
  };
  static const Entry kTable[] = {
      {"sqrt", 1, FnSqrt},    {"ln", 1, FnLn},      {"log", 1, FnLn},
      {"log", 2, FnLog2},     {"exp", 1, FnExp},    {"abs", 1, FnAbs},
      {"sgn", 1, FnSgn},      {"pow", 2, FnPow},    {"power", 2, FnPow},
      {"nullif", 2, FnNullif}, {"not", 1, FnNot},
  };
  int expected = -1;
  for (const Entry& e : kTable) {
    if (name != e.name) continue;
    if (arity == e.arity) return e.fn;
    expected = e.arity;
  }
  if (expected >= 0) {
    return Status::TypeError(name + "() expects " + std::to_string(expected) +
                             " argument(s), got " + std::to_string(arity));
  }
  return Status::TypeError("unknown scalar function: " + name);
}

Result<double> ApplyScalarFunc(const std::string& name,
                               const std::vector<double>& args) {
  SUDAF_ASSIGN_OR_RETURN(
      ScalarFn fn, ResolveScalarFunc(name, static_cast<int>(args.size())));
  return fn(args.data());
}

bool IsKnownScalarFunc(const std::string& name) {
  static const char* kNames[] = {"sqrt", "ln",  "log",   "exp",    "abs",
                                 "sgn",  "pow", "power", "nullif", "not"};
  for (const char* n : kNames) {
    if (name == n) return true;
  }
  return false;
}

namespace {

bool IsLiteralOnly(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal.is_numeric();
    case ExprKind::kUnaryMinus:
    case ExprKind::kBinary:
    case ExprKind::kFuncCall:
      for (const ExprPtr& a : e.args) {
        if (!IsLiteralOnly(*a)) return false;
      }
      return true;
    default:
      return false;
  }
}

// The exponent c of `e` when `e` is a power (`^`, pow, power) whose
// exponent folds to a constant: every evaluator computes it as
// EvalPow(base, c).
bool ConstantPow(const Expr& e, double* c) {
  const bool pow =
      (e.kind == ExprKind::kBinary && e.bin_op == BinaryOp::kPow) ||
      (e.kind == ExprKind::kFuncCall &&
       (e.func_name == "pow" || e.func_name == "power") &&
       e.args.size() == 2);
  return pow && FoldConstant(*e.args[1], c);
}

}  // namespace

Result<Value> EvalRow(const Expr& expr, const RowAccessor& accessor,
                      int64_t row) {
  double c;
  if (ConstantPow(expr, &c)) {
    SUDAF_ASSIGN_OR_RETURN(Value x, EvalRow(*expr.args[0], accessor, row));
    if (!x.is_numeric()) return Status::TypeError("power of a string");
    return Value(EvalPow(x.AsDouble(), c));
  }
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef:
      return accessor(expr.column, row);
    case ExprKind::kUnaryMinus: {
      SUDAF_ASSIGN_OR_RETURN(Value v, EvalRow(*expr.args[0], accessor, row));
      if (!v.is_numeric()) return Status::TypeError("unary minus on string");
      return Value(-v.AsDouble());
    }
    case ExprKind::kBinary: {
      SUDAF_ASSIGN_OR_RETURN(Value a, EvalRow(*expr.args[0], accessor, row));
      // Short-circuit logic operators.
      if (expr.bin_op == BinaryOp::kAnd || expr.bin_op == BinaryOp::kOr) {
        bool a_true = a.is_numeric() && a.AsDouble() != 0.0;
        if (expr.bin_op == BinaryOp::kAnd && !a_true) {
          return Value(int64_t{0});
        }
        if (expr.bin_op == BinaryOp::kOr && a_true) return Value(int64_t{1});
        SUDAF_ASSIGN_OR_RETURN(Value b, EvalRow(*expr.args[1], accessor, row));
        bool b_true = b.is_numeric() && b.AsDouble() != 0.0;
        return Value(int64_t{b_true ? 1 : 0});
      }
      SUDAF_ASSIGN_OR_RETURN(Value b, EvalRow(*expr.args[1], accessor, row));
      // String comparisons.
      if (a.type() == DataType::kString || b.type() == DataType::kString) {
        if (a.type() != DataType::kString || b.type() != DataType::kString) {
          return Status::TypeError("cannot compare string with number");
        }
        int cmp = a.string().compare(b.string());
        switch (expr.bin_op) {
          case BinaryOp::kEq:
            return Value(int64_t{cmp == 0});
          case BinaryOp::kNe:
            return Value(int64_t{cmp != 0});
          case BinaryOp::kLt:
            return Value(int64_t{cmp < 0});
          case BinaryOp::kLe:
            return Value(int64_t{cmp <= 0});
          case BinaryOp::kGt:
            return Value(int64_t{cmp > 0});
          case BinaryOp::kGe:
            return Value(int64_t{cmp >= 0});
          default:
            return Status::TypeError("arithmetic on strings");
        }
      }
      return Value(ApplyBinaryOp(expr.bin_op, a.AsDouble(), b.AsDouble()));
    }
    case ExprKind::kFuncCall: {
      std::vector<double> args;
      args.reserve(expr.args.size());
      for (const auto& a : expr.args) {
        SUDAF_ASSIGN_OR_RETURN(Value v, EvalRow(*a, accessor, row));
        if (!v.is_numeric()) {
          return Status::TypeError("string argument to " + expr.func_name);
        }
        args.push_back(v.AsDouble());
      }
      SUDAF_ASSIGN_OR_RETURN(double r, ApplyScalarFunc(expr.func_name, args));
      return Value(r);
    }
    case ExprKind::kAggCall:
      return Status::TypeError("aggregate call in row context: " +
                               expr.ToString());
    case ExprKind::kStateRef:
      return Status::TypeError("state reference in row context");
  }
  return Status::Internal("bad expr kind");
}

PowLowering LowerPow(double c) {
  PowLowering p;
  const double k = std::abs(c);
  if (c == 0.0) {
    p.kind = PowLowering::Kind::kOne;
    return p;
  }
  if (k == 0.5) {
    p.kind = PowLowering::Kind::kHalf;
  } else if (k == std::floor(k) && k <= 16.0) {
    p.kind = PowLowering::Kind::kChain;
    p.factors = static_cast<int>(k);
  } else {
    return p;  // NaN and ±inf land here too
  }
  p.recip = c < 0.0;
  return p;
}

double EvalPow(double x, double c) {
  const PowLowering p = LowerPow(c);
  double v = x;
  switch (p.kind) {
    case PowLowering::Kind::kPow:
      return std::pow(x, c);
    case PowLowering::Kind::kOne:
      return 1.0;
    case PowLowering::Kind::kHalf:
      v = PowHalf(x);
      break;
    case PowLowering::Kind::kChain:
      for (int i = 2; i <= p.factors; ++i) v = v * x;
      break;
  }
  return p.recip ? 1.0 / v : v;
}

bool FoldConstant(const Expr& e, double* v) {
  if (!IsLiteralOnly(e)) return false;
  Result<double> r = EvalTerminating(e, {});
  if (!r.ok()) return false;
  *v = *r;
  return true;
}

Result<double> EvalTerminating(const Expr& expr,
                               const std::vector<double>& states) {
  double c;
  if (ConstantPow(expr, &c)) {
    SUDAF_ASSIGN_OR_RETURN(double x, EvalTerminating(*expr.args[0], states));
    return EvalPow(x, c);
  }
  switch (expr.kind) {
    case ExprKind::kLiteral:
      if (!expr.literal.is_numeric()) {
        return Status::TypeError("string literal in terminating function");
      }
      return expr.literal.AsDouble();
    case ExprKind::kStateRef: {
      if (expr.state_index < 0 ||
          expr.state_index >= static_cast<int>(states.size())) {
        return Status::Internal("state index out of range");
      }
      return states[expr.state_index];
    }
    case ExprKind::kUnaryMinus: {
      SUDAF_ASSIGN_OR_RETURN(double v,
                             EvalTerminating(*expr.args[0], states));
      return -v;
    }
    case ExprKind::kBinary: {
      SUDAF_ASSIGN_OR_RETURN(double a, EvalTerminating(*expr.args[0], states));
      SUDAF_ASSIGN_OR_RETURN(double b, EvalTerminating(*expr.args[1], states));
      return ApplyBinaryOp(expr.bin_op, a, b);
    }
    case ExprKind::kFuncCall: {
      std::vector<double> args;
      args.reserve(expr.args.size());
      for (const auto& a : expr.args) {
        SUDAF_ASSIGN_OR_RETURN(double v, EvalTerminating(*a, states));
        args.push_back(v);
      }
      return ApplyScalarFunc(expr.func_name, args);
    }
    case ExprKind::kColumnRef:
      return Status::TypeError("column reference in terminating function: " +
                               expr.column);
    case ExprKind::kAggCall:
      return Status::TypeError("aggregate call in terminating function");
  }
  return Status::Internal("bad expr kind");
}

}  // namespace sudaf
