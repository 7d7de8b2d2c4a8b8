#include "sudaf/normalize.h"

#include <cmath>
#include <string>

#include "common/value.h"

namespace sudaf {

namespace {

bool NearInt(double x, double* out) {
  double r = std::round(x);
  if (std::fabs(x - r) < 1e-9) {
    *out = r;
    return true;
  }
  return false;
}

// Exact, since the text is part of state keys: 2.0000000001 must not key
// like 2. Integral exponents keep their integer text.
std::string FormatExponent(double e) {
  double r;
  if (NearInt(e, &r) && r == e) {
    return std::to_string(static_cast<long long>(r));
  }
  return FormatExactDouble(e);
}

struct Node {
  Monomial base;
  Shape shape;
  bool abs_applied = false;
};

// Folds a kPower shape's exponent into the monomial and renormalizes so the
// lexicographically-first column has exponent 1 (or the smallest magnitude
// that keeps the convention |e_first| scaled to 1, preserving its sign).
// This makes x², x·x, and sqrt(x)⁴ identical, and (x·y)² ≡ x²·y².
void Canonicalize(Node* node) {
  if (node->shape.family != ShapeFamily::kPower || node->base.IsEmpty()) {
    return;
  }
  // Fold p into exponents.
  std::map<std::string, double> folded;
  for (const auto& [col, e] : node->base.exponents) {
    double v = e * node->shape.p;
    if (v != 0.0) folded[col] = v;
  }
  if (folded.empty()) {
    node->base.exponents.clear();
    node->shape = Shape::Const(node->shape.a);
    return;
  }
  double k = folded.begin()->second;
  for (auto& [col, e] : folded) e /= k;
  node->base.exponents = std::move(folded);
  node->shape = Shape::Power(node->shape.a, k);
}

std::optional<Node> Normalize(const Expr& expr);

std::optional<Node> ComposeOnto(const Shape& outer, Node node) {
  // Non-power outer compositions need the canonical base first so that
  // ln(x²·y²) and ln((x·y)²) normalize identically.
  Canonicalize(&node);
  std::optional<Shape> composed = ComposeShapes(outer, node.shape);
  if (!composed.has_value()) return std::nullopt;
  node.shape = *composed;
  return node;
}

std::optional<Node> Normalize(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      if (!expr.literal.is_numeric()) return std::nullopt;
      return Node{Monomial{}, Shape::Const(expr.literal.AsDouble())};
    case ExprKind::kColumnRef: {
      if (expr.column == "*") return std::nullopt;
      Node node;
      node.base.exponents[expr.column] = 1.0;
      node.shape = Shape::Identity();
      return node;
    }
    case ExprKind::kUnaryMinus: {
      std::optional<Node> child = Normalize(*expr.args[0]);
      if (!child.has_value()) return std::nullopt;
      return ComposeOnto(Shape::Power(-1.0, 1.0), std::move(*child));
    }
    case ExprKind::kBinary: {
      switch (expr.bin_op) {
        case BinaryOp::kPow: {
          std::optional<Node> lhs = Normalize(*expr.args[0]);
          std::optional<Node> rhs = Normalize(*expr.args[1]);
          if (!lhs || !rhs) return std::nullopt;
          // Constant base: b^g(x) = e^(ln(b)·g(x)).
          if (lhs->base.IsEmpty() &&
              lhs->shape.family == ShapeFamily::kConst) {
            double b = lhs->shape.a;
            if (b <= 0.0 || b == 1.0) return std::nullopt;
            return ComposeOnto(Shape::Exp(1.0, std::log(b)),
                               std::move(*rhs));
          }
          if (!rhs->base.IsEmpty() ||
              rhs->shape.family != ShapeFamily::kConst) {
            return std::nullopt;
          }
          double k = rhs->shape.a;
          return ComposeOnto(Shape::Power(1.0, k), std::move(*lhs));
        }
        case BinaryOp::kMul:
        case BinaryOp::kDiv: {
          std::optional<Node> lhs = Normalize(*expr.args[0]);
          std::optional<Node> rhs = Normalize(*expr.args[1]);
          if (!lhs || !rhs) return std::nullopt;
          const bool div = expr.bin_op == BinaryOp::kDiv;
          // Constant factor: scales the other side.
          if (rhs->shape.family == ShapeFamily::kConst &&
              rhs->base.IsEmpty()) {
            double k = div ? 1.0 / rhs->shape.a : rhs->shape.a;
            return ComposeOnto(Shape::Power(k, 1.0), std::move(*lhs));
          }
          if (lhs->shape.family == ShapeFamily::kConst &&
              lhs->base.IsEmpty()) {
            if (!div) {
              return ComposeOnto(Shape::Power(lhs->shape.a, 1.0),
                                 std::move(*rhs));
            }
            // const / expr = const · expr^-1.
            std::optional<Node> inv =
                ComposeOnto(Shape::Power(1.0, -1.0), std::move(*rhs));
            if (!inv) return std::nullopt;
            return ComposeOnto(Shape::Power(lhs->shape.a, 1.0),
                               std::move(*inv));
          }
          // Monomial × monomial.
          if (lhs->shape.family != ShapeFamily::kPower ||
              rhs->shape.family != ShapeFamily::kPower) {
            return std::nullopt;
          }
          Node out;
          for (const auto& [col, e] : lhs->base.exponents) {
            out.base.exponents[col] += e * lhs->shape.p;
          }
          for (const auto& [col, e] : rhs->base.exponents) {
            out.base.exponents[col] +=
                (div ? -1.0 : 1.0) * e * rhs->shape.p;
          }
          for (auto it = out.base.exponents.begin();
               it != out.base.exponents.end();) {
            if (it->second == 0.0) {
              it = out.base.exponents.erase(it);
            } else {
              ++it;
            }
          }
          double a = div ? lhs->shape.a / rhs->shape.a
                         : lhs->shape.a * rhs->shape.a;
          if (out.base.IsEmpty()) {
            out.shape = Shape::Const(a);
          } else {
            out.shape = Shape::Power(a, 1.0);
          }
          out.abs_applied = lhs->abs_applied || rhs->abs_applied;
          return out;
        }
        case BinaryOp::kAdd:
        case BinaryOp::kSub: {
          // Only constant folding; non-constant sums are PS⊙ and are split
          // at the state level by the canonicalizer's splitting rules.
          std::optional<Node> lhs = Normalize(*expr.args[0]);
          std::optional<Node> rhs = Normalize(*expr.args[1]);
          if (lhs && rhs && lhs->base.IsEmpty() && rhs->base.IsEmpty() &&
              lhs->shape.family == ShapeFamily::kConst &&
              rhs->shape.family == ShapeFamily::kConst) {
            double v = expr.bin_op == BinaryOp::kAdd
                           ? lhs->shape.a + rhs->shape.a
                           : lhs->shape.a - rhs->shape.a;
            return Node{Monomial{}, Shape::Const(v)};
          }
          return std::nullopt;
        }
        default:
          return std::nullopt;
      }
    }
    case ExprKind::kFuncCall: {
      if (expr.args.size() == 2 && expr.func_name == "log") {
        // log(base, x)
        std::optional<Node> base = Normalize(*expr.args[0]);
        std::optional<Node> arg = Normalize(*expr.args[1]);
        if (!base || !arg || !base->base.IsEmpty() ||
            base->shape.family != ShapeFamily::kConst) {
          return std::nullopt;
        }
        double b = base->shape.a;
        if (b <= 0.0 || b == 1.0) return std::nullopt;
        return ComposeOnto(Shape::Log(1.0 / std::log(b), 0.0),
                           std::move(*arg));
      }
      if (expr.args.size() == 2 &&
          (expr.func_name == "pow" || expr.func_name == "power")) {
        std::optional<Node> lhs = Normalize(*expr.args[0]);
        std::optional<Node> rhs = Normalize(*expr.args[1]);
        if (!lhs || !rhs || !rhs->base.IsEmpty() ||
            rhs->shape.family != ShapeFamily::kConst) {
          return std::nullopt;
        }
        return ComposeOnto(Shape::Power(1.0, rhs->shape.a), std::move(*lhs));
      }
      if (expr.args.size() != 1) return std::nullopt;
      std::optional<Node> child = Normalize(*expr.args[0]);
      if (!child) return std::nullopt;
      if (expr.func_name == "ln" || expr.func_name == "log") {
        return ComposeOnto(Shape::Log(1.0, 0.0), std::move(*child));
      }
      if (expr.func_name == "exp") {
        return ComposeOnto(Shape::Exp(1.0, 1.0), std::move(*child));
      }
      if (expr.func_name == "sqrt") {
        return ComposeOnto(Shape::Power(1.0, 0.5), std::move(*child));
      }
      if (expr.func_name == "abs") {
        // |f|: identical to f on the positive domain; mark the node so the
        // state is classified as even (shares via the |x| reduction).
        child->abs_applied = true;
        return child;
      }
      return std::nullopt;
    }
    case ExprKind::kAggCall:
    case ExprKind::kStateRef:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

std::string Monomial::Key() const {
  if (exponents.empty()) return "";
  std::string out;
  for (const auto& [col, e] : exponents) {
    if (!out.empty()) out += "*";
    out += col;
    if (e != 1.0) out += "^" + FormatExponent(e);
  }
  return out;
}

ExprPtr Monomial::ToExpr() const {
  SUDAF_CHECK(!exponents.empty());
  ExprPtr acc;
  for (const auto& [col, e] : exponents) {
    ExprPtr factor = Expr::Column(col);
    if (e != 1.0) {
      factor = Expr::Binary(BinaryOp::kPow, std::move(factor),
                            Expr::Number(e));
    }
    acc = acc == nullptr
              ? std::move(factor)
              : Expr::Binary(BinaryOp::kMul, std::move(acc),
                             std::move(factor));
  }
  return acc;
}

int Monomial::NegationSign() const {
  double total = 0.0;
  for (const auto& [col, e] : exponents) {
    double r;
    if (!NearInt(e, &r)) return 0;
    total += r;
  }
  return std::fabs(std::fmod(total, 2.0)) < 0.5 ? 1 : -1;
}

std::string NormalizedScalar::ToString() const {
  std::string shape_str = shape.ToString();
  std::string base_str = base.IsEmpty() ? "" : base.Key();
  // Substitute the base for "x" in the shape rendering.
  std::string out;
  for (char ch : shape_str) {
    if (ch == 'x' && !base_str.empty()) {
      out += base_str.size() == 1 ? base_str : "(" + base_str + ")";
    } else {
      out += ch;
    }
  }
  return out;
}

std::optional<NormalizedScalar> NormalizeScalar(const Expr& expr) {
  std::optional<Node> node = Normalize(expr);
  if (!node.has_value()) return std::nullopt;
  Canonicalize(&*node);

  NormalizedScalar out;
  out.base = std::move(node->base);
  out.shape = node->shape;

  if (out.shape.family == ShapeFamily::kConst) {
    out.even = true;
    out.injective = false;
    return out;
  }

  // Evenness / injectivity of f under input negation.
  int sigma = out.base.NegationSign();
  bool shape_even = false;
  if (out.shape.family == ShapeFamily::kPower) {
    double r;
    if (NearInt(out.shape.p, &r) && std::fabs(std::fmod(r, 2.0)) < 0.5) {
      shape_even = true;
    }
  }
  if (node->abs_applied) {
    out.even = true;
    out.injective = false;
  } else if (sigma == 1 || sigma == -1) {
    // With canonical exponents a single-column base always has σ = -1
    // (exponent 1); multi-column bases use the same criterion under joint
    // input negation. The flags only steer the Table 3 case split — value
    // computation never depends on them.
    out.even = shape_even;
    out.injective = !shape_even;
  } else {
    // Fractional exponents: defined on the positive domain only.
    out.even = false;
    out.injective = true;
  }
  return out;
}

}  // namespace sudaf
