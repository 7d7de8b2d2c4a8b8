#include "sudaf/sharing.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/value.h"

namespace sudaf {

namespace {

bool Near(double x, double y) {
  return std::fabs(x - y) <=
         1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
}

bool IsInt(double x, long long* out) {
  double r = std::round(x);
  if (std::fabs(x - r) < 1e-9) {
    *out = static_cast<long long>(r);
    return true;
  }
  return false;
}

bool IsOddInt(double x) {
  long long r;
  return IsInt(x, &r) && (r % 2 != 0);
}
bool IsEvenInt(double x) {
  long long r;
  return IsInt(x, &r) && (r % 2 == 0);
}

// Exact, since the text is part of class keys. Integral parameters keep
// their integer text.
std::string FormatParam(double v) {
  long long r;
  return IsInt(v, &r) && static_cast<double>(r) == v ? std::to_string(r)
                                                      : FormatExactDouble(v);
}

}  // namespace

double SharedComputation::Apply(double value) const {
  double v = abs_source ? std::fabs(value) : value;
  double out = r.Eval(v);
  if (sign_pow != 0) {
    double s = value > 0 ? 1.0 : (value < 0 ? -1.0 : 0.0);
    out *= sign_pow % 2 == 0 ? std::fabs(s) : s;
  }
  return out;
}

std::string SharedComputation::ToString() const {
  std::string inner = abs_source ? "|x|" : "x";
  std::string body = r.ToString();
  std::string out;
  for (char c : body) {
    if (c == 'x') {
      out += inner;
    } else {
      out += c;
    }
  }
  if (sign_pow != 0) out = "sgn(x)*" + out;
  return out;
}

std::optional<SharedComputation> Share(const AggStateDef& s1,
                                       const AggStateDef& s2) {
  // Identical states share trivially (covers count, min, max, opaque —
  // the paper's syntactic-comparison fallback, sufficient but not
  // necessary).
  if (s1.Key() == s2.Key()) return SharedComputation{};

  if (s1.op == AggOp::kCount || s2.op == AggOp::kCount ||
      s1.op == AggOp::kMin || s2.op == AggOp::kMin ||
      s1.op == AggOp::kMax || s2.op == AggOp::kMax) {
    return std::nullopt;  // not equal, and these share only with themselves
  }
  if (!s1.norm.has_value() || !s2.norm.has_value()) return std::nullopt;

  const NormalizedScalar& n1 = *s1.norm;
  const NormalizedScalar& n2 = *s2.norm;

  // States must aggregate the same abstract input column (monomial).
  if (n1.base.Key() != n2.base.Key()) return std::nullopt;

  // Case 1 of Theorem 4.1: an injective f1 cannot be recovered from a
  // non-injective f2 (information about signs was lost).
  if (n1.injective && !n2.injective) return std::nullopt;

  // Compute g = f1 ∘ f2⁻¹ symbolically (case 3 reduces even functions to
  // the positive domain, which is where the shape algebra lives).
  std::optional<Shape> inv = InverseShape(n2.shape);
  if (!inv.has_value()) return std::nullopt;
  std::optional<Shape> g = ComposeShapes(n1.shape, *inv);
  if (!g.has_value()) return std::nullopt;

  SharedComputation out;
  const bool s1_sum = s1.op == AggOp::kSum;
  const bool s2_sum = s2.op == AggOp::kSum;

  if (s1_sum && s2_sum) {
    // Case 2.1: g must be a·x.
    if (g->family == ShapeFamily::kPower && Near(g->p, 1.0)) {
      out.r = *g;
      return out;
    }
    return std::nullopt;
  }
  if (s1_sum && !s2_sum) {
    // Case 2.2: g must be a·log_b|x| (no offset — an offset would scale
    // with the multiset size).
    if (g->family == ShapeFamily::kLog && Near(g->b, 0.0)) {
      out.r = *g;
      out.abs_source = true;
      return out;
    }
    return std::nullopt;
  }
  if (!s1_sum && s2_sum) {
    // Case 2.3: g must be b^(a·x), i.e. e^(c·x) with unit coefficient.
    if (g->family == ShapeFamily::kExp && Near(g->a, 1.0)) {
      out.r = *g;
      return out;
    }
    return std::nullopt;
  }
  // Case 2.4 (Π, Π): g must be |x|^a, optionally sign-carrying.
  if (g->family == ShapeFamily::kPower && Near(g->a, 1.0)) {
    out.r = *g;
    out.abs_source = true;
    // Sign analysis: with f1 = base^p1 · (monotone wrapper) and
    // f2 = base^p2, the product Πf1 keeps a sign exactly when p1 is odd.
    if (n1.shape.family == ShapeFamily::kPower &&
        n2.shape.family == ShapeFamily::kPower) {
      if (IsOddInt(n1.shape.p)) {
        if (IsOddInt(n2.shape.p)) {
          out.sign_pow = 1;  // case 2.4(ii): r = sgn(x)·|x|^a
        } else if (IsEvenInt(n2.shape.p)) {
          return std::nullopt;  // sign of s1 not recoverable (case 1)
        }
      }
    }
    return out;
  }
  return std::nullopt;
}

// --- Classes & representatives ---------------------------------------------

namespace {

AggStateDef RepState(AggOp op, ExprPtr input) { return MakeState(op, std::move(input)); }

ExprPtr LnExpr(ExprPtr inner) {
  std::vector<ExprPtr> args;
  args.push_back(std::move(inner));
  return Expr::Func("ln", std::move(args));
}

ExprPtr AbsExpr(ExprPtr inner) {
  std::vector<ExprPtr> args;
  args.push_back(std::move(inner));
  return Expr::Func("abs", std::move(args));
}

ExprPtr SgnExpr(ExprPtr inner) {
  std::vector<ExprPtr> args;
  args.push_back(std::move(inner));
  return Expr::Func("sgn", std::move(args));
}

ExprPtr PowExpr(ExprPtr base, double p) {
  if (p == 1.0) return base;
  return Expr::Binary(BinaryOp::kPow, std::move(base), Expr::Number(p));
}

}  // namespace

StateClass ClassifyState(const AggStateDef& state) {
  StateClass cls;
  if (state.op == AggOp::kCount) {
    cls.key = "count";
    cls.rep = MakeState(AggOp::kCount, nullptr);
    return cls;
  }
  if (state.op == AggOp::kMin || state.op == AggOp::kMax) {
    cls.key = std::string(AggOpName(state.op)) + "|" +
              (state.norm.has_value() ? state.norm->base.Key() +
                                            "|" + state.norm->shape.ToString()
                                      : state.input->ToString());
    cls.rep = state.Clone();
    return cls;
  }
  if (!state.norm.has_value()) {
    cls.key = std::string("opaque|") + AggOpName(state.op) + "|" +
              state.input->ToString();
    cls.rep = state.Clone();
    return cls;
  }

  const NormalizedScalar& n = *state.norm;
  const std::string base = n.base.Key();
  // Reduced shape: coefficient/offset removed (they belong to r, not to the
  // class).
  Shape s = n.shape;
  s.a = 1.0;
  s.b = 0.0;

  if (state.op == AggOp::kSum) {
    switch (s.family) {
      case ShapeFamily::kPower:
      case ShapeFamily::kAffine:
        cls.key = "sum_pow|" + base + "|" +
                  FormatParam(s.family == ShapeFamily::kAffine ? 1.0 : s.p);
        cls.rep = RepState(
            AggOp::kSum,
            PowExpr(n.base.ToExpr(),
                    s.family == ShapeFamily::kAffine ? 1.0 : s.p));
        return cls;
      case ShapeFamily::kLog:
        // Class of Σ a·ln M  ∪  Π M^c  — sign-separated channels.
        cls.key = "logclass|" + base;
        cls.rep = RepState(AggOp::kSum, LnExpr(n.base.ToExpr()));
        cls.log_domain = true;
        return cls;
      case ShapeFamily::kExp:
        cls.key = "sum_exp|" + base + "|" + FormatParam(s.c);
        cls.rep = RepState(
            AggOp::kSum,
            [&] {
              ExprPtr m = n.base.ToExpr();
              ExprPtr scaled =
                  s.c == 1.0 ? std::move(m)
                             : Expr::Binary(BinaryOp::kMul,
                                            Expr::Number(s.c), std::move(m));
              std::vector<ExprPtr> args;
              args.push_back(std::move(scaled));
              return Expr::Func("exp", std::move(args));
            }());
        return cls;
      case ShapeFamily::kLogPow:
        cls.key = "sum_logpow|" + base + "|" + FormatParam(s.p);
        cls.rep =
            RepState(AggOp::kSum, PowExpr(LnExpr(n.base.ToExpr()), s.p));
        cls.log_domain = true;
        return cls;
      case ShapeFamily::kExpPow: {
        cls.key = "sum_exppow|" + base + "|" + FormatParam(s.c) + "|" +
                  FormatParam(s.p);
        ExprPtr powed = PowExpr(n.base.ToExpr(), s.p);
        ExprPtr scaled =
            s.c == 1.0 ? std::move(powed)
                       : Expr::Binary(BinaryOp::kMul, Expr::Number(s.c),
                                      std::move(powed));
        std::vector<ExprPtr> args;
        args.push_back(std::move(scaled));
        cls.rep = RepState(AggOp::kSum, Expr::Func("exp", std::move(args)));
        return cls;
      }
      default:
        cls.key = std::string("sum_self|") + base + "|" + s.ToString();
        cls.rep = state.Clone();
        return cls;
    }
  }

  // state.op == AggOp::kProd
  switch (s.family) {
    case ShapeFamily::kPower:
      // Π M^p ≡ exp(p·Σ ln M): member of the log class.
      cls.key = "logclass|" + base;
      cls.rep = RepState(AggOp::kSum, LnExpr(n.base.ToExpr()));
      cls.log_domain = true;
      return cls;
    case ShapeFamily::kExp:
      // Π e^(c·M) = e^(c·Σ M): member of the plain-sum class.
      cls.key = "sum_pow|" + base + "|1";
      cls.rep = RepState(AggOp::kSum, n.base.ToExpr());
      return cls;
    default:
      cls.key = std::string("prod_self|") + base + "|" + s.ToString();
      cls.rep = state.Clone();
      return cls;
  }
}

ExprPtr StateClass::MainInputExpr() const {
  if (rep.op == AggOp::kCount) return nullptr;
  if (!log_domain) return rep.input->Clone();
  // Insert abs() under the ln: ln(M)^p over |M|.
  SUDAF_CHECK(rep.norm.has_value());
  const NormalizedScalar& n = *rep.norm;
  ExprPtr ln = LnExpr(AbsExpr(n.base.ToExpr()));
  if (n.shape.family == ShapeFamily::kLogPow) {
    return PowExpr(std::move(ln), n.shape.p);
  }
  return ln;
}

ExprPtr StateClass::SignInputExpr() const {
  SUDAF_CHECK(log_domain && rep.norm.has_value());
  return SgnExpr(rep.norm->base.ToExpr());
}

bool RestoresProductSign(const AggStateDef& target, const StateClass& cls) {
  return cls.log_domain && target.op == AggOp::kProd &&
         target.norm.has_value();
}

double ApplyFromClass(const AggStateDef& target, const StateClass& cls,
                      const SharedComputation& share_fn, double main,
                      double sign) {
  double value = share_fn.Apply(main);
  if (RestoresProductSign(target, cls)) {
    // Π M^p reconstructed from (Σ ln|M|, Π sgn M): restore the sign.
    double p = target.norm->shape.p;
    long long r = static_cast<long long>(std::llround(p));
    if (std::fabs(p - static_cast<double>(r)) < 1e-9) {
      if (sign == 0.0) return 0.0;
      if (sign < 0.0 && r % 2 != 0) value = -value;
    }
  }
  return value;
}

}  // namespace sudaf
