#ifndef SUDAF_SUDAF_SHAPE_H_
#define SUDAF_SUDAF_SHAPE_H_

// Closed normal forms ("shapes") for PS∘ scalar functions.
//
// Every composition chain of SUDAF primitives, considered over the positive
// domain, normalizes into one of six parametric families. The families are
// closed under the compositions and inverses that Theorem 4.1 requires, so
// f1 ∘ f2⁻¹ can be computed symbolically and matched against the theorem's
// patterns exactly — this is the engine behind SUDAF's sharing decision
// (Section 5's symbolic representations are built on the same normal forms).

#include <optional>
#include <string>

#include "sudaf/primitives.h"

namespace sudaf {

enum class ShapeFamily {
  kConst,   // a
  kPower,   // a·x^p                  (p ≠ 0)
  kAffine,  // a·x + b                (b ≠ 0; b = 0 is kPower with p = 1)
  kLog,     // a·ln(x) + b
  kExp,     // a·e^(c·x)              (c ≠ 0)
  kLogPow,  // a·(ln x)^p             (p ≠ 0, 1)
  kExpPow,  // a·e^(c·x^p)            (c ≠ 0, p ≠ 0, 1)
};

struct Shape {
  ShapeFamily family = ShapeFamily::kPower;
  double a = 1.0;  // leading coefficient
  double p = 1.0;  // exponent (kPower, kLogPow, kExpPow)
  double c = 0.0;  // exponential rate (kExp, kExpPow)
  double b = 0.0;  // additive constant (kAffine, kLog)

  static Shape Identity() { return Shape{ShapeFamily::kPower, 1.0, 1.0}; }
  static Shape Const(double v) { return Shape{ShapeFamily::kConst, v}; }
  static Shape Power(double a, double p);  // normalizes p == 1, a·x^0 etc.
  static Shape Log(double a, double b) {
    return Shape{ShapeFamily::kLog, a, 1.0, 0.0, b};
  }
  static Shape Exp(double a, double c) {
    return Shape{ShapeFamily::kExp, a, 1.0, c};
  }

  double Eval(double x) const;
  std::string ToString() const;

  bool IsIdentity() const;
};

// outer ∘ inner, when the result stays within the families; nullopt
// otherwise (which makes the sharing test conservatively answer "no").
std::optional<Shape> ComposeShapes(const Shape& outer, const Shape& inner);

// Inverse over the positive domain, when representable.
std::optional<Shape> InverseShape(const Shape& shape);

// Folds a PS∘ chain into a shape (applying chain[0] first).
std::optional<Shape> ShapeFromChain(const PrimitiveChain& chain);

}  // namespace sudaf

#endif  // SUDAF_SUDAF_SHAPE_H_
