#include "sudaf/shape.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/value.h"

namespace sudaf {

namespace {

constexpr double kTol = 1e-9;

bool Near(double x, double y) {
  return std::fabs(x - y) <= kTol * std::max({1.0, std::fabs(x), std::fabs(y)});
}

bool Finite(double x) { return std::isfinite(x); }

// Guarded pow: nullopt-worthy results become NaN and are caught by callers.
double Pow(double x, double y) { return std::pow(x, y); }

}  // namespace

Shape Shape::Power(double a, double p) {
  if (a == 0.0) return Const(0.0);
  if (Near(p, 0.0)) return Const(a);
  Shape s;
  s.family = ShapeFamily::kPower;
  s.a = a;
  s.p = p;
  return s;
}

namespace {

// Family constructors that renormalize degenerate parameters.
Shape MakeAffine(double a, double b) {
  if (Near(a, 0.0)) return Shape::Const(b);
  if (Near(b, 0.0)) return Shape::Power(a, 1.0);
  Shape s;
  s.family = ShapeFamily::kAffine;
  s.a = a;
  s.b = b;
  return s;
}

Shape MakeLog(double a, double b) {
  if (Near(a, 0.0)) return Shape::Const(b);
  return Shape::Log(a, b);
}

Shape MakeExp(double a, double c) {
  if (Near(a, 0.0)) return Shape::Const(0.0);
  if (Near(c, 0.0)) return Shape::Const(a);
  return Shape::Exp(a, c);
}

Shape MakeLogPow(double a, double p) {
  if (Near(a, 0.0)) return Shape::Const(0.0);
  if (Near(p, 0.0)) return Shape::Const(a);
  if (Near(p, 1.0)) return Shape::Log(a, 0.0);
  Shape s;
  s.family = ShapeFamily::kLogPow;
  s.a = a;
  s.p = p;
  return s;
}

Shape MakeExpPow(double a, double c, double p) {
  if (Near(a, 0.0)) return Shape::Const(0.0);
  if (Near(c, 0.0)) return Shape::Const(a);
  if (Near(p, 0.0)) return Shape::Const(a * std::exp(c));
  if (Near(p, 1.0)) return Shape::Exp(a, c);
  Shape s;
  s.family = ShapeFamily::kExpPow;
  s.a = a;
  s.c = c;
  s.p = p;
  return s;
}

std::optional<Shape> CheckFinite(Shape s) {
  if (!Finite(s.a) || !Finite(s.p) || !Finite(s.c) || !Finite(s.b)) {
    return std::nullopt;
  }
  return s;
}

}  // namespace

double Shape::Eval(double x) const {
  switch (family) {
    case ShapeFamily::kConst:
      return a;
    case ShapeFamily::kPower:
      return a * std::pow(x, p);
    case ShapeFamily::kAffine:
      return a * x + b;
    case ShapeFamily::kLog:
      return a * std::log(x) + b;
    case ShapeFamily::kExp:
      return a * std::exp(c * x);
    case ShapeFamily::kLogPow:
      return a * std::pow(std::log(x), p);
    case ShapeFamily::kExpPow:
      return a * std::exp(c * std::pow(x, p));
  }
  return 0.0;
}

std::string Shape::ToString() const {
  // Exact numbers: the rendering is part of every normalized state's key.
  const auto num = FormatExactDouble;
  const std::string scale = a != 1.0 ? num(a) + "*" : "";
  switch (family) {
    case ShapeFamily::kConst:
      return num(a);
    case ShapeFamily::kPower:
      return scale + (p == 1.0 ? "x" : "x^" + num(p));
    case ShapeFamily::kAffine:
      return num(a) + "*x + " + num(b);
    case ShapeFamily::kLog:
      return scale + "ln(x)" + (b != 0.0 ? " + " + num(b) : "");
    case ShapeFamily::kExp:
      return scale + "e^(" + num(c) + "*x)";
    case ShapeFamily::kLogPow:
      return scale + "ln(x)^" + num(p);
    case ShapeFamily::kExpPow:
      return scale + "e^(" + num(c) + "*x^" + num(p) + ")";
  }
  return "";
}

bool Shape::IsIdentity() const {
  return family == ShapeFamily::kPower && Near(a, 1.0) && Near(p, 1.0);
}

std::optional<Shape> ComposeShapes(const Shape& outer, const Shape& inner) {
  if (inner.family == ShapeFamily::kConst) {
    return Shape::Const(outer.Eval(inner.a));
  }
  if (outer.family == ShapeFamily::kConst) return outer;
  if (outer.IsIdentity()) return inner;
  if (inner.IsIdentity()) return outer;

  switch (outer.family) {
    case ShapeFamily::kPower: {
      const double a = outer.a, p = outer.p;
      switch (inner.family) {
        case ShapeFamily::kPower:
          return CheckFinite(
              Shape::Power(a * Pow(inner.a, p), p * inner.p));
        case ShapeFamily::kAffine:
          if (Near(p, 1.0)) return MakeAffine(a * inner.a, a * inner.b);
          return std::nullopt;
        case ShapeFamily::kLog:
          if (Near(p, 1.0)) return MakeLog(a * inner.a, a * inner.b);
          if (Near(inner.b, 0.0)) {
            return CheckFinite(MakeLogPow(a * Pow(inner.a, p), p));
          }
          return std::nullopt;
        case ShapeFamily::kExp:
          return CheckFinite(MakeExp(a * Pow(inner.a, p), inner.c * p));
        case ShapeFamily::kLogPow:
          return CheckFinite(MakeLogPow(a * Pow(inner.a, p), inner.p * p));
        case ShapeFamily::kExpPow:
          return CheckFinite(
              MakeExpPow(a * Pow(inner.a, p), inner.c * p, inner.p));
        default:
          return std::nullopt;
      }
    }
    case ShapeFamily::kAffine: {
      const double a = outer.a, b = outer.b;
      switch (inner.family) {
        case ShapeFamily::kPower:
          if (Near(inner.p, 1.0)) return MakeAffine(a * inner.a, b);
          return std::nullopt;
        case ShapeFamily::kAffine:
          return MakeAffine(a * inner.a, a * inner.b + b);
        case ShapeFamily::kLog:
          return MakeLog(a * inner.a, a * inner.b + b);
        default:
          return std::nullopt;
      }
    }
    case ShapeFamily::kLog: {
      const double a = outer.a, b = outer.b;
      switch (inner.family) {
        case ShapeFamily::kPower:
          if (inner.a <= 0.0) return std::nullopt;
          return CheckFinite(
              MakeLog(a * inner.p, a * std::log(inner.a) + b));
        case ShapeFamily::kExp:
          if (inner.a <= 0.0) return std::nullopt;
          return CheckFinite(
              MakeAffine(a * inner.c, a * std::log(inner.a) + b));
        case ShapeFamily::kExpPow: {
          if (inner.a <= 0.0) return std::nullopt;
          double offset = a * std::log(inner.a) + b;
          if (!Near(offset, 0.0)) return std::nullopt;
          return CheckFinite(Shape::Power(a * inner.c, inner.p));
        }
        default:
          return std::nullopt;
      }
    }
    case ShapeFamily::kExp: {
      const double a = outer.a, c = outer.c;
      switch (inner.family) {
        case ShapeFamily::kPower:
          if (Near(inner.p, 1.0)) return MakeExp(a, c * inner.a);
          return CheckFinite(MakeExpPow(a, c * inner.a, inner.p));
        case ShapeFamily::kAffine:
          return CheckFinite(
              MakeExp(a * std::exp(c * inner.b), c * inner.a));
        case ShapeFamily::kLog:
          return CheckFinite(
              Shape::Power(a * std::exp(c * inner.b), c * inner.a));
        default:
          return std::nullopt;
      }
    }
    case ShapeFamily::kLogPow: {
      const double a = outer.a, p = outer.p;
      switch (inner.family) {
        case ShapeFamily::kPower:
          if (Near(inner.a, 1.0)) {
            return CheckFinite(MakeLogPow(a * Pow(inner.p, p), p));
          }
          return std::nullopt;
        case ShapeFamily::kExp:
          if (Near(inner.a, 1.0)) {
            return CheckFinite(Shape::Power(a * Pow(inner.c, p), p));
          }
          return std::nullopt;
        case ShapeFamily::kExpPow:
          // a·(ln(e^(c2·x^p2)))^p = a·c2^p·x^(p2·p)   (inner.a must be 1)
          if (Near(inner.a, 1.0)) {
            return CheckFinite(
                Shape::Power(a * Pow(inner.c, p), inner.p * p));
          }
          return std::nullopt;
        default:
          return std::nullopt;
      }
    }
    case ShapeFamily::kExpPow: {
      const double a = outer.a, c = outer.c, p = outer.p;
      switch (inner.family) {
        case ShapeFamily::kPower:
          return CheckFinite(
              MakeExpPow(a, c * Pow(inner.a, p), inner.p * p));
        case ShapeFamily::kLogPow:
          // a·e^(c·(a2·(ln x)^p2)^p) = a·e^(c·a2^p·(ln x)^(p2·p)), which is
          // a power function a·x^(c·a2^p) exactly when p2·p = 1.
          if (Near(inner.p * p, 1.0)) {
            return CheckFinite(Shape::Power(a, c * Pow(inner.a, p)));
          }
          return std::nullopt;
        default:
          return std::nullopt;
      }
    }
    default:
      return std::nullopt;
  }
}

std::optional<Shape> InverseShape(const Shape& shape) {
  switch (shape.family) {
    case ShapeFamily::kConst:
      return std::nullopt;
    case ShapeFamily::kPower:
      return CheckFinite(
          Shape::Power(Pow(1.0 / shape.a, 1.0 / shape.p), 1.0 / shape.p));
    case ShapeFamily::kAffine:
      return MakeAffine(1.0 / shape.a, -shape.b / shape.a);
    case ShapeFamily::kLog:
      return CheckFinite(
          MakeExp(std::exp(-shape.b / shape.a), 1.0 / shape.a));
    case ShapeFamily::kExp:
      if (shape.a <= 0.0) return std::nullopt;
      return CheckFinite(
          MakeLog(1.0 / shape.c, -std::log(shape.a) / shape.c));
    case ShapeFamily::kLogPow:
      return CheckFinite(MakeExpPow(
          1.0, Pow(1.0 / shape.a, 1.0 / shape.p), 1.0 / shape.p));
    case ShapeFamily::kExpPow:
      if (!Near(shape.a, 1.0)) return std::nullopt;
      return CheckFinite(
          MakeLogPow(Pow(1.0 / shape.c, 1.0 / shape.p), 1.0 / shape.p));
  }
  return std::nullopt;
}

std::optional<Shape> ShapeFromChain(const PrimitiveChain& chain) {
  Shape acc = Shape::Identity();
  for (const Primitive& prim : chain) {
    Shape step;
    switch (prim.kind) {
      case PrimitiveKind::kConst:
        step = Shape::Const(prim.param);
        break;
      case PrimitiveKind::kIdentity:
        step = Shape::Identity();
        break;
      case PrimitiveKind::kLinear:
        step = Shape::Power(prim.param, 1.0);
        break;
      case PrimitiveKind::kPower:
        step = Shape::Power(1.0, prim.param);
        break;
      case PrimitiveKind::kLog:
        if (prim.param <= 0.0 || prim.param == 1.0) return std::nullopt;
        step = Shape::Log(1.0 / std::log(prim.param), 0.0);
        break;
      case PrimitiveKind::kExp:
        if (prim.param <= 0.0 || prim.param == 1.0) return std::nullopt;
        step = Shape::Exp(1.0, std::log(prim.param));
        break;
    }
    std::optional<Shape> next = ComposeShapes(step, acc);
    if (!next.has_value()) return std::nullopt;
    acc = *next;
  }
  return acc;
}

}  // namespace sudaf
