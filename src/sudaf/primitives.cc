#include "sudaf/primitives.h"

#include <cmath>
#include <string>

#include "common/value.h"

namespace sudaf {

double Primitive::Eval(double x) const {
  switch (kind) {
    case PrimitiveKind::kConst:
      return param;
    case PrimitiveKind::kIdentity:
      return x;
    case PrimitiveKind::kLinear:
      return param * x;
    case PrimitiveKind::kPower:
      return std::pow(x, param);
    case PrimitiveKind::kLog:
      return std::log(x) / std::log(param);
    case PrimitiveKind::kExp:
      return std::pow(param, x);
  }
  return 0.0;
}

std::string Primitive::ToString() const {
  const std::string v = FormatExactDouble(param);
  switch (kind) {
    case PrimitiveKind::kConst:
      return v;
    case PrimitiveKind::kIdentity:
      return "x";
    case PrimitiveKind::kLinear:
      return v + "*x";
    case PrimitiveKind::kPower:
      return "x^" + v;
    case PrimitiveKind::kLog:
      return "log_" + v + "(x)";
    case PrimitiveKind::kExp:
      return v + "^x";
  }
  return "";
}

bool Primitive::injective() const {
  switch (kind) {
    case PrimitiveKind::kConst:
      return false;
    case PrimitiveKind::kIdentity:
    case PrimitiveKind::kLinear:
    case PrimitiveKind::kLog:
    case PrimitiveKind::kExp:
      return true;
    case PrimitiveKind::kPower: {
      // Even integer powers fold x and -x together; all other powers are
      // injective on their natural domain.
      double r = std::round(param);
      bool is_int = std::fabs(param - r) < 1e-12;
      return !(is_int && std::fabs(std::fmod(r, 2.0)) < 0.5);
    }
  }
  return false;
}

bool Primitive::even() const {
  if (kind != PrimitiveKind::kPower) return kind == PrimitiveKind::kConst;
  return !injective();
}

double EvalChain(const PrimitiveChain& chain, double x) {
  double v = x;
  for (const Primitive& p : chain) v = p.Eval(v);
  return v;
}

std::string ChainToString(const PrimitiveChain& chain) {
  if (chain.empty()) return "x";
  std::string out = chain.back().ToString();
  for (auto it = std::next(chain.rbegin()); it != chain.rend(); ++it) {
    // Substitute the inner chain for "x" textually (rightmost applies first).
    std::string inner = it->ToString();
    std::string result;
    for (char c : out) {
      if (c == 'x') {
        result += "(" + inner + ")";
      } else {
        result += c;
      }
    }
    out = std::move(result);
  }
  return out;
}

}  // namespace sudaf
