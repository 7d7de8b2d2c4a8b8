#ifndef SUDAF_SUDAF_SHARING_H_
#define SUDAF_SUDAF_SHARING_H_

// The sharing problem share(s1, s2): does a computable scalar function r
// exist with s1(X) = r(s2(X)) for every multiset X?
//
// Undecidable in general (Theorem 3.2); decidable within SUDAF's primitive
// classes via Theorem 4.1, whose conditions this module implements exactly:
//
//   case 1    f1 injective, f2 non-injective            -> no sharing
//   case 2.1  Σ,Σ: f1∘f2⁻¹(x) = a·x                     -> r = a·x
//   case 2.2  Σ,Π: f1∘f2⁻¹(x) = a·log_b|x|              -> r = a·log_b|x|
//   case 2.3  Π,Σ: f1∘f2⁻¹(x) = b^(a·x)                 -> r = b^(a·x)
//   case 2.4  Π,Π: f1∘f2⁻¹(x) = |x|^a or sgn(x)·|x|^a   -> r likewise
//   case 3    both even: reduce to the positive domain (|x|)
//   case 4    neither: splitting rules applied upstream; else syntactic
//             comparison (sufficient but not necessary)
//
// f1∘f2⁻¹ is computed symbolically on shape normal forms, so no expression
// rewriting happens at decision time.
//
// The module also provides the runtime counterpart of the paper's
// precomputed symbolic relationships (Section 5): every state maps in O(1)
// to its equivalence class and class representative (`ClassifyState`), and
// caches store representative instances only.

#include <optional>
#include <string>

#include "common/status.h"
#include "sudaf/canonical.h"

namespace sudaf {

// The computable function r of Definition 3.1, in executable form.
struct SharedComputation {
  Shape r = Shape::Identity();
  // Evaluate r on |value| (used when the source state is a product whose
  // sign is carried separately).
  bool abs_source = false;
  // Multiply the result by sgn(value)^sign_pow (0 => no sign handling).
  int sign_pow = 0;

  bool IsIdentity() const {
    return r.IsIdentity() && !abs_source && sign_pow == 0;
  }
  // Apply(v) has v's bits for every non-NaN v: exactly 1 * v^1. Unlike
  // IsIdentity(), which tolerates a coefficient within Near() of 1, this
  // admits only a = p = 1.
  bool IsExactIdentity() const {
    return r.family == ShapeFamily::kPower && r.a == 1.0 && r.p == 1.0 &&
           !abs_source && sign_pow == 0;
  }

  // r(value).
  double Apply(double value) const;

  std::string ToString() const;
};

// Decides share(s1, s2) and returns r, or nullopt if s1 cannot be computed
// from s2 alone.
std::optional<SharedComputation> Share(const AggStateDef& s1,
                                       const AggStateDef& s2);

// --- Equivalence classes & representatives (the precomputed fast path) ----

// Descriptor of the sharing-equivalence class of a state. States of the same
// class key can compute each other; caches store one instance per class: the
// representative. Log-domain classes use sign separation (Section 5.3): the
// main channel is computed over |M| and a Π sgn(M) side channel is kept.
struct StateClass {
  std::string key;       // e.g. "sum_pow|x|2", "logclass|x", "count"
  AggStateDef rep;       // representative state (what gets computed/cached)
  bool log_domain = false;

  // Expression evaluated per input row for the main channel (null for
  // count); inserts abs() for log-domain classes.
  ExprPtr MainInputExpr() const;
  // Expression for the sign channel (only when log_domain): sgn(M).
  ExprPtr SignInputExpr() const;
  // ⊕ used to accumulate the main channel.
  AggOp MainOp() const { return rep.op; }
};

// Maps a state to its class (always succeeds; unclassifiable states get a
// self-class keyed by their syntactic form).
StateClass ClassifyState(const AggStateDef& state);

// True when ApplyFromClass restores a product's sign from the class's sign
// channel (a log-domain class serving a Π target); otherwise it returns
// share_fn.Apply(main) and ignores `sign`.
bool RestoresProductSign(const AggStateDef& target, const StateClass& cls);

// Reconstructs the value of `target` from its class representative's cached
// channels. `share_fn` must be Share(target, cls.rep) (cached by callers).
double ApplyFromClass(const AggStateDef& target, const StateClass& cls,
                      const SharedComputation& share_fn, double main,
                      double sign);

}  // namespace sudaf

#endif  // SUDAF_SUDAF_SHARING_H_
