#ifndef SUDAF_EXPR_EVALUATOR_H_
#define SUDAF_EXPR_EVALUATOR_H_

// Expression evaluation.
//
// Two scalar evaluators, plus the shared constant-exponent rule:
//   * Row mode over boxed Values (EvalRow) — engine mode's interpreted
//     UDAF updates, HAVING, and the WHERE conjuncts the compiled program
//     refuses (a string column or literal, an unknown name or function,
//     an aggregate).
//   * Terminating mode — evaluates a terminating function T over the values
//     of aggregation states (kStateRef nodes) for one group: the scalar
//     reference for the compiled slot program that terminates a column of
//     groups at a time.
// Vector evaluation has one path: the compiled SlotProgram
// (engine/slot_program.h), which computes the fused pass's state inputs
// f(x_i), the terminating functions and the WHERE filter's numeric
// residual conjuncts. All three lower a constant exponent as LowerPow
// says, so they give the same bits for x^c.

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "expr/expr.h"

namespace sudaf {

// Supported scalar functions: sqrt, ln, log(base, x), exp, abs, sgn,
// pow(x, y), nullif(x, y) (returns NaN when x == y, mirroring SQL NULLIF
// under our NaN-as-NULL convention).
// Returns TypeError for unknown names or wrong arity.
Result<double> ApplyScalarFunc(const std::string& name,
                               const std::vector<double>& args);

// A scalar function resolved to a plain function pointer: name and arity
// are validated once at resolve time, after which per-row calls are
// infallible and never touch the name again. `args` points at `arity`
// doubles. This is what hot loops (the fused executor's kGenericFunc slot)
// call instead of re-resolving by std::string every row.
using ScalarFn = double (*)(const double* args);

// Resolves `name` with the given arity to its ScalarFn, or TypeError for
// unknown names / wrong arity — the same failures ApplyScalarFunc reports,
// hoisted out of the per-row path.
Result<ScalarFn> ResolveScalarFunc(const std::string& name, int arity);

// True if `name` is one of the scalar functions understood by
// ApplyScalarFunc.
bool IsKnownScalarFunc(const std::string& name);

// Applies a numeric binary operator to two doubles (comparison/logic
// operators yield 0/1; `^` is std::pow). Never fails: the slot program's
// comparison and logic slots call it per row.
double ApplyBinaryOp(BinaryOp op, double a, double b);

// --- Row mode ---------------------------------------------------------------

// Resolves a column reference to a boxed value for a given row.
using RowAccessor =
    std::function<Result<Value>(const std::string& column, int64_t row)>;

// Evaluates `expr` for row `row`. Comparison/logic operators yield 0/1.
// A power whose exponent folds to a constant (FoldConstant) goes through
// EvalPow, as in EvalTerminating and the slot program. Aggregate calls and
// state refs are errors in this mode.
Result<Value> EvalRow(const Expr& expr, const RowAccessor& accessor,
                      int64_t row);

// --- Terminating mode ---------------------------------------------------------

// Evaluates a terminating function whose leaves are kStateRef and literals
// for one group. This is the scalar reference: the compiled slot program
// (engine/slot_program.h) gives the same bits on every row. A constant
// exponent (a literal-only subtree) goes through EvalPow, as the program
// lowers it.
Result<double> EvalTerminating(const Expr& expr,
                               const std::vector<double>& states);

// The value of `e` when it is a literal-only subtree (numeric literals
// under operators and scalar functions, no column or state leaf) that
// evaluates without error; false otherwise.
bool FoldConstant(const Expr& e, double* v);

// --- Constant exponents (docs/execution.md, "Constant exponents") ----------
//
// x^c with a constant c is lowered instead of calling std::pow:
//   * c = ±0 gives 1;
//   * an integer |c| = k ≤ 16 is the chain ((x·x)·x)… of k factors;
//   * |c| = 0.5 is PowHalf(x);
//   * a negative c then takes the reciprocal 1 / (…).
// Any other c stays std::pow. The slot program builds this into slots
// (SlotProgram::BuildPow); EvalRow and EvalTerminating apply it to one
// value through EvalPow.
struct PowLowering {
  enum class Kind { kPow, kOne, kChain, kHalf };
  Kind kind = Kind::kPow;
  int factors = 0;     // kChain: k
  bool recip = false;  // kChain, kHalf: c < 0
};
PowLowering LowerPow(double c);

// x^0.5 with std::pow's special values: sqrt, except that -0 gives +0 and
// -inf gives +inf (sqrt gives -0 and NaN).
inline double PowHalf(double x) {
  return x == -HUGE_VAL ? HUGE_VAL : std::sqrt(x) + 0.0;
}

// x^c, lowered as LowerPow(c) says.
double EvalPow(double x, double c);

}  // namespace sudaf

#endif  // SUDAF_EXPR_EVALUATOR_H_
