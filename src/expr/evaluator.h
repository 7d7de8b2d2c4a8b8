#ifndef SUDAF_EXPR_EVALUATOR_H_
#define SUDAF_EXPR_EVALUATOR_H_

// Expression evaluation.
//
// Three evaluation modes:
//   * Row mode over boxed Values — used for predicates (which may touch
//     strings) and by the hardcoded-UDAF execution path.
//   * Vectorized numeric mode over whole columns — used by the fast SUDAF
//     path to compute aggregation-state inputs f(x_i).
//   * Terminating mode — evaluates a terminating function T over the values
//     of aggregation states (kStateRef nodes) for one group: the scalar
//     reference for the compiled slot program that terminates a column of
//     groups at a time (engine/slot_program.h).

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "expr/expr.h"
#include "storage/column.h"

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
// operators yield 0/1). Exposed for the fused StateBatch executor's generic
// slots; arithmetic operators never fail.
Result<double> ApplyBinaryOp(BinaryOp op, double a, double b);

// --- Row mode ---------------------------------------------------------------

// Resolves a column reference to a boxed value for a given row.
using RowAccessor =
    std::function<Result<Value>(const std::string& column, int64_t row)>;

// Evaluates `expr` for row `row`. Comparison/logic operators yield int64 0/1.
// Aggregate calls and state refs are errors in this mode.
Result<Value> EvalRow(const Expr& expr, const RowAccessor& accessor,
                      int64_t row);

// --- Vectorized numeric mode -------------------------------------------------

// Resolves a column name to a Column (numeric columns only in this mode).
using ColumnResolver =
    std::function<Result<const Column*>(const std::string& column)>;

// Evaluates a purely scalar numeric expression over rows [0, num_rows),
// producing one double per row. Aggregates/state refs/strings are errors.
Result<std::vector<double>> EvalNumericVector(const Expr& expr,
                                              const ColumnResolver& resolver,
                                              int64_t num_rows);

// Reusable intermediate buffers for EvalNumericRange. One pool per caller
// (not thread-safe); buffers grow to the largest range evaluated and are
// recycled across calls, so a morsel loop allocates only on its first
// iteration.
class EvalScratch {
 public:
  // Borrows a buffer of at least `size` doubles (contents unspecified).
  std::vector<double>* Acquire(int64_t size);
  // Returns a borrowed buffer to the pool.
  void Release(std::vector<double>* buf);

 private:
  std::vector<std::unique_ptr<std::vector<double>>> free_;
  std::vector<std::unique_ptr<std::vector<double>>> in_use_;
};

// Range-based variant of EvalNumericVector: evaluates `expr` for rows
// [lo, hi) of the resolved columns, writing the hi-lo results into the
// caller-provided `out` buffer. Intermediates come from `scratch` instead of
// per-node heap allocations — this is the building block of the morsel-driven
// executor, where the same expression is evaluated over many small row
// ranges and must not allocate per morsel.
Status EvalNumericRange(const Expr& expr, const ColumnResolver& resolver,
                        int64_t lo, int64_t hi, double* out,
                        EvalScratch* scratch);

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
// Any other c stays std::pow. The fused pass and terminate build this
// into slots (SlotProgram); EvalPow applies it to one value.
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
