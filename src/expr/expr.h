#ifndef SUDAF_EXPR_EXPR_H_
#define SUDAF_EXPR_EXPR_H_

// Expression AST.
//
// One AST serves three roles:
//   * SQL select-list / WHERE expressions,
//   * UDAF definitions written as mathematical expressions (SUDAF's
//     declarative front end), and
//   * terminating functions T, where aggregate calls have been replaced by
//     kStateRef nodes referring to factored-out aggregation states.

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace sudaf {

enum class ExprKind {
  kLiteral,     // constant Value
  kColumnRef,   // named column
  kUnaryMinus,  // -child
  kBinary,      // child0 op child1
  kFuncCall,    // scalar function or (pre-expansion) UDAF call
  kAggCall,     // primitive aggregate: sum/prod/count/min/max over child
  kStateRef,    // s_i in a terminating function
};

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kPow,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

// Primitive aggregate operations (class PA of the paper, plus the three
// SQL-standard self-sharing aggregates min/max/count that SUDAF registers
// explicitly, see Section 6 of the paper).
enum class AggOp { kSum, kProd, kCount, kMin, kMax };

const char* BinaryOpName(BinaryOp op);  // "+", "*", "and", ...
const char* AggOpName(AggOp op);        // "sum", "prod", ...

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind;

  Value literal;            // kLiteral
  std::string column;       // kColumnRef
  BinaryOp bin_op{};        // kBinary
  std::string func_name;    // kFuncCall (lower-cased)
  AggOp agg_op{};           // kAggCall
  int state_index = -1;     // kStateRef
  std::vector<ExprPtr> args;

  // --- Factory helpers -----------------------------------------------------
  static ExprPtr Literal(Value v);
  static ExprPtr Number(double v);
  static ExprPtr Column(std::string name);
  static ExprPtr Unary(ExprPtr child);
  static ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Func(std::string name, std::vector<ExprPtr> args);
  static ExprPtr Agg(AggOp op, ExprPtr arg);   // arg may be null for count()
  static ExprPtr StateRef(int index);

  ExprPtr Clone() const;

  // Structural equality (literals compare by value).
  bool Equals(const Expr& other) const;

  // Unparses to a canonical-ish string (used for cache keys, debugging and
  // EXPLAIN output).
  std::string ToString() const;

  // Appends the names of all referenced columns (with duplicates).
  void CollectColumns(std::vector<std::string>* out) const;

  // Appends pointers to all kAggCall nodes in evaluation order.
  void CollectAggCalls(std::vector<const Expr*>* out) const;

  // Flattens an AND tree: appends its conjuncts, left to right.
  void CollectConjuncts(std::vector<const Expr*>* out) const;

  // The inverse: `where` AND clones of `conjuncts`, left-deep. A null
  // `where` is no predicate; the result is null when both are empty.
  static ExprPtr AndAll(ExprPtr where,
                        const std::vector<const Expr*>& conjuncts);

  // True if the subtree contains any kAggCall or kStateRef node.
  bool ContainsAggregate() const;

  // True if the subtree contains a call to function `name`.
  bool ContainsFunc(const std::string& name) const;
};

// Replaces every kFuncCall to `name` (arity = params.size()) by `body` with
// parameter columns substituted by the call arguments. Used to macro-expand
// registered UDAF definitions inside queries. Returns the rewritten tree.
ExprPtr ExpandFunctionCalls(const Expr& expr, const std::string& name,
                            const std::vector<std::string>& params,
                            const Expr& body);

// Replaces kColumnRef nodes whose name appears in `bindings` by clones of the
// bound expressions.
ExprPtr SubstituteColumns(
    const Expr& expr,
    const std::vector<std::pair<std::string, const Expr*>>& bindings);

}  // namespace sudaf

#endif  // SUDAF_EXPR_EXPR_H_
