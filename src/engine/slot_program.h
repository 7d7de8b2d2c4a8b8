#ifndef SUDAF_ENGINE_SLOT_PROGRAM_H_
#define SUDAF_ENGINE_SLOT_PROGRAM_H_

// The vector expression DAG shared by the fused state pass, terminate and
// the WHERE filter.
//
// A SlotProgram compiles expressions into one flat list of slots. Slots
// are interned structurally (same kind + same child slots => same slot),
// so a subexpression that several expressions contain is computed once:
// sum(x) and sum(x*y) read one column-x slot, var and stddev read one
// variance slot, and two conjuncts of one table's WHERE read one x*y
// slot. Literal-only subtrees fold to one literal when they are added,
// and a constant exponent is lowered onto multiplies, sqrt and a
// reciprocal (LowerPow, docs/execution.md, "Constant exponents"), reusing
// the x^2 slot a sibling already needs for x^4.
//
// Leaves are literals, base columns bound through a ColumnBinder (the
// fused pass's inputs f_j(x), the filter's columns) and state columns
// (the terminating functions' kStateRef s_k, read in place). Comparisons
// and AND/OR are kGenericBinary slots yielding 0/1, so a numeric WHERE
// conjunct compiles like any other expression. EvalVector evaluates every
// slot a root reads over at most kVector rows at a time into per-caller
// buffers (SlotBuffers).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/input_binding.h"
#include "expr/evaluator.h"
#include "expr/expr.h"

namespace sudaf {

// Rows evaluated at a time: each slot buffer is 16 KB, so a program's
// buffers stay in L2 between a slot's write and its readers. Since every
// row's value is computed on its own, no answer depends on it.
constexpr int64_t kVector = 2048;

// One node of the DAG. Slots are created children-first, so evaluating
// them in index order satisfies all dependencies.
struct Slot {
  enum class Kind {
    kLiteral,     // constant fill
    kColumnF64,   // float64 column: aliased over an identity range
                  // inside one chunk, loaded otherwise
    kColumnI64,   // int64 column, converted per vector
    kState,       // state column `state`, aliased in place
    kNeg,         // -a
    kAdd,         // a + b
    kSub,         // a - b
    kMul,         // a * b
    kDiv,         // a / b
    kPow,         // pow(a, b), exponent not lowered
    kRecip,       // 1 / a
    kSqrt,        // sqrt(a), the scalar function
    kPowHalf,     // a^0.5: PowHalf, sqrt with pow's -0 and -inf
    kLog,
    kExp,
    kAbs,
    kSgn,
    kGenericBinary,  // comparisons / logic (0/1) via ApplyBinaryOp
    kGenericFunc,    // scalar function resolved to a pointer at build time
  };
  Kind kind = Kind::kLiteral;
  int a = -1;
  int b = -1;
  std::vector<int> args;         // kGenericFunc
  double literal = 0.0;          // kLiteral
  BinaryOp bin_op{};             // kGenericBinary
  ScalarFn fn = nullptr;         // kGenericFunc
  const Column* col = nullptr;   // column slots
  const int64_t* rows = nullptr;  // column slots: row ids, null = identity
  int64_t base = 0;               // column slots: identity range start
  int state = -1;                 // kState
  int dedup_hits = 0;            // times this slot was reused by interning
};

// What an expression's leaves may read. A kColumnRef needs `columns`; a
// kStateRef k needs k < num_states. Any other leaf is a TypeError.
struct SlotLeaves {
  const ColumnBinder* columns = nullptr;
  int num_states = 0;
};

class SlotProgram {
 public:
  // Compiles `e` into the DAG and returns its root slot. Refuses (with a
  // TypeError or the binder's error) a string column or literal, an
  // unknown column or function, an aggregate, and a leaf `leaves` does not
  // provide; every other expression evaluates per row without failing.
  Result<int> Add(const Expr& e, const SlotLeaves& leaves);

  // Marks `slot` as read by a consumer. Finish() then marks every slot a
  // marked slot reads and drops the interning index.
  void MarkRoot(int slot);
  void Finish();

  const std::vector<Slot>& slots() const { return slots_; }
  // Whether slot i is evaluated per vector (after Finish).
  bool evaluated(size_t i) const {
    return i < evaluated_.size() && evaluated_[i] != 0;
  }
  int num_evaluated_slots() const;
  // Slots that interning reused at least once (CSE hits).
  int num_shared_slots() const;
  // Approximate heap footprint of a finished program.
  int64_t ApproxBytes() const;

 private:
  Result<int> BuildPow(const Expr& base, const Expr& exponent,
                       const SlotLeaves& leaves);
  int Intern(Slot slot, const std::string& key);
  int MakeUnary(Slot::Kind kind, const char* tag, int child);
  int MakeArith(Slot::Kind kind, const char* tag, int a, int b);
  int MakeLiteral(double v);

  std::vector<Slot> slots_;
  std::map<std::string, int> memo_;
  std::vector<char> evaluated_;
};

// A slot whose rows are read in place and need no buffer: a state column,
// or a single-chunk float64 column over an identity range.
bool SlotAliases(const Slot& s);

// One caller's evaluation buffers for a program: one buffer of up to
// `len` rows per evaluated slot that does not alias its input, allocated
// once and reused across vectors. Literal slots are filled at Init.
struct SlotBuffers {
  std::vector<std::unique_ptr<double[]>> bufs;
  std::vector<const double*> ptr;  // slot i's rows of the current vector

  void Init(const SlotProgram& program, int64_t len);
};

// Evaluates every evaluated slot over rows [lo, lo + len), len ≤ the
// buffers' length; kState k reads states[k] + lo. Afterwards
// w->ptr[i][r] is slot i's value at row lo + r.
void EvalVector(const SlotProgram& program, SlotBuffers* w, int64_t lo,
                int64_t len, const double* const* states = nullptr);

}  // namespace sudaf

#endif  // SUDAF_ENGINE_SLOT_PROGRAM_H_
