#ifndef SUDAF_ENGINE_HASH_JOIN_H_
#define SUDAF_ENGINE_HASH_JOIN_H_

// WHERE filtering and multi-table equi-join over row-id vectors.
//
// The join result is kept as parallel row-id arrays (one per joined table);
// columns are read or gathered afterwards, so wide tables cost nothing
// during the join itself.

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "engine/exec_options.h"
#include "engine/plan.h"
#include "engine/slot_program.h"

namespace sudaf {

// The result of filtering + joining the FROM clause: `rows[t][i]` is the row
// of table t participating in output tuple i. Tables that are not (yet)
// joined have an empty vector.
struct JoinedRows {
  std::vector<std::vector<int64_t>> rows;  // [table][tuple]
  int64_t num_tuples = 0;
  // An unfiltered single-table scan is an identity range instead of a row
  // vector: identity_base >= 0, rows[0] is empty and tuple i is base row
  // identity_base + i.
  int64_t identity_base = -1;
};

// A WHERE conjunct `column <op> literal` or `literal <op> column` over an
// INT64 or FLOAT64 column, with op one of < <= > >= = <>, bound to a typed
// kernel at plan time. The op is normalized so the column is on the left.
// The kernel compares static_cast<double>(value) with the literal, exactly
// as the interpreted evaluator does, so an INT64 column keeps its
// convert-to-double semantics.
struct CompiledPredicate {
  const Column* column = nullptr;
  BinaryOp op = BinaryOp::kEq;
  double literal = 0.0;
};

// Compiles `pred` against `table`, or nullopt when it has another shape
// (CompileFilter then puts it in the table's SlotProgram, or on EvalRow).
std::optional<CompiledPredicate> CompilePredicate(const Expr& pred,
                                                  const Table& table);

// One table's WHERE conjuncts, each on the path CompileFilter fixed for it
// from the expression and the column types alone, before the first row:
//   * `kernels`: the conjuncts CompilePredicate accepts;
//   * `program`: the other conjuncts SlotProgram::Add accepts, compiled
//     into one program so conjuncts share subterms, with one root per
//     conjunct in `roots`; a row passes a root whose value is not 0;
//   * `interpreted`: the conjuncts Add refuses (a string column or
//     literal, an unknown name or function, an aggregate), run through
//     EvalRow.
// The program follows LowerPow as EvalRow does, so a conjunct selects the
// same rows on either of those paths.
struct CompiledFilter {
  std::vector<CompiledPredicate> kernels;
  SlotProgram program;
  std::vector<int> roots;
  std::vector<const Expr*> interpreted;
};

CompiledFilter CompileFilter(const std::vector<const Expr*>& conjuncts,
                             const Table& table);

// Evaluates all single-table filters and joins all tables of `plan` into one
// tuple stream, starting from the largest filtered table and repeatedly
// attaching a table connected by a join edge (int64 keys only). Join edges
// between already-joined tables become post-join filters.
//
// Filtering runs per morsel into a selection of surviving rows (in
// kVector-row steps when some conjunct is compiled into the program): the
// typed kernels first, each writing or compacting
// the selection in place, then the compiled program's roots, then the
// EvalRow conjuncts over the rows still selected. Under opts.parallel
// workers take contiguous morsel ranges, and the selected row ids are
// written at offsets from a prefix sum over per-morsel counts, so the
// selection is identical to the serial one for every thread count. The
// join itself stays serial.
Result<JoinedRows> FilterAndJoin(const QueryPlan& plan,
                                 const ExecOptions& opts = {});

}  // namespace sudaf

#endif  // SUDAF_ENGINE_HASH_JOIN_H_
