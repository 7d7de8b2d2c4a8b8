#ifndef SUDAF_ENGINE_EXECUTOR_H_
#define SUDAF_ENGINE_EXECUTOR_H_

// Engine-native query execution (the baseline the paper compares against).
//
// Built-in aggregates (sum/count/min/max/avg/var/stddev and the primitive
// sum/prod/count/min/max calls) run through vectorized kernels; every other
// aggregate call is a UDAF driven row-at-a-time through the IUME interface —
// mirroring how PostgreSQL and Spark SQL treat user-defined aggregates. Its
// name is looked up in the UDAF registry (native implementations such as
// the approximate quantiles), then in the UDAF library, whose definition is
// expanded and derived into IUME form (DeriveUdaf) for the call.
//
// The SUDAF rewriter (src/sudaf) reuses Prepare() so that baseline and
// rewritten executions share scans, filters, joins and grouping. Built-in
// aggregates run in one fused state pass and UDAFs row at a time, both over
// the prepared input in place; only a join gathers a frame.

#include <memory>
#include <string>
#include <vector>

#include "agg/udaf.h"
#include "common/status.h"
#include "engine/aggregation.h"
#include "engine/exec_options.h"
#include "sql/statement.h"
#include "storage/catalog.h"

namespace sudaf {

class UdafLibrary;

class Executor {
 public:
  // `registry` and `library` resolve UDAF calls in Execute(); either may be
  // null, and Prepare() reads neither.
  explicit Executor(const Catalog* catalog,
                    const UdafRegistry* registry = nullptr,
                    const UdafLibrary* library = nullptr)
      : catalog_(catalog), registry_(registry), library_(library) {}

  // Runs `stmt` with engine-native aggregation. Each select item must be a
  // group-by column reference or a single aggregate/UDAF call over column
  // arguments.
  Result<std::unique_ptr<Table>> Execute(const SelectStatement& stmt,
                                         const ExecOptions& opts = {}) const;

  // Plans, filters, joins and groups the FROM/WHERE/GROUP BY part of `stmt`.
  // The input binds the group-by columns, every column referenced by the
  // select list, and `extra_columns` (PreparedInput::columns). A
  // single-table input reads its base table in place through the WHERE
  // selection or an identity range; a join gathers those columns into a
  // frame. `opts` controls pipeline parallelism (the filter and a join's
  // gather run morsel-parallel under opts.parallel, with results
  // bit-identical to the serial path; grouping is serial) and carries the
  // observability sinks: each stage records a span ("filter", "gather",
  // "group") under opts.trace_span and a sudaf.phase.*_ms dcounter;
  // "gather" times binding the columns plus a join's frame.
  Result<PreparedInput> Prepare(const SelectStatement& stmt,
                                const std::vector<std::string>& extra_columns,
                                const ExecOptions& opts) const;
  Result<PreparedInput> Prepare(
      const SelectStatement& stmt,
      const std::vector<std::string>& extra_columns = {}) const {
    return Prepare(stmt, extra_columns, ExecOptions{});
  }

  const Catalog* catalog() const { return catalog_; }

 private:
  // The UDAF that runs `call`, and in `*columns` the columns it reads, in
  // argument order: the registry's over plain-column arguments, else one
  // derived into `*derived` from the library's definition expanded over
  // the call's argument expressions, reading the columns they name.
  Result<const Udaf*> FindUdaf(const Expr& call,
                               std::unique_ptr<Udaf>* derived,
                               std::vector<std::string>* columns) const;

  const Catalog* catalog_;
  const UdafRegistry* registry_;
  const UdafLibrary* library_;
};

// Applies HAVING, ORDER BY and LIMIT of `stmt` to `result` (columns are
// looked up by output name), ordering with the typed kernel of
// engine/ordering.h. Returns `result` unchanged when all are absent.
Result<std::unique_ptr<Table>> SortAndLimit(std::unique_ptr<Table> result,
                                            const SelectStatement& stmt);

// Copies the given rows of `table`, in order, into a new table (typed
// copies, Column::AppendRows).
std::unique_ptr<Table> GatherRows(const Table& table,
                                  const std::vector<int64_t>& rows);

// Output column name for a select item: its alias if present, otherwise the
// unparsed expression.
std::string SelectItemName(const SelectItem& item);

}  // namespace sudaf

#endif  // SUDAF_ENGINE_EXECUTOR_H_
