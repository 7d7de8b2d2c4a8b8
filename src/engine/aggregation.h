#ifndef SUDAF_ENGINE_AGGREGATION_H_
#define SUDAF_ENGINE_AGGREGATION_H_

// Grouping and grouped aggregation over a query's prepared input.

#include <memory>
#include <string>
#include <vector>

#include "agg/udaf.h"
#include "common/status.h"
#include "engine/exec_options.h"
#include "engine/hash_join.h"
#include "engine/input_binding.h"
#include "engine/plan.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace sudaf {

// The FROM/WHERE part of a query, prepared for aggregation: which rows the
// query reads, and the grouping of those rows.
//
// A single-table scan reads its base table in place: tuple i is base row
// row_ids[i] of the WHERE selection, or base + i when row_ids is empty (an
// unfiltered scan is an identity range, not an iota vector). A join's tuple
// stream is a permutation of every joined table, so a join instead gathers
// the columns it reads into `frame` once, and its tuples are the frame's
// rows (source == frame, base 0). Bind() gives each column as a
// BoundColumn over that row map.
struct PreparedInput {
  const Table* source = nullptr;   // table the tuples index: base or frame
  std::vector<int64_t> row_ids;    // selected rows of `source`; empty: identity
  int64_t base = 0;                // first row of the identity range
  // A join's gathered columns; null for a single-table scan, whose every
  // reader binds the base table in place.
  std::unique_ptr<Table> frame;
  std::vector<std::string> columns;   // columns the query reads (validated)
  int64_t num_input_rows = 0;         // tuple count
  std::vector<int32_t> group_ids;     // size = num_input_rows
  std::unique_ptr<Table> group_keys;  // group-by columns, one row per group
  int32_t num_groups = 0;
  bool direct_groups = false;         // ids assigned by direct indexing
  // Append-segment boundaries mapped into filtered-row space (cumulative
  // tuple ends, last == num_input_rows). Single-table plans map the base
  // table's segment log through the sorted selection vector; multi-table
  // plans always have one segment. Drives the fused executor's per-segment
  // chunk tree (docs/execution.md, "Incremental maintenance").
  std::vector<int64_t> segment_ends;

  // `column` of `source` over the tuple → row map.
  Result<BoundColumn> Bind(const std::string& column) const;
  // Bind() as a ColumnBinder; borrows this input.
  ColumnBinder Binder() const {
    return [this](const std::string& column) { return Bind(column); };
  }
  // Bytes materialized for this input — row ids, group ids and any frame —
  // what QueryGuard memory budgets charge for a scan.
  int64_t ApproxBytes() const;
};

// Copies the bound `columns` (named `names`, each with row ids) into a
// fresh table with one row per tuple of [0, num_rows), adding the copied
// bytes to sudaf.input.gathered_bytes (opts.metrics). Parallel under
// opts.parallel: output columns are pre-sized and (column × row-range)
// tasks fill disjoint windows, producing the same positional copy as a
// serial gather. This is the one place input rows are copied, and only a
// join's Prepare calls it.
Result<std::unique_ptr<Table>> GatherColumns(
    const std::vector<std::string>& names,
    const std::vector<BoundColumn>& columns, int64_t num_rows,
    const ExecOptions& opts = {});

// One grouping kernel assigns every group id: BuildGroups and
// MergeGroupKeys both turn integer key codes (an INT64 value or a STRING
// dictionary code, read in place) into ids in first-occurrence order. A
// single key column whose code range is narrower than max(tuples, 1024)
// indexes a dense id table; any other key hashes into one flat
// open-addressing table. Both loops give the same ids, so grouping rows
// A ⊎ B equals merging the groupings of A and B (docs/execution.md,
// "Group" and "Incremental maintenance").

// Computes `out->group_ids`, `out->group_keys` and `out->num_groups` for the
// input bound in `out`, reading the key columns through Bind(). With an
// empty `group_by` there is a single group 0 (and `group_keys` has zero
// columns). `out->direct_groups` reports whether the kernel indexed
// directly; `allow_direct` = false forces the hash loop (for differential
// tests).
//
// Always one serial pass: first-occurrence ids have no ⊕ merge, so a
// parallel form pays a serial key merge and a second pass to remap ids
// and costs more CPU than it saves (docs/execution.md, "Numbers").
Status BuildGroups(const std::vector<std::string>& group_by,
                   PreparedInput* out, bool allow_direct = true);

// One input of MergeGroupKeys: a group-key table and its group count. A
// grouped table holds one row per group; an ungrouped one has no columns,
// so `num_groups` gives its rows.
struct GroupKeyTable {
  const Table* keys = nullptr;
  int64_t num_groups = 0;
};

// k groupings merged into one: `keys` holds one row per merged group (one
// chunk, typed copies of each group's first row), and remaps[t][g] is the
// merged id of row g of input t.
struct MergedGroupKeys {
  std::unique_ptr<Table> keys;
  int32_t num_groups = 0;
  std::vector<std::vector<int32_t>> remaps;
};

// Merges the groupings behind `tables`, in table order: a delta refresh
// extends a cached grouping with the delta's, and the chunked executor
// merges its chunks' groupings (docs/execution.md, "Incremental
// maintenance"). Ids and keys are those BuildGroups gives the tables' rows
// concatenated, so a first table of distinct keys keeps its row numbers.
// Key columns are INT64 or STRING; STRINGs compare by content, each
// table's dictionary translated into one code space once per entry.
MergedGroupKeys MergeGroupKeys(const std::vector<GroupKeyTable>& tables);

// Drives a hardcoded UDAF over its numeric argument columns one boxed row
// at a time (initialize/update per row; with opts.partitioned, one
// partition after another, their states merged via Udaf::Merge), returning
// the per-group
// final values. `args` are bound to the query's tuples (PreparedInput::
// Bind) and read in place, run by run.
Result<std::vector<double>> RunHardcodedUdaf(
    const Udaf& udaf, const std::vector<BoundColumn>& args,
    const std::vector<int32_t>& group_ids, int32_t num_groups,
    const ExecOptions& opts);

}  // namespace sudaf

#endif  // SUDAF_ENGINE_AGGREGATION_H_
