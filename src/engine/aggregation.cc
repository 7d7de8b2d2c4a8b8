#include "engine/aggregation.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/metrics.h"
#include "common/query_guard.h"
#include "common/thread_pool.h"

namespace sudaf {

Result<BoundColumn> PreparedInput::Bind(const std::string& column) const {
  SUDAF_ASSIGN_OR_RETURN(const Column* col, source->GetColumn(column));
  return BoundColumn{col, row_ids.empty() ? nullptr : row_ids.data(), base};
}

int64_t PreparedInput::ApproxBytes() const {
  int64_t bytes =
      static_cast<int64_t>(row_ids.capacity() * sizeof(int64_t) +
                           group_ids.capacity() * sizeof(int32_t));
  if (frame != nullptr) bytes += frame->ApproxBytes();
  return bytes;
}

Result<std::unique_ptr<Table>> GatherColumns(
    const std::vector<std::string>& names,
    const std::vector<BoundColumn>& columns, int64_t num_rows,
    const ExecOptions& opts) {
  const int64_t n = num_rows;
  Schema schema;
  for (size_t c = 0; c < columns.size(); ++c) {
    SUDAF_RETURN_IF_ERROR(
        schema.AddField(Field{names[c], columns[c].col->type()}));
  }
  auto frame = std::make_unique<Table>(std::move(schema));
  for (size_t c = 0; c < columns.size(); ++c) {
    frame->column(static_cast<int>(c)).PrepareGatherFrom(*columns[c].col, n);
  }

  // Parallel gather over (column × row-range) tasks; every task writes a
  // disjoint window of a prepared output column, so the result is the same
  // positional copy the serial appends produced. String columns adopt the
  // source dictionary wholesale (PrepareGatherFrom) instead of re-interning
  // row by row.
  constexpr int64_t kMinRangeRows = 16384;
  const int ranges_per_col = std::max(
      1, PlannedWorkers(opts, (n + kMinRangeRows - 1) / kMinRangeRows));
  const int64_t num_tasks =
      static_cast<int64_t>(columns.size()) * ranges_per_col;
  auto run_task = [&](int64_t task) {
    const int c = static_cast<int>(task / ranges_per_col);
    const int64_t r = task % ranges_per_col;
    const int64_t lo = n * r / ranges_per_col;
    const int64_t hi = n * (r + 1) / ranges_per_col;
    frame->column(c).GatherRange(*columns[c].col, columns[c].rows, lo, hi);
  };
  const int workers =
      std::min(PlannedWorkers(opts, num_tasks),
               ThreadPool::kMaxGlobalWorkers + 1);
  if (workers > 1) {
    ThreadPool& pool = ThreadPool::Global();
    pool.EnsureWorkers(workers - 1);
    pool.ParallelFor(num_tasks, run_task);
  } else {
    for (int64_t task = 0; task < num_tasks; ++task) run_task(task);
  }
  frame->FinishBulkAppend();
  if (opts.metrics != nullptr) {
    opts.metrics->counter("sudaf.input.gathered_bytes")
        ->Add(frame->ApproxBytes());
  }
  return frame;
}

namespace {

// 64-bit mix for composite group keys.
uint64_t MixKey(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

// Flat open-addressing table mapping composite group keys to group ids:
// linear probing over a power-of-two entry array, no per-bucket vectors.
// A key is represented by one of its frame rows; `eq` compares the key
// columns of two rows.
class GroupHashTable {
 public:
  struct Entry {
    uint64_t hash = 0;
    int64_t row = -1;   // representative frame row
    int32_t gid = -1;   // -1 => empty slot
  };

  GroupHashTable() : entries_(kInitialCapacity) {}
  // Sized so `expected` keys fit without growing.
  explicit GroupHashTable(size_t expected)
      : entries_(std::max(kInitialCapacity,
                          std::bit_ceil(expected * 10 / 7 + 1))) {}

  // Returns the group id of (h, row), inserting it as `next_gid` when new
  // (*inserted reports which happened).
  template <typename Eq>
  int32_t FindOrInsert(uint64_t h, int64_t row, int32_t next_gid,
                       const Eq& eq, bool* inserted) {
    if ((count_ + 1) * 10 >= entries_.size() * 7) Grow();
    const size_t mask = entries_.size() - 1;
    size_t idx = static_cast<size_t>(h) & mask;
    for (;;) {
      Entry& e = entries_[idx];
      if (e.gid < 0) {
        e.hash = h;
        e.row = row;
        e.gid = next_gid;
        ++count_;
        *inserted = true;
        return next_gid;
      }
      if (e.hash == h && eq(e.row, row)) {
        *inserted = false;
        return e.gid;
      }
      idx = (idx + 1) & mask;
    }
  }

 private:
  void Grow() {
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(old.size() * 2, Entry{});
    const size_t mask = entries_.size() - 1;
    for (const Entry& e : old) {
      if (e.gid < 0) continue;
      size_t idx = static_cast<size_t>(e.hash) & mask;
      while (entries_[idx].gid >= 0) idx = (idx + 1) & mask;
      entries_[idx] = e;
    }
  }

  static constexpr size_t kInitialCapacity = 1024;
  std::vector<Entry> entries_;
  size_t count_ = 0;
};

// Murmur3 finalizer: spreads MixKey's sums over the low bits the table
// indexes with, so strided keys do not cluster.
uint64_t FinalizeHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

// A key range this small always groups by direct index, even over fewer
// rows: its id table is at most 4 KiB.
constexpr int64_t kMinDirectDomain = 1024;

// Calls f(key, a, b) for each run [a, b) of tuples [lo, hi) of `b` that
// lies in one storage chunk (one run over a single-chunk column), with
// key(i) the integer code of tuple i (INT64 value or dictionary code),
// specialized on the column type and on identity vs row ids so the hot
// loops carry no per-row dispatch.
template <typename F>
void ForEachKeyRun(const BoundColumn& b, int64_t lo, int64_t hi, const F& f) {
  auto runs = [&](auto type_tag) {
    using T = decltype(type_tag);
    b.ForEachRun<T>(lo, hi, [&](const T* v, int64_t first, int64_t a,
                                int64_t z) {
      if (b.rows != nullptr) {
        const int64_t* rows = b.rows;
        f([v, rows, first](int64_t i) -> int64_t { return v[rows[i] - first]; },
          a, z);
      } else {
        const int64_t off = b.base - first;
        f([v, off](int64_t i) -> int64_t { return v[off + i]; }, a, z);
      }
    });
  };
  if (b.col->type() == DataType::kInt64) {
    runs(int64_t{});
  } else {
    runs(int32_t{});
  }
}

// Direct-index grouping: the key of tuple i takes slot key(i) - lo of a
// dense table over [lo, lo + domain), and a slot's id is assigned at its
// first occurrence.
void DirectGroups(const BoundColumn& b, int64_t lo, int64_t domain,
                  int64_t n, std::vector<int32_t>* group_ids,
                  std::vector<int64_t>* first_row) {
  int32_t* gids = group_ids->data();
  std::vector<int32_t> id_of(static_cast<size_t>(domain), -1);
  int32_t next = 0;
  ForEachKeyRun(b, 0, n, [&](const auto& key, int64_t a, int64_t z) {
    for (int64_t i = a; i < z; ++i) {
      int32_t& id = id_of[key(i) - lo];
      if (id < 0) {
        id = next++;
        first_row->push_back(i);
      }
      gids[i] = id;
    }
  });
}

// Tries the direct path for a single key column; false when its value
// range is too wide for the rows scanned (the caller then hashes).
bool TryDirectGroups(const BoundColumn& b, int64_t n,
                     std::vector<int32_t>* group_ids,
                     std::vector<int64_t>* first_row) {
  const int64_t max_domain = std::max(n, kMinDirectDomain);
  int64_t lo = 0;
  int64_t domain = 0;
  if (b.col->type() == DataType::kString) {
    domain = static_cast<int64_t>(b.col->dictionary().size());
  } else {
    lo = b.col->GetInt64(b.Row(0));
    int64_t hi = lo;
    ForEachKeyRun(b, 0, n, [&](const auto& key, int64_t a, int64_t z) {
      for (int64_t i = a; i < z; ++i) {
        const int64_t k = key(i);
        lo = std::min(lo, k);
        hi = std::max(hi, k);
      }
    });
    // Unsigned difference: hi - lo overflows int64 for extreme keys.
    const uint64_t width =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (width >= static_cast<uint64_t>(max_domain)) return false;
    domain = static_cast<int64_t>(width) + 1;
  }
  if (domain > max_domain) return false;
  DirectGroups(b, lo, domain, n, group_ids, first_row);
  return true;
}

// Hash grouping over composite keys: one table maps each key to the id it
// took at its first occurrence.
void HashGroups(const std::vector<BoundColumn>& keys, int64_t n,
                std::vector<int32_t>* group_ids,
                std::vector<int64_t>* first_row) {
  auto code_at = [&](size_t c, int64_t i) -> int64_t {
    const BoundColumn& b = keys[c];
    const int64_t row = b.Row(i);
    return b.col->type() == DataType::kInt64
               ? b.col->GetInt64(row)
               : static_cast<int64_t>(b.col->GetStringCode(row));
  };
  auto hash_row = [&](int64_t i) -> uint64_t {
    uint64_t h = 0;
    for (size_t c = 0; c < keys.size(); ++c) {
      h = MixKey(h, static_cast<uint64_t>(code_at(c, i)));
    }
    return FinalizeHash(h);
  };
  auto rows_equal = [&](int64_t a, int64_t b) -> bool {
    for (size_t c = 0; c < keys.size(); ++c) {
      if (code_at(c, a) != code_at(c, b)) return false;
    }
    return true;
  };

  GroupHashTable table;
  for (int64_t i = 0; i < n; ++i) {
    bool inserted = false;
    (*group_ids)[i] =
        table.FindOrInsert(hash_row(i), i,
                           static_cast<int32_t>(first_row->size()),
                           rows_equal, &inserted);
    if (inserted) first_row->push_back(i);
  }
}

// MatchGroupKeys for one INT64 key column over a dense value range: a
// direct id table over [lo, hi] of both columns replaces the hash, with the
// same ids and new rows. False, with nothing written, when the range is
// wider than the direct grouping allows for the rows of both tables.
bool MatchDenseKeys(const std::vector<int64_t>& keys,
                    const std::vector<int64_t>& more,
                    std::vector<int32_t>* remap,
                    std::vector<int64_t>* new_rows) {
  if (keys.empty() && more.empty()) return false;
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (const std::vector<int64_t>* col : {&keys, &more}) {
    for (int64_t k : *col) {
      lo = std::min(lo, k);
      hi = std::max(hi, k);
    }
  }
  const int64_t total = static_cast<int64_t>(keys.size() + more.size());
  // Unsigned difference: hi - lo overflows int64 for extreme keys.
  const uint64_t width = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (width >= static_cast<uint64_t>(std::max(total, kMinDirectDomain))) {
    return false;
  }
  auto slot = [lo](int64_t key) {
    return static_cast<uint64_t>(key) - static_cast<uint64_t>(lo);
  };
  std::vector<int32_t> id_of(width + 1, -1);
  for (size_t r = 0; r < keys.size(); ++r) {
    int32_t& id = id_of[slot(keys[r])];
    if (id < 0) id = static_cast<int32_t>(r);
  }
  remap->resize(more.size());
  int32_t next = static_cast<int32_t>(keys.size());
  for (size_t g = 0; g < more.size(); ++g) {
    int32_t& id = id_of[slot(more[g])];
    if (id < 0) {
      id = next++;
      new_rows->push_back(static_cast<int64_t>(g));
    }
    (*remap)[g] = id;
  }
  return true;
}

}  // namespace

std::vector<int32_t> MatchGroupKeys(const Table& keys, const Table& more,
                                    std::vector<int64_t>* new_rows) {
  const int num_cols = keys.num_columns();
  SUDAF_CHECK(more.num_columns() == num_cols);
  const int64_t n_keys = keys.num_rows();
  const int64_t n_more = more.num_rows();
  if (num_cols == 1 && keys.column(0).type() == DataType::kInt64 &&
      more.column(0).type() == DataType::kInt64) {
    std::vector<int32_t> remap;
    if (MatchDenseKeys(keys.column(0).ints(), more.column(0).ints(), &remap,
                       new_rows)) {
      return remap;
    }
  }
  // Row-major integer codes of both tables, `keys` rows first: the INT64
  // value or the STRING code in `keys`'s dictionary. A `more` string that
  // dictionary lacks gets a negative code of its own row, which no row of
  // `keys` holds.
  const int64_t total = n_keys + n_more;
  std::vector<int64_t> codes(static_cast<size_t>(total * num_cols));
  for (int c = 0; c < num_cols; ++c) {
    const Column& kc = keys.column(c);
    const Column& mc = more.column(c);
    SUDAF_CHECK(kc.type() == mc.type());
    int64_t* out = codes.data() + c;
    switch (kc.type()) {
      case DataType::kInt64:
        for (int64_t r = 0; r < n_keys; ++r) out[r * num_cols] = kc.ints()[r];
        for (int64_t r = 0; r < n_more; ++r) {
          out[(n_keys + r) * num_cols] = mc.ints()[r];
        }
        break;
      case DataType::kFloat64:
        SUDAF_CHECK_MSG(false, "FLOAT64 group key");
        break;
      case DataType::kString: {
        for (int64_t r = 0; r < n_keys; ++r) {
          out[r * num_cols] = kc.string_codes()[r];
        }
        std::vector<int32_t> to_keys(mc.dictionary().size());
        for (size_t d = 0; d < to_keys.size(); ++d) {
          to_keys[d] = kc.LookupDictionary(mc.dictionary()[d]);
        }
        for (int64_t r = 0; r < n_more; ++r) {
          const int32_t code = to_keys[mc.string_codes()[r]];
          out[(n_keys + r) * num_cols] = code >= 0 ? code : -1 - r;
        }
        break;
      }
    }
  }
  auto hash_row = [&](int64_t row) -> uint64_t {
    uint64_t h = 0;
    for (int c = 0; c < num_cols; ++c) {
      h = MixKey(h, static_cast<uint64_t>(codes[row * num_cols + c]));
    }
    return FinalizeHash(h);
  };
  auto rows_equal = [&](int64_t a, int64_t b) -> bool {
    for (int c = 0; c < num_cols; ++c) {
      if (codes[a * num_cols + c] != codes[b * num_cols + c]) return false;
    }
    return true;
  };

  GroupHashTable table(static_cast<size_t>(total));
  bool inserted = false;
  for (int64_t r = 0; r < n_keys; ++r) {
    table.FindOrInsert(hash_row(r), r, static_cast<int32_t>(r), rows_equal,
                       &inserted);
  }
  // Rows of `more` are distinct keys, so a row inserted here as new is
  // never matched by a later one.
  std::vector<int32_t> remap(static_cast<size_t>(n_more));
  int32_t next = static_cast<int32_t>(n_keys);
  for (int64_t g = 0; g < n_more; ++g) {
    const int64_t row = n_keys + g;
    remap[g] =
        table.FindOrInsert(hash_row(row), row, next, rows_equal, &inserted);
    if (inserted) {
      new_rows->push_back(g);
      ++next;
    }
  }
  return remap;
}

Status BuildGroups(const std::vector<std::string>& group_by,
                   PreparedInput* out, bool allow_direct) {
  const int64_t n = out->num_input_rows;
  out->direct_groups = false;

  if (group_by.empty()) {
    out->group_ids.assign(n, 0);
    out->num_groups = 1;
    out->group_keys = std::make_unique<Table>(Schema());
    return Status::OK();
  }

  std::vector<BoundColumn> keys;
  Schema key_schema;
  for (const std::string& name : group_by) {
    SUDAF_ASSIGN_OR_RETURN(BoundColumn key, out->Bind(name));
    if (key.col->type() == DataType::kFloat64) {
      return Status::Unimplemented("GROUP BY on FLOAT64 column: " + name);
    }
    keys.push_back(key);
    SUDAF_RETURN_IF_ERROR(key_schema.AddField(Field{name, key.col->type()}));
  }
  out->group_keys = std::make_unique<Table>(std::move(key_schema));

  // Every id is written below; resize without a fill pass when possible.
  out->group_ids.resize(n);
  std::vector<int64_t> first_row;
  if (allow_direct && keys.size() == 1 && n > 0) {
    out->direct_groups =
        TryDirectGroups(keys[0], n, &out->group_ids, &first_row);
  }
  if (!out->direct_groups) {
    HashGroups(keys, n, &out->group_ids, &first_row);
  }

  // Group keys: typed copies of each group's first row.
  out->num_groups = static_cast<int32_t>(first_row.size());
  std::vector<int64_t> key_rows(first_row.size());
  for (size_t c = 0; c < keys.size(); ++c) {
    for (size_t g = 0; g < first_row.size(); ++g) {
      key_rows[g] = keys[c].Row(first_row[g]);
    }
    out->group_keys->column(static_cast<int>(c))
        .AppendRows(*keys[c].col, key_rows.data(),
                    static_cast<int64_t>(key_rows.size()));
  }
  out->group_keys->FinishBulkAppend();
  return Status::OK();
}

Result<std::vector<double>> RunHardcodedUdaf(
    const Udaf& udaf, const std::vector<BoundColumn>& args,
    const std::vector<int32_t>& group_ids, int32_t num_groups,
    const ExecOptions& opts) {
  if (static_cast<int>(args.size()) != udaf.num_args()) {
    return Status::InvalidArgument(udaf.name() + " expects " +
                                   std::to_string(udaf.num_args()) +
                                   " argument column(s)");
  }
  const int64_t n = static_cast<int64_t>(group_ids.size());
  const int num_args = udaf.num_args();

  // Row-at-a-time driving is the slowest engine path, so the guard is
  // checked every kGuardStride rows — the row-at-a-time equivalent of the
  // fused executor's morsel-boundary check. Each stride's values are
  // boxed column by column, reading every argument run by run in place.
  constexpr int64_t kGuardStride = 4096;
  auto run_range = [&](int64_t lo, int64_t hi,
                       std::vector<std::vector<Value>>* states) -> Status {
    std::vector<std::vector<Value>> boxed(
        static_cast<size_t>(std::min(kGuardStride, hi - lo)),
        std::vector<Value>(num_args));
    for (int64_t s = lo; s < hi; s += kGuardStride) {
      if (opts.guard != nullptr) SUDAF_RETURN_IF_ERROR(opts.guard->Check());
      const int64_t e = std::min(hi, s + kGuardStride);
      // Box every input value — this is the per-row overhead hardcoded
      // UDAFs pay in real engines.
      for (int a = 0; a < num_args; ++a) {
        auto box = [&](auto type_tag) {
          using T = decltype(type_tag);
          args[a].ForEachRun<T>(s, e, [&](const T* v, int64_t first,
                                          int64_t ra, int64_t rz) {
            for (int64_t i = ra; i < rz; ++i) {
              boxed[i - s][a] = Value(v[args[a].Row(i) - first]);
            }
          });
        };
        if (args[a].col->type() == DataType::kInt64) {
          box(int64_t{});
        } else {
          box(double{});
        }
      }
      for (int64_t i = s; i < e; ++i) {
        udaf.Update(&(*states)[group_ids[i]], boxed[i - s]);
      }
    }
    return Status::OK();
  };

  auto make_states = [&]() {
    std::vector<std::vector<Value>> states(num_groups);
    for (auto& s : states) s = udaf.Initialize();
    return states;
  };

  std::vector<std::vector<Value>> final_states;
  if (!opts.partitioned || opts.num_partitions <= 1) {
    final_states = make_states();
    SUDAF_RETURN_IF_ERROR(run_range(0, n, &final_states));
  } else {
    const int parts = opts.num_partitions;
    std::vector<std::vector<std::vector<Value>>> partials(parts);
    for (int p = 0; p < parts; ++p) partials[p] = make_states();
    for (int p = 0; p < parts; ++p) {
      SUDAF_RETURN_IF_ERROR(
          run_range(n * p / parts, n * (p + 1) / parts, &partials[p]));
    }
    final_states = std::move(partials[0]);
    for (int p = 1; p < parts; ++p) {
      for (int32_t g = 0; g < num_groups; ++g) {
        udaf.Merge(&final_states[g], partials[p][g]);
      }
    }
  }

  std::vector<double> out(num_groups);
  for (int32_t g = 0; g < num_groups; ++g) {
    SUDAF_ASSIGN_OR_RETURN(Value v, udaf.Evaluate(final_states[g]));
    out[g] = v.AsDouble();
  }
  return out;
}

}  // namespace sudaf
