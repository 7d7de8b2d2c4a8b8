#include "engine/aggregation.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string_view>
#include <unordered_map>

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

// Flat open-addressing table mapping composite key codes to group ids:
// linear probing over a power-of-two slot array, no per-bucket vectors.
// A slot holds a group id and the high half of its hash; each group's
// codes and full hash live in dense arrays indexed by id, so the table
// never reads the tuples a key came from.
class GroupHashTable {
 public:
  explicit GroupHashTable(size_t num_keys)
      : num_keys_(num_keys), slots_(kInitialCapacity) {}

  // Returns the group id of `key` (num_keys codes), adding it as the next
  // id when new (*inserted reports which happened).
  int32_t FindOrInsert(const int64_t* key, bool* inserted) {
    uint64_t h = 0;
    for (size_t c = 0; c < num_keys_; ++c) {
      h = MixKey(h, static_cast<uint64_t>(key[c]));
    }
    h = FinalizeHash(h);
    if ((hashes_.size() + 1) * 10 >= slots_.size() * 7) Grow();
    const size_t mask = slots_.size() - 1;
    const uint32_t tag = static_cast<uint32_t>(h >> 32);
    for (size_t idx = static_cast<size_t>(h) & mask;;
         idx = (idx + 1) & mask) {
      Slot& s = slots_[idx];
      if (s.gid < 0) {
        s.tag = tag;
        s.gid = static_cast<int32_t>(hashes_.size());
        hashes_.push_back(h);
        codes_.insert(codes_.end(), key, key + num_keys_);
        *inserted = true;
        return s.gid;
      }
      if (s.tag == tag &&
          std::equal(key, key + num_keys_,
                     codes_.data() + static_cast<size_t>(s.gid) * num_keys_)) {
        *inserted = false;
        return s.gid;
      }
    }
  }

 private:
  struct Slot {
    uint32_t tag = 0;
    int32_t gid = -1;  // -1 => empty slot
  };

  void Grow() {
    slots_.assign(slots_.size() * 2, Slot{});
    const size_t mask = slots_.size() - 1;
    for (size_t g = 0; g < hashes_.size(); ++g) {
      size_t idx = static_cast<size_t>(hashes_[g]) & mask;
      while (slots_[idx].gid >= 0) idx = (idx + 1) & mask;
      slots_[idx] = Slot{static_cast<uint32_t>(hashes_[g] >> 32),
                         static_cast<int32_t>(g)};
    }
  }

  static constexpr size_t kInitialCapacity = 1024;
  size_t num_keys_;
  std::vector<Slot> slots_;
  std::vector<uint64_t> hashes_;  // per group id
  std::vector<int64_t> codes_;    // per group id, num_keys_ codes each
};

// A key range this small always groups by direct index, even over fewer
// tuples: its id table is at most 4 KiB.
constexpr int64_t kMinDirectDomain = 1024;

// One key column of a grouping, read in place as integer codes: the INT64
// value, or the STRING dictionary code — translated through `to_code`
// when set, so several columns' codes share one space.
struct KeyCodes {
  BoundColumn col;
  const int32_t* to_code = nullptr;
  // STRING: codes lie in [0, num_codes). INT64: -1, the range is scanned.
  int64_t num_codes = -1;
};

// The tuples of one input of the kernel: its key columns (all over `rows`
// tuples) and where their group ids go.
struct KeyPart {
  std::vector<KeyCodes> keys;
  int64_t rows = 0;
  int32_t* ids = nullptr;
};

// Calls f(key, a, b) for each run [a, b) of tuples [lo, hi) of `k` that
// lies in one storage chunk (one run over a single-chunk column), with
// key(i) the integer code of tuple i, specialized on the column type, on
// identity vs row ids and on the translation so the hot loops carry no
// per-row dispatch.
template <typename F>
void ForEachKeyRun(const KeyCodes& k, int64_t lo, int64_t hi, const F& f) {
  const BoundColumn& b = k.col;
  auto runs = [&](auto type_tag, auto code) {
    using T = decltype(type_tag);
    b.ForEachRun<T>(lo, hi, [&](const T* v, int64_t first, int64_t a,
                                int64_t z) {
      if (b.rows != nullptr) {
        const int64_t* rows = b.rows;
        f([v, rows, first, code](int64_t i) -> int64_t {
          return code(v[rows[i] - first]);
        }, a, z);
      } else {
        const int64_t off = b.base - first;
        f([v, off, code](int64_t i) -> int64_t { return code(v[off + i]); },
          a, z);
      }
    });
  };
  auto same = [](int64_t c) { return c; };
  if (b.col->type() == DataType::kInt64) {
    runs(int64_t{}, same);
  } else if (k.to_code == nullptr) {
    runs(int32_t{}, same);
  } else {
    const int32_t* to = k.to_code;
    runs(int32_t{}, [to](int64_t c) -> int64_t { return to[c]; });
  }
}

// The direct-index loop over tuples [a, z) of a run: tuple i takes the id
// in slot key(i) - lo of `id_of`, and a slot's first occurrence sets it
// to `next` and records tuple offset + i at first[next]. Returns the next
// free id. `first` is a plain buffer rather than a vector, and the loop's
// state arrives as parameters, so nothing the loop reads lives in memory
// a store of the loop could change.
template <typename Key>
int32_t DirectIds(const Key& key, int64_t a, int64_t z, int64_t lo,
                  int64_t offset, int32_t* id_of, int32_t next, int32_t* ids,
                  int64_t* first) {
  for (int64_t i = a; i < z; ++i) {
    int32_t& slot = id_of[key(i) - lo];
    if (slot < 0) {
      slot = next;
      first[next++] = offset + i;
    }
    ids[i] = slot;
  }
  return next;
}

// The grouping kernel: assigns each tuple of `parts` (numbered in part
// order, then tuple order) the id its key took at its first occurrence,
// and appends every group's first tuple number to `*first`. Returns true
// when the direct-index loop ran: one key column whose code range is
// narrower than max(tuples, kMinDirectDomain), unless !allow_direct.
// Every other grouping runs the hash loop, which gathers each block of
// tuples' codes into a small buffer first.
bool GroupKeyCodes(const std::vector<KeyPart>& parts, bool allow_direct,
                   std::vector<int64_t>* first) {
  int64_t total = 0;
  for (const KeyPart& p : parts) total += p.rows;
  const size_t num_keys = parts.empty() ? 0 : parts[0].keys.size();

  if (allow_direct && num_keys == 1 && total > 0) {
    const int64_t max_domain = std::max(total, kMinDirectDomain);
    int64_t lo = 0;
    int64_t domain = parts[0].keys[0].num_codes;
    if (domain < 0) {
      lo = std::numeric_limits<int64_t>::max();
      int64_t hi = std::numeric_limits<int64_t>::min();
      for (const KeyPart& p : parts) {
        ForEachKeyRun(p.keys[0], 0, p.rows,
                      [&](const auto& key, int64_t a, int64_t z) {
                        for (int64_t i = a; i < z; ++i) {
                          const int64_t k = key(i);
                          lo = std::min(lo, k);
                          hi = std::max(hi, k);
                        }
                      });
      }
      // Unsigned difference: hi - lo overflows int64 for extreme keys.
      const uint64_t width =
          static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
      domain = width < static_cast<uint64_t>(max_domain)
                   ? static_cast<int64_t>(width) + 1
                   : max_domain + 1;
    }
    if (domain <= max_domain) {
      std::vector<int32_t> id_of(static_cast<size_t>(domain), -1);
      // Room for the most groups there can be, min(domain, total), left
      // uninitialized, so only the entries written are touched.
      const std::unique_ptr<int64_t[]> firsts(
          new int64_t[std::min(domain, total)]);
      int32_t next = 0;
      int64_t offset = 0;
      for (const KeyPart& p : parts) {
        ForEachKeyRun(p.keys[0], 0, p.rows,
                      [&](const auto& key, int64_t a, int64_t z) {
                        next = DirectIds(key, a, z, lo, offset, id_of.data(),
                                         next, p.ids, firsts.get());
                      });
        offset += p.rows;
      }
      first->insert(first->end(), firsts.get(), firsts.get() + next);
      return true;
    }
  }

  constexpr int64_t kBlock = 256;
  std::vector<int64_t> block(static_cast<size_t>(kBlock) * num_keys);
  GroupHashTable table(num_keys);
  int64_t offset = 0;
  for (const KeyPart& p : parts) {
    for (int64_t s = 0; s < p.rows; s += kBlock) {
      const int64_t e = std::min(p.rows, s + kBlock);
      for (size_t c = 0; c < num_keys; ++c) {
        int64_t* out = block.data() + c;
        ForEachKeyRun(p.keys[c], s, e,
                      [&](const auto& key, int64_t a, int64_t z) {
                        for (int64_t i = a; i < z; ++i) {
                          out[(i - s) * num_keys] = key(i);
                        }
                      });
      }
      for (int64_t i = s; i < e; ++i) {
        bool inserted = false;
        p.ids[i] = table.FindOrInsert(block.data() + (i - s) * num_keys,
                                      &inserted);
        if (inserted) first->push_back(offset + i);
      }
    }
    offset += p.rows;
  }
  return false;
}

}  // namespace

MergedGroupKeys MergeGroupKeys(const std::vector<GroupKeyTable>& tables) {
  SUDAF_CHECK(!tables.empty());
  const Table& head = *tables[0].keys;
  const int num_cols = head.num_columns();
  const size_t k = tables.size();

  // STRING codes of every table in one space: the first table's dictionary
  // codes, then each string it lacks numbered at its first appearance in a
  // later table's dictionary.
  std::vector<std::vector<std::vector<int32_t>>> to_code(num_cols);
  std::vector<int64_t> num_codes(num_cols, -1);
  for (int c = 0; c < num_cols; ++c) {
    const Column& hc = head.column(c);
    SUDAF_CHECK_MSG(hc.type() != DataType::kFloat64, "FLOAT64 group key");
    for (const GroupKeyTable& t : tables) {
      SUDAF_CHECK(t.keys->num_columns() == num_cols &&
                  t.keys->column(c).type() == hc.type());
    }
    if (hc.type() != DataType::kString) continue;
    to_code[c].resize(k);
    std::unordered_map<std::string_view, int32_t> extra;
    int32_t next = static_cast<int32_t>(hc.dictionary().size());
    for (size_t t = 1; t < k; ++t) {
      const std::vector<std::string>& dict =
          tables[t].keys->column(c).dictionary();
      std::vector<int32_t>& to = to_code[c][t];
      to.resize(dict.size());
      for (size_t d = 0; d < dict.size(); ++d) {
        int32_t code = hc.LookupDictionary(dict[d]);
        if (code < 0) {
          code = extra.try_emplace(dict[d], next).first->second;
          if (code == next) ++next;
        }
        to[d] = code;
      }
    }
    num_codes[c] = next;
  }

  MergedGroupKeys out;
  out.remaps.resize(k);
  std::vector<KeyPart> parts(k);
  for (size_t t = 0; t < k; ++t) {
    const Table& keys = *tables[t].keys;
    KeyPart& p = parts[t];
    p.rows = num_cols > 0 ? keys.num_rows() : tables[t].num_groups;
    out.remaps[t].resize(static_cast<size_t>(p.rows));
    p.ids = out.remaps[t].data();
    for (int c = 0; c < num_cols; ++c) {
      p.keys.push_back(KeyCodes{
          BoundColumn{&keys.column(c)},
          t > 0 && !to_code[c].empty() ? to_code[c][t].data() : nullptr,
          num_codes[c]});
    }
  }
  std::vector<int64_t> first;
  GroupKeyCodes(parts, /*allow_direct=*/true, &first);
  out.num_groups = static_cast<int32_t>(first.size());

  // Key rows in id order: each table's new groups follow the earlier
  // tables', so first[] walks the tables in order. A table whose every row
  // is new is copied in bulk.
  out.keys = std::make_unique<Table>(head.schema());
  out.keys->Reserve(out.num_groups);
  auto f = first.begin();
  int64_t offset = 0;
  for (size_t t = 0; t < k; ++t) {
    const int64_t end = offset + parts[t].rows;
    const auto from = f;
    f = std::lower_bound(from, first.end(), end);
    const bool all_new = f - from == parts[t].rows;
    std::vector<int64_t> rows;
    if (!all_new) {
      for (auto g = from; g != f; ++g) rows.push_back(*g - offset);
    }
    for (int c = 0; c < num_cols; ++c) {
      Column& dst = out.keys->column(c);
      const Column& src = tables[t].keys->column(c);
      if (all_new) {
        dst.AppendColumn(src);
      } else {
        dst.AppendRows(src, rows.data(), static_cast<int64_t>(rows.size()));
      }
    }
    offset = end;
  }
  out.keys->FinishBulkAppend();
  return out;
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

  std::vector<KeyCodes> keys;
  Schema key_schema;
  for (const std::string& name : group_by) {
    SUDAF_ASSIGN_OR_RETURN(BoundColumn key, out->Bind(name));
    if (key.col->type() == DataType::kFloat64) {
      return Status::Unimplemented("GROUP BY on FLOAT64 column: " + name);
    }
    const int64_t num_codes =
        key.col->type() == DataType::kString
            ? static_cast<int64_t>(key.col->dictionary().size())
            : -1;
    keys.push_back(KeyCodes{key, nullptr, num_codes});
    SUDAF_RETURN_IF_ERROR(key_schema.AddField(Field{name, key.col->type()}));
  }
  out->group_keys = std::make_unique<Table>(std::move(key_schema));

  // Every id is written below; resize without a fill pass when possible.
  out->group_ids.resize(n);
  std::vector<int64_t> first_row;
  out->direct_groups = GroupKeyCodes({KeyPart{keys, n, out->group_ids.data()}},
                                     allow_direct, &first_row);

  // Group keys: typed copies of each group's first row.
  out->num_groups = static_cast<int32_t>(first_row.size());
  std::vector<int64_t> key_rows(first_row.size());
  for (size_t c = 0; c < keys.size(); ++c) {
    const BoundColumn& b = keys[c].col;
    for (size_t g = 0; g < first_row.size(); ++g) {
      key_rows[g] = b.Row(first_row[g]);
    }
    out->group_keys->column(static_cast<int>(c))
        .AppendRows(*b.col, key_rows.data(),
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
