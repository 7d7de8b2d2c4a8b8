#include "engine/state_batch.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <numbers>
#include <string>
#include <thread>

#include "agg/builtin_kernels.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/query_guard.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "engine/slot_program.h"
#include "storage/column.h"

namespace sudaf {

namespace {

// One distinct accumulation channel of the fused pass.
struct Channel {
  AggOp op = AggOp::kSum;
  int slot = -1;  // -1 for count()
  // Log-product channel (a Σ ln y channel, docs/execution.md, "Log-free
  // log channels"): it reads y from slot `log_src` (|y| when `log_abs`)
  // and accumulates its mantissa product and exponent sum, so the ln slot
  // itself is evaluated only if something else reads it. `log_index`
  // numbers the pass's log-product channels; -1 for every other channel.
  int log_src = -1;
  bool log_abs = false;
  int log_index = -1;
};

// Compiles the input expressions of all requested channels into one
// SlotProgram, so channels share subexpressions (sum(x) and sum(x*y)
// produce one column-x slot) and power chains, and dedups channels.
class BatchPlan {
 public:
  Status Build(const std::vector<StateBatchRequest>& requests,
               const ColumnBinder& binder);

  const SlotProgram& program() const { return program_; }
  const std::vector<Channel>& channels() const { return channels_; }
  const std::vector<int>& request_channel() const { return request_channel_; }
  int num_log_product_channels() const { return num_log_products_; }

 private:
  void PlanEvaluation();

  SlotProgram program_;
  std::vector<Channel> channels_;
  std::map<std::string, int> channel_memo_;
  std::vector<int> request_channel_;
  int num_log_products_ = 0;
};

Status BatchPlan::Build(const std::vector<StateBatchRequest>& requests,
                        const ColumnBinder& binder) {
  request_channel_.reserve(requests.size());
  for (const StateBatchRequest& req : requests) {
    int slot = -1;
    if (req.op != AggOp::kCount) {
      if (req.input == nullptr) {
        return Status::InvalidArgument(
            "aggregation state without an input expression");
      }
      SUDAF_ASSIGN_OR_RETURN(
          slot, program_.Add(*req.input, SlotLeaves{&binder, 0}));
    }
    std::string key =
        std::to_string(static_cast<int>(req.op)) + "|" + std::to_string(slot);
    auto [it, inserted] =
        channel_memo_.emplace(key, static_cast<int>(channels_.size()));
    if (inserted) channels_.push_back(Channel{req.op, slot});
    request_channel_.push_back(it->second);
  }
  PlanEvaluation();
  return Status::OK();
}

// Every Σ ln y channel becomes a log-product channel, whatever else shares
// the pass, so a channel's bits never depend on its plan-mates (batch vs.
// solo identity). An abs() directly under the ln folds into the channel
// too. The ln slot itself is then evaluated only if something else reads
// it.
void BatchPlan::PlanEvaluation() {
  const std::vector<Slot>& slots = program_.slots();
  for (Channel& ch : channels_) {
    if (ch.slot < 0) continue;
    const Slot& s = slots[ch.slot];
    if (ch.op == AggOp::kSum && s.kind == Slot::Kind::kLog) {
      ch.log_src = s.a;
      if (slots[s.a].kind == Slot::Kind::kAbs) {
        ch.log_src = slots[s.a].a;
        ch.log_abs = true;
      }
      ch.log_index = num_log_products_++;
      program_.MarkRoot(ch.log_src);
    } else {
      program_.MarkRoot(ch.slot);
    }
  }
  program_.Finish();
}

// --- Log-product channels ---------------------------------------------------
//
// A Σ ln y channel keeps, per group of a chunk block, the product m of the
// y's mantissas and the sum e of their binary exponents: ln maps (ℝ⁺, ×)
// onto (ℝ, +), so Σ ln y = ln m + e·ln 2. m starts at 1 and stays below
// 2^513: each factor is in [1, 2), and m is renormalized with frexp once it
// passes 2^512. e is an integer, so it is exact. The block converts once
// per group when it finishes, before the ⊕-merge of the chunk tree, so the
// merged value, the cache and its format are those of the per-row sum.
// Special values ride in m, where ln gives what the per-row sum would: a
// ±0 factor makes m 0 (−inf), +inf makes it +inf, and NaN or y < 0 makes
// it NaN, as does 0 with +inf.

struct LogAcc {
  double m = 1.0;
  int64_t e = 0;
};

constexpr uint64_t kSignBit = uint64_t{1} << 63;
constexpr uint64_t kExpBits = 0x7ff0000000000000;
constexpr uint64_t kFracBits = 0x000fffffffffffff;
constexpr uint64_t kOneBits = 0x3ff0000000000000;   // 1.0
constexpr uint64_t kMinNormal = 0x0010000000000000;  // 2^-1022

// The mantissa factor of y outside the positive normal range, with its
// exponent in *e: a special value as its own factor (exponent 0), or a
// subnormal scaled into the normal range exactly.
double SplitNonNormal(double y, int64_t* e) {
  *e = 0;
  if (y == 0.0) return 0.0;
  if (!(y > 0.0)) return std::numeric_limits<double>::quiet_NaN();
  if (y == std::numeric_limits<double>::infinity()) return y;
  const uint64_t bits = std::bit_cast<uint64_t>(y * 0x1p64);
  *e = static_cast<int64_t>(bits >> 52) - 1023 - 64;
  return std::bit_cast<double>((bits & kFracBits) | kOneBits);
}

template <bool kAbs>
void AccumulateLogProduct(const double* in, const int32_t* g, int64_t len,
                          LogAcc* acc) {
  for (int64_t r = 0; r < len; ++r) {
    uint64_t bits = std::bit_cast<uint64_t>(in[r]);
    if constexpr (kAbs) bits &= ~kSignBit;
    double f;
    int64_t ex;
    if (bits - kMinNormal < kExpBits - kMinNormal) {  // positive normal
      f = std::bit_cast<double>((bits & kFracBits) | kOneBits);
      ex = static_cast<int64_t>(bits >> 52) - 1023;
    } else {
      f = SplitNonNormal(std::bit_cast<double>(bits), &ex);
    }
    LogAcc& a = acc[g[r]];
    a.m *= f;
    a.e += ex;
    if (a.m >= 0x1p512 && a.m < std::numeric_limits<double>::infinity()) {
      int k;
      a.m = 2.0 * std::frexp(a.m, &k);
      a.e += k - 1;
    }
  }
}

// ln(m·2^e), once per group of a finished block. ln 2 is split into hi and
// lo parts and n·hi's rounding error is recovered by fma, so the result
// is within about one rounding of the exact value.
double LogOfScaled(LogAcc a) {
  if (!(a.m > 0.0) || a.m == std::numeric_limits<double>::infinity()) {
    return std::log(a.m);  // −inf, +inf or NaN
  }
  constexpr double kLn2Hi = std::numbers::ln2;        // ln 2 rounded
  constexpr double kLn2Lo = 0x1.abc9e3b39803fp-56;     // ln 2 − kLn2Hi
  constexpr double kSqrtHalf = 0x1.6a09e667f3bcdp-1;   // √½
  int k;
  double f = std::frexp(a.m, &k);  // m = f·2^k, f ∈ [1/2, 1)
  if (f < kSqrtHalf) {
    f *= 2.0;
    --k;
  }  // f ∈ [√½, √2), so |ln f| ≤ ln2/2
  const double n = static_cast<double>(a.e + k);
  const double p = n * kLn2Hi;
  return p + (std::fma(n, kLn2Hi, -p) + n * kLn2Lo + std::log(f));
}

// Converts a finished block's log-product channels to Σ ln y.
void FinishLogProducts(const BatchPlan& plan, int32_t num_groups,
                       double* acc, const LogAcc* logs) {
  const std::vector<Channel>& channels = plan.channels();
  for (size_t c = 0; c < channels.size(); ++c) {
    if (channels[c].log_index < 0) continue;
    double* out = acc + c * static_cast<size_t>(num_groups);
    const LogAcc* in =
        logs + channels[c].log_index * static_cast<size_t>(num_groups);
    for (int32_t g = 0; g < num_groups; ++g) out[g] = LogOfScaled(in[g]);
  }
}

// Folds rows [lo, lo+len) into `acc`, the num_channels × num_groups block
// of the accumulation chunk that owns them; `logs` holds the block's
// log-product accumulators, one num_groups row per log-product channel.
void AccumulateVector(const BatchPlan& plan, const SlotBuffers& w,
                      const int32_t* group_ids, int64_t lo, int64_t len,
                      int32_t num_groups, double* acc, LogAcc* logs) {
  const std::vector<Channel>& channels = plan.channels();
  const int32_t* g = group_ids + lo;
  for (size_t c = 0; c < channels.size(); ++c) {
    const Channel& ch = channels[c];
    double* a = acc + c * static_cast<size_t>(num_groups);
    if (ch.log_index >= 0) {
      LogAcc* la = logs + ch.log_index * static_cast<size_t>(num_groups);
      if (ch.log_abs) {
        AccumulateLogProduct<true>(w.ptr[ch.log_src], g, len, la);
      } else {
        AccumulateLogProduct<false>(w.ptr[ch.log_src], g, len, la);
      }
      continue;
    }
    switch (ch.op) {
      case AggOp::kSum: {
        const double* in = w.ptr[ch.slot];
        for (int64_t r = 0; r < len; ++r) a[g[r]] += in[r];
        break;
      }
      case AggOp::kProd: {
        const double* in = w.ptr[ch.slot];
        for (int64_t r = 0; r < len; ++r) a[g[r]] *= in[r];
        break;
      }
      case AggOp::kCount:
        for (int64_t r = 0; r < len; ++r) a[g[r]] += 1.0;
        break;
      case AggOp::kMin: {
        const double* in = w.ptr[ch.slot];
        for (int64_t r = 0; r < len; ++r) {
          a[g[r]] = std::min(a[g[r]], in[r]);
        }
        break;
      }
      case AggOp::kMax: {
        const double* in = w.ptr[ch.slot];
        for (int64_t r = 0; r < len; ++r) {
          a[g[r]] = std::max(a[g[r]], in[r]);
        }
        break;
      }
    }
  }
}

}  // namespace

Result<std::vector<std::vector<double>>> ComputeStateBatch(
    const std::vector<StateBatchRequest>& requests,
    const ColumnBinder& binder, const std::vector<int32_t>& group_ids,
    int32_t num_groups, const ExecOptions& opts,
    const StateBatchIncremental* inc) {
  const int64_t n = static_cast<int64_t>(group_ids.size());

  BatchPlan plan;
  SUDAF_RETURN_IF_ERROR(plan.Build(requests, binder));

  const int64_t morsel = std::max(1, opts.morsel_size);
  // Longest possible vector.
  const int64_t buf_len = std::min({kVector, morsel, n});
  const int64_t num_channels = static_cast<int64_t>(plan.channels().size());
  const int64_t num_logs = plan.num_log_product_channels();
  const std::vector<Channel>& channels = plan.channels();

  // Segment layout of the pass: each segment (an append generation of the
  // base table, mapped into this pass's filtered-row space by the caller)
  // is morselized and chunked independently. Empty segments contribute
  // nothing — they must be skipped rather than folded as identity blocks,
  // or ⊕-ing the identity would flip signed zeros.
  std::vector<int64_t> seg_ends;
  if (inc != nullptr && !inc->segment_ends.empty()) {
    seg_ends = inc->segment_ends;
    int64_t prev = 0;
    for (int64_t e : seg_ends) {
      if (e < prev || e > n) {
        return Status::InvalidArgument(
            "state batch segment ends are not an ascending partition of the "
            "input rows");
      }
      prev = e;
    }
    if (seg_ends.back() != n) {
      return Status::InvalidArgument(
          "state batch segment ends do not cover the input (last end " +
          std::to_string(seg_ends.back()) + ", rows " + std::to_string(n) +
          ")");
    }
  } else {
    seg_ends.assign(1, n);
  }

  // Per-channel initial accumulators for a refresh pass. Requests that
  // dedup onto one channel must agree bitwise; a refresh pass must cover
  // every channel (a channel starting from identity instead of its prefix
  // state would silently drop the old rows).
  std::vector<const std::vector<double>*> channel_init(channels.size(),
                                                       nullptr);
  bool has_init = false;
  if (inc != nullptr && !inc->init.empty()) {
    if (inc->init.size() != requests.size()) {
      return Status::InvalidArgument(
          "state batch init accumulators do not match the request count");
    }
    for (size_t r = 0; r < requests.size(); ++r) {
      const std::vector<double>* iv = inc->init[r];
      if (iv == nullptr) continue;
      if (static_cast<int64_t>(iv->size()) != num_groups) {
        return Status::InvalidArgument(
            "state batch init accumulator has " +
            std::to_string(iv->size()) + " groups, pass has " +
            std::to_string(num_groups));
      }
      const int ch = plan.request_channel()[r];
      if (channel_init[ch] == nullptr) {
        channel_init[ch] = iv;
        has_init = true;
      } else if (channel_init[ch] != iv && num_groups > 0 &&
                 std::memcmp(channel_init[ch]->data(), iv->data(),
                             static_cast<size_t>(num_groups) *
                                 sizeof(double)) != 0) {
        return Status::InvalidArgument(
            "conflicting init accumulators for one deduplicated channel");
      }
    }
    if (has_init) {
      for (size_t c = 0; c < channels.size(); ++c) {
        if (channel_init[c] == nullptr) {
          return Status::InvalidArgument(
              "refresh pass is missing an init accumulator for a channel");
        }
      }
    }
  }

  // Fixed accumulation tree (the bit-identity contract): each segment's
  // rows fold into a bounded number of contiguous chunk blocks, and blocks
  // merge with ⊕ in (segment, chunk) order. The *logical* chunk layout is
  // a pure function of the segment layout and morsel size — NEVER of the
  // worker count, NEVER of the number of channels in the plan, and NEVER
  // of the group count — so any thread count (including 1) produces
  // bitwise-identical states, a channel computed inside a wide union plan
  // (a shared-scan batch fusing several queries) chunks exactly like the
  // same channel computed alone, and a delta refresh that folds only the
  // suffix segments onto the cached prefix state reproduces the cold full
  // pass bit for bit even though the two passes see different group
  // counts. A single-chunk pass (input ≤ one morsel, e.g. most tests)
  // degenerates to the exact serial accumulation order.
  const int64_t kMaxChunks = 64;  // = kMaxGlobalWorkers: enough parallelism
  struct Chunk {
    int64_t lo = 0;
    int64_t hi = 0;
  };
  std::vector<Chunk> chunks;
  int64_t num_morsels = 0;
  int64_t seg_lo = 0;
  for (int64_t seg_hi : seg_ends) {
    const int64_t seg_rows = seg_hi - seg_lo;
    if (seg_rows <= 0) continue;
    const int64_t seg_morsels = (seg_rows + morsel - 1) / morsel;
    num_morsels += seg_morsels;
    const int64_t k = std::min(seg_morsels, kMaxChunks);
    for (int64_t c = 0; c < k; ++c) {
      const int64_t m_first = seg_morsels * c / k;
      const int64_t m_last = seg_morsels * (c + 1) / k;
      chunks.push_back(Chunk{seg_lo + m_first * morsel,
                             std::min(seg_lo + m_last * morsel, seg_hi)});
    }
    seg_lo = seg_hi;
  }
  const int64_t total_chunks = static_cast<int64_t>(chunks.size());

  // The logical chunk count above is unbounded in num_groups, so the
  // memory bound moves to the *physical* blocks: at most `wave` blocks
  // (~4 MiB per channel) are resident at once, and logical chunks are
  // processed in waves of that width, each wave folding into the running
  // merged state in chunk order — arithmetic identical to materializing
  // every block. The bound is per channel (total scratch grows linearly
  // with plan width) precisely so it cannot make chunking depend on which
  // other channels share the pass.
  const int64_t block_bytes =
      static_cast<int64_t>(num_groups) *
      (num_channels * static_cast<int64_t>(sizeof(double)) +
       num_logs * static_cast<int64_t>(sizeof(LogAcc)));
  int64_t wave = std::max<int64_t>(total_chunks, 1);
  if (num_groups > 0) {
    const int64_t per_channel_budget = int64_t{4} << 20;
    wave = std::min(wave,
                    std::max<int64_t>(1, per_channel_budget /
                                             (static_cast<int64_t>(num_groups) *
                                              static_cast<int64_t>(
                                                  sizeof(double)))));
  }

  const int workers =
      std::min(PlannedWorkers(opts, std::min(total_chunks, wave)),
               ThreadPool::kMaxGlobalWorkers + 1);

  // Admit the pass's scratch footprint against the query's memory budget
  // before allocating: per worker, one buffer per evaluated non-alias
  // slot, plus the shared chunk block with its log-product accumulators.
  if (opts.guard != nullptr) {
    int64_t buffered_slots = 0;
    for (size_t i = 0; i < plan.program().slots().size(); ++i) {
      if (plan.program().evaluated(i) &&
          !SlotAliases(plan.program().slots()[i])) {
        ++buffered_slots;
      }
    }
    const int64_t scratch_bytes =
        static_cast<int64_t>(workers) * buffered_slots * buf_len *
            static_cast<int64_t>(sizeof(double)) +
        wave * block_bytes;
    SUDAF_RETURN_IF_ERROR(opts.guard->ChargeMemory(scratch_bytes));
  }

  // One span covers the whole fused pass (workers attach their per-morsel
  // events to it); the registry records pass-level totals. `threads_used`
  // is a histogram + per-pass event (not a gauge): chunked queries run many
  // passes and a gauge would only ever report the last one.
  TraceSpan pass_span(opts.trace, "fused_pass", opts.trace_span);
  if (opts.metrics != nullptr) {
    opts.metrics->counter("sudaf.fused.passes")->Add();
    opts.metrics->counter("sudaf.fused.morsels")->Add(num_morsels);
    opts.metrics->counter("sudaf.fused.channels")->Add(num_channels);
    opts.metrics->counter("sudaf.fused.slots")
        ->Add(plan.program().num_evaluated_slots());
    opts.metrics->counter("sudaf.fused.shared_slots")
        ->Add(plan.program().num_shared_slots());
    opts.metrics->counter("sudaf.fused.log_product_channels")->Add(num_logs);
    opts.metrics->histogram("sudaf.fused.threads_used")
        ->Observe(static_cast<double>(workers));
  }
  pass_span.Event("threads_used", workers);
  if (num_logs > 0) pass_span.Event("log_product_channels", num_logs);
  Histogram* morsel_rows =
      opts.metrics != nullptr
          ? opts.metrics->histogram("sudaf.fused.morsel_rows")
          : nullptr;

  std::vector<double> chunk_acc(
      static_cast<size_t>(wave * num_channels * num_groups));
  std::vector<LogAcc> chunk_logs(
      static_cast<size_t>(wave * num_logs * num_groups));

  // Per-worker observability buffers: morsel events carry lock-free
  // timestamps and splice into the trace ring once at pass end; histogram
  // observations batch the same way. Neither takes a lock inside the loop.
  std::vector<std::vector<QueryTrace::PendingEvent>> worker_events(workers);
  std::vector<int64_t> worker_full_morsels(workers, 0);
  std::vector<std::vector<int64_t>> worker_partial_morsels(workers);

  // The merged state: starts as the init accumulators (refresh pass) or as
  // a bitwise copy of the first chunk block (cold pass — not identity ⊕
  // chunk 0: with a single chunk the copy reproduces the serial
  // accumulation bit-for-bit, including signed-zero cases where
  // 0.0 + (-0.0) would lose the sign).
  std::vector<std::vector<double>> merged(channels.size());
  bool merged_seeded = false;
  if (has_init) {
    for (size_t c = 0; c < channels.size(); ++c) {
      merged[c] = *channel_init[c];
    }
    merged_seeded = true;
  }

  // Workers claim whole chunks of the current wave from an atomic counter
  // (dynamic scheduling: a straggling worker no longer bounds the pass the
  // way the old static range split did) and fold each chunk's morsels into
  // that chunk's block; after each wave the blocks merge with ⊕ into the
  // running state in chunk order.
  std::vector<SlotBuffers> evals(workers);
  std::vector<char> eval_ready(workers, 0);
  for (int64_t wave_lo = 0; wave_lo < total_chunks; wave_lo += wave) {
    const int64_t wave_cnt = std::min(wave, total_chunks - wave_lo);
    std::atomic<int64_t> next_block{0};
    auto run_worker = [&](int64_t wi) -> Status {
      SlotBuffers& we = evals[wi];
      if (!eval_ready[wi]) {
        we.Init(plan.program(), buf_len);
        eval_ready[wi] = 1;
      }
      for (;;) {
        const int64_t b = next_block.fetch_add(1, std::memory_order_relaxed);
        if (b >= wave_cnt) break;
        const Chunk ck = chunks[wave_lo + b];
        double* acc = chunk_acc.data() + b * num_channels * num_groups;
        LogAcc* logs = chunk_logs.data() + b * num_logs * num_groups;
        for (int64_t ch = 0; ch < num_channels; ++ch) {
          std::fill_n(acc + ch * num_groups, num_groups,
                      AggIdentity(channels[ch].op));
        }
        std::fill_n(logs, num_logs * num_groups, LogAcc{});
        for (int64_t lo = ck.lo; lo < ck.hi; lo += morsel) {
          // Morsel boundary: fault-injection site, then the query guard
          // (cancellation / deadline). A trip here aborts the whole pass
          // with a typed error before any result is produced.
          SUDAF_FAILPOINT("state_batch:morsel");
          if (opts.guard != nullptr) {
            SUDAF_RETURN_IF_ERROR(opts.guard->Check());
          }
          const int64_t len = std::min(morsel, ck.hi - lo);
          // Each (channel, group) pair takes its rows in row order
          // whatever the vector length, so no answer depends on kVector.
          for (int64_t v = lo; v < lo + len; v += kVector) {
            const int64_t vlen = std::min(kVector, lo + len - v);
            EvalVector(plan.program(), &we, v, vlen);
            AccumulateVector(plan, we, group_ids.data(), v, vlen, num_groups,
                             acc, logs);
          }
          if (opts.trace != nullptr) {
            worker_events[wi].push_back({opts.trace->now_ms(), len});
          }
          if (len == morsel) {
            ++worker_full_morsels[wi];
          } else {
            worker_partial_morsels[wi].push_back(len);
          }
        }
        FinishLogProducts(plan, num_groups, acc, logs);
      }
      return Status::OK();
    };

    if (workers > 1) {
      ThreadPool& pool = ThreadPool::Global();
      pool.EnsureWorkers(workers - 1);
      SUDAF_RETURN_IF_ERROR(pool.TryParallelFor(workers, run_worker));
    } else {
      SUDAF_RETURN_IF_ERROR(run_worker(0));
    }

    for (int64_t b = 0; b < wave_cnt; ++b) {
      for (size_t c = 0; c < channels.size(); ++c) {
        const double* part =
            chunk_acc.data() +
            (b * num_channels + static_cast<int64_t>(c)) * num_groups;
        if (!merged_seeded) {
          merged[c].assign(part, part + num_groups);
        } else {
          for (int32_t g = 0; g < num_groups; ++g) {
            merged[c][g] = AggMerge(channels[c].op, merged[c][g], part[g]);
          }
        }
      }
      merged_seeded = true;
    }
  }
  if (!merged_seeded) {
    // No rows at all (and no init): every channel is its identity.
    for (size_t c = 0; c < channels.size(); ++c) {
      merged[c].assign(static_cast<size_t>(num_groups),
                       AggIdentity(channels[c].op));
    }
  }

  // Splice the buffered per-morsel observability: one trace lock for the
  // whole pass (events sorted into global timestamp order) and one
  // histogram update per distinct morsel length.
  if (opts.trace != nullptr) {
    std::vector<QueryTrace::PendingEvent> all_events;
    size_t total = 0;
    for (const auto& ev : worker_events) total += ev.size();
    all_events.reserve(total);
    for (const auto& ev : worker_events) {
      all_events.insert(all_events.end(), ev.begin(), ev.end());
    }
    std::sort(all_events.begin(), all_events.end(),
              [](const QueryTrace::PendingEvent& a,
                 const QueryTrace::PendingEvent& b) { return a.t_ms < b.t_ms; });
    pass_span.Events("morsel", all_events);
  }
  if (morsel_rows != nullptr) {
    int64_t full = 0;
    for (int w = 0; w < workers; ++w) full += worker_full_morsels[w];
    morsel_rows->ObserveN(static_cast<double>(morsel), full);
    for (int w = 0; w < workers; ++w) {
      for (int64_t len : worker_partial_morsels[w]) {
        morsel_rows->Observe(static_cast<double>(len));
      }
    }
  }

  std::vector<std::vector<double>> out(requests.size());
  for (size_t r = 0; r < requests.size(); ++r) {
    out[r] = merged[plan.request_channel()[r]];
  }
  return out;
}

}  // namespace sudaf
