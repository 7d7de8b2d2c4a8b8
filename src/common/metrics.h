#ifndef SUDAF_COMMON_METRICS_H_
#define SUDAF_COMMON_METRICS_H_

// Session-scoped metrics registry (docs/observability.md).
//
// Every observable quantity of the execution pipeline — phase times, cache
// decisions, fused-executor work, pool activity, guard trips — is a *named
// metric* in one MetricsRegistry owned by the session. Handles returned by
// the registry are stable for the registry's lifetime, so hot paths resolve
// a metric once and then update it with a single relaxed atomic op:
//
//   Counter* hits = registry->counter("sudaf.cache.probe_hits");
//   ...
//   hits->Add();                       // lock-free, any thread
//
// ExecStats is no longer a bag of hand-incremented fields: the session
// snapshots the registry around each query and *derives* the stats struct
// from the per-query delta (see SudafSession::ExecuteStatement). Anything a
// stats struct reports is therefore also available, cumulatively and in
// JSON, through Snapshot().
//
// Metric kinds:
//   Counter    monotone int64 (events, items)
//   DCounter   accumulating double (milliseconds, bytes as doubles)
//   Gauge      last-set double (instantaneous values, e.g. threads of the
//              most recent fused pass)
//   Histogram  log2-bucketed distribution with count/sum/min/max
//
// Registration takes a mutex; updates through handles are lock-free.
// Snapshot() is safe to call concurrently with updates (values are read
// atomically; cross-metric consistency is not promised, per-metric totals
// are).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sudaf {

namespace metrics_internal {
// C++20 atomic<double>::fetch_add exists but a CAS loop keeps us portable
// across the toolchains CI runs.
inline void AtomicAdd(std::atomic<double>& a, double d) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}
inline void AtomicMax(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
inline void AtomicMin(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur > v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace metrics_internal

// Monotone event/item counter.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Accumulating double — phase milliseconds, fractional byte totals.
class DCounter {
 public:
  void Add(double delta) { metrics_internal::AtomicAdd(value_, delta); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Last-set instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Log2-bucketed distribution. Bucket i covers [2^(i + kMinExp),
// 2^(i + kMinExp + 1)) with the two edge buckets absorbing under/overflow;
// values <= 0 land in bucket 0. Designed for millisecond observations.
class Histogram {
 public:
  static constexpr int kNumBuckets = 24;
  static constexpr int kMinExp = -6;  // first bucket starts at 1/64

  void Observe(double v);
  // Records `n` observations of the same value with one atomic op per
  // aggregate — what per-worker buffers use to splice a batch of identical
  // morsel lengths into the histogram at pass end instead of one Observe
  // per morsel on the hot path.
  void ObserveN(double v, int64_t n);

  struct Snapshot {
    int64_t count = 0;
    double sum = 0;
    double min = 0;  // 0 when count == 0
    double max = 0;
    std::vector<int64_t> buckets;  // kNumBuckets entries
  };
  Snapshot snapshot() const;

  // Folds a snapshot of another histogram into this one: count/sum/buckets
  // add, min/max widen (a snapshot with count == 0 contributes nothing).
  // Used by MetricsRegistry::Merge to fold per-query registries into the
  // session-lifetime registry.
  void Merge(const Snapshot& s);

 private:
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{1e300};
  std::atomic<double> max_{-1e300};
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
};

// Point-in-time copy of every registered metric. Keys are metric names;
// maps keep JSON output deterministic.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> dcounters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;

  int64_t counter(const std::string& name) const;
  double dcounter(const std::string& name) const;
  double gauge(const std::string& name) const;

  // Per-query deltas: this snapshot minus `since`. Counters, dcounters and
  // histogram count/sum/buckets subtract; gauges are taken from *this
  // (instantaneous). Histogram min/max stay cumulative — the extrema of the
  // delta window alone are not recoverable — and are zeroed when the delta
  // window observed nothing.
  MetricsSnapshot Delta(const MetricsSnapshot& since) const;

  // {"counters": {...}, "dcounters": {...}, "gauges": {...},
  //  "histograms": {"name": {"count":..,"sum":..,"min":..,"max":..}, ...}}
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create; returned pointers remain valid for the registry's
  // lifetime. A name identifies one metric of one kind — reusing a name
  // with a different kind returns a distinct metric (kinds live in
  // separate namespaces).
  Counter* counter(const std::string& name);
  DCounter* dcounter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  // Accumulates a snapshot into this registry: counters/dcounters add,
  // histograms fold (Histogram::Merge), gauges take the snapshot's value
  // (last-writer-wins, matching Gauge::Set semantics). This is how a
  // per-query registry — execution writes into a registry private to the
  // query, so concurrent queries never cross-attribute each other's work —
  // is folded into the session-lifetime registry once the query finishes.
  void Merge(const MetricsSnapshot& s);

 private:
  mutable std::mutex mu_;  // guards the maps only, never the values
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<DCounter>> dcounters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace sudaf

#endif  // SUDAF_COMMON_METRICS_H_
