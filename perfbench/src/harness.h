#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared pieces of the benchmark program: run configuration, latency
// samples, the traced run's span log and per-layer self-time accounting,
// the answer oracle and the report writer. The workloads (workloads.cc)
// drive the library only through its public API and report into these.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "sudaf/sudaf.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // reports, span logs and scratch directories
  int nproc = 1;        // CPUs this process may run on
};

// Derives an independent 64-bit seed for one input stream of a run.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

// --- Answer oracle ----------------------------------------------------------

// Numeric tolerance of the oracle: |a - b| <= kAbsTol + kRelTol * max(|a|,|b|).
// The reference path computes the same aggregate differently (hardcoded
// per-row UDAFs instead of rewritten power sums), so results agree to
// rounding, not bit for bit. A value that is undefined on both paths
// matches whatever its non-finite form: for a zero-variance group the
// engine's skewness reads +-inf where the power-sum form reads NaN.
inline constexpr double kRelTol = 1e-6;
inline constexpr double kAbsTol = 1e-9;

// Compares two result tables cell by cell, row by row. Returns an empty
// string on a match, else the first difference.
std::string CompareTables(const sudaf::Table& got, const sudaf::Table& want);

// Compares column `got_col` of `got` with column `want_col` of `want`,
// matching rows by the int64 column 0 of both, so row order may differ.
std::string CompareKeyedColumn(const sudaf::Table& got, int got_col,
                               const sudaf::Table& want, int want_col);

// --- Traced-run accounting --------------------------------------------------

// One span of the traced run. Every span of one request carries the same
// `request` id; `parent` is the id of the enclosing span (-1 for the
// request's root). Times are milliseconds on the benchmark's clock.
struct SpanRecord {
  int64_t request = 0;
  int id = 0;
  int parent = -1;
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
};

// Per-layer self-time totals over the queries of a traced phase.
struct LayerTimes {
  std::map<std::string, double> self_ms;  // layer metric -> summed self ms
  double latency_ms = 0;                  // summed client-observed latency
  int64_t queries = 0;
};

// Records the traced phase: the benchmark's own spans around each public
// call, the query's trace tree attached below them, and the self-time of
// every layer. Thread-safe. Keeps the spans of the first kKeptRequests
// requests for the span file and accounts every request.
class SpanLog {
 public:
  static constexpr int64_t kKeptRequests = 2000;

  int64_t NewRequest();

  // One answered query. `calls` are the benchmark's spans around the
  // public calls of the request (first = request root); `trace` is the
  // query's own trace (may be null), attached under `calls.back()` so that
  // its `execute` span ends when that call returned. `latency_ms` is the
  // client-observed submit-to-answer time; the part of it outside the
  // `execute` span is charged to service.wait_ms.
  // For a query `coalesced` into a shared-scan group, the self time of its
  // `execute` span is the time it waited while the group ran the other
  // members' phases, and is charged to batch.wait_ms instead.
  void AddQuery(int64_t request, const std::vector<SpanRecord>& calls,
                const sudaf::QueryTrace* trace, double latency_ms,
                bool coalesced);

  // A request with no query trace (an append): its calls only.
  void AddCalls(int64_t request, const std::vector<SpanRecord>& calls);

  LayerTimes layers() const;

  // Writes the kept spans as JSON lines to `path`.
  bool Write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  int64_t next_request_ = 0;
  std::vector<SpanRecord> spans_;
  LayerTimes layers_;
};

// --- Registry deltas --------------------------------------------------------

// The library's counters at one boundary of a timed phase.
struct Boundary {
  sudaf::MetricsSnapshot session;
  sudaf::MetricsSnapshot service;  // empty without a QueryService
  sudaf::StateCache::Counters cache;
  sudaf::ThreadPool::Counters pool;
  int64_t wal_appends = 0;
  int64_t snapshots = 0;

  static Boundary Take(sudaf::SudafSession& session,
                       sudaf::QueryService* service);
};

// Counter movement summed over the timed windows of a phase.
struct Deltas {
  sudaf::MetricsSnapshot session;
  sudaf::MetricsSnapshot service;
  sudaf::StateCache::Counters cache;
  sudaf::ThreadPool::Counters pool;
  int64_t wal_appends = 0;
  int64_t snapshots = 0;

  void Add(const Boundary& before, const Boundary& after);
};

// --- Run outcome and report -------------------------------------------------

// One metric as printed: value and unit.
struct Metric {
  double value = 0;
  std::string unit;
};

struct RunOutcome {
  int64_t attempted = 0;  // requests issued + oracle checks made
  int64_t failed = 0;     // failed or refused requests + wrong answers
  int64_t checked = 0;    // answers the oracle compared
  std::vector<std::string> failures;  // first few failure messages
  std::map<std::string, Metric> metrics;
  // Facts recorded in the report file only (table sizes, sample counts).
  std::map<std::string, double> facts;

  void Fail(const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// Tracks the peak of the bytes this process holds allocated through malloc
// (glibc mallinfo2: in-use arena bytes plus mmapped chunks), sampled every
// millisecond by a thread of its own while the object lives. Unlike peak
// RSS it does not count freed memory the allocator keeps for reuse, which
// with one arena per thread varies from run to run with thread scheduling.
class HeapSampler {
 public:
  HeapSampler();
  ~HeapSampler();
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;

  double peak_mib() const;

 private:
  void Sample();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  double peak_bytes_ = 0;
  std::thread thread_;  // declared last: started after the state it uses
};

// Formats a double with all its significant digits.
std::string Num(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
