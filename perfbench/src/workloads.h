#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads (NOTES.md says why each exists):
//
//   explore    one client, one SudafSession in share mode, a seeded random
//              mix of the paper's query models; every timed query is a
//              cache hit.
//   dashboard  refreshes of 8 panel queries with a fresh WHERE constant
//              each, submitted through one QueryService by one client;
//              every refresh is one shared scan.
//   append     rounds of a ~1% append followed by 3 queries that a delta
//              refresh answers, with cache persistence on disk.
//
// All load is closed-loop: a client sends its next request only when its
// previous one has answered.

#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

// What one timed phase measured.
struct Phase {
  double elapsed_ms = 0;          // the timed window
  std::vector<double> query_ms;   // submit-to-answer per answered query
  std::vector<double> done_ms;    // answer time per answered query, in
                                  // window time (0 = window start)
  double origin_ms = 0;           // NowMs() at window time 0
  std::vector<double> append_ms;  // AppendRows per append
  Deltas deltas;                  // counter movement inside the window
  int64_t scan_rows = 0;          // base-table rows one full scan reads
  double cache_mib = 0;           // state cache size at the end
  double wal_bytes = 0;           // WAL bytes appended inside the window
  int64_t fsyncs = 0;             // fsyncs the persistence store asked for
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the inputs and the system under test: data, session, UDAF
  // registration, warm-up and persistence attach. This is what setup_s
  // times. `traced` turns on SessionOptions::collect_traces.
  virtual void Setup(bool traced, RunOutcome* out) = 0;

  // Runs the closed loop for `seconds`. With `log` non-null every answered
  // query is also recorded there. Failed requests count in `out`.
  virtual Phase Run(double seconds, SpanLog* log, RunOutcome* out) = 0;

  // Compares a deterministic sample of the phase's answers with an
  // independent evaluation of the same queries on the same data (the
  // engine path's hardcoded UDAFs). Runs outside the timed window.
  virtual void Check(RunOutcome* out) = 0;

  // Rows of each table the workload built, for the report.
  virtual std::vector<std::pair<std::string, int64_t>> TableSizes() const = 0;
};

// Null for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
