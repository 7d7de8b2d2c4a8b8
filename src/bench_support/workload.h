#ifndef SUDAF_BENCH_SUPPORT_WORKLOAD_H_
#define SUDAF_BENCH_SUPPORT_WORKLOAD_H_

// Shared workload definitions for the Section 6 experiments: datasets,
// query models, aggregate sequences, and a sequence runner. Used by the
// bench/ binaries and the examples.

#include <memory>
#include <string>
#include <vector>

#include "storage/catalog.h"
#include "sudaf/session.h"

namespace sudaf::bench {

struct WorkloadOptions {
  int64_t milan_rows = 400'000;
  int64_t sales_rows = 250'000;
  int sketch_k = 10;

  // Reads SUDAF_SCALE (a positive float; default 1.0) and multiplies the
  // row counts. SUDAF_SCALE=20 approximates the paper's PostgreSQL setup
  // relative to our defaults.
  static WorkloadOptions FromEnv();
};

// Populates `catalog` with milan_data and the TPC-DS-like tables.
Status SetupWorkloadData(const WorkloadOptions& options, Catalog* catalog);

// Registers the approx-quantile native UDAFs (approx_median,
// approx_first_quantile, approx_third_quantile) in `session`.
Status RegisterQuantileUdafs(SudafSession* session, int k);

// --- Query models (Section 6) ----------------------------------------------

// `agg_expr` is the instantiated aggregate call, e.g. "qm(internet_traffic)".
std::string QueryModel1(const std::string& agg_name);
std::string QueryModel2(const std::string& agg_name);
// Query model 3 = TPC-DS query 7 with AGG replacing avg (4 aggregated
// measures).
std::string QueryModel3(const std::string& agg_name);
std::string QueryModel(int model, const std::string& agg_name);

// Aggregate execution sequences of the paper.
//   AS1 = [cm qm gm hm min max count std var sum avg]
//   AS2 = [max min sum avg count std var cm gm hm qm]
std::vector<std::string> SequenceAS1();
std::vector<std::string> SequenceAS2();
// The 16 aggregate functions of the Figure 10 random workload.
std::vector<std::string> Figure10Aggregates();

// SQL that prefetches a moments sketch of order `k` for the aggregated
// column(s) of query model `model` (run before sequence AS2).
std::string MomentSketchPrefetchSql(int model, int k);

// Runs `aggs` as a query sequence under `mode`; returns per-query times in
// milliseconds. `repetitions` > 1 reports the fastest run per query (the
// cache is only mutated on the first).
std::vector<double> RunSequence(SudafSession* session, int model,
                                const std::vector<std::string>& aggs,
                                ExecMode mode);

}  // namespace sudaf::bench

#endif  // SUDAF_BENCH_SUPPORT_WORKLOAD_H_
