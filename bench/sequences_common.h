#ifndef SUDAF_BENCH_SEQUENCES_COMMON_H_
#define SUDAF_BENCH_SEQUENCES_COMMON_H_

// Shared driver for the Section 6 query-sequence experiments:
//   Figure 6 / 7: total execution time of each of the 6 query sequences
//                 (3 query models × sequences AS1/AS2) in three contexts —
//                 engine-native, SUDAF without sharing, SUDAF with sharing;
//   Figure 8 / 9: per-query execution times of the same runs.
// Under AS2 with sharing, a moments sketch is prefetched first (its time is
// reported separately, exactly like the paper's preprocessing step).

#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_support/workload.h"
#include "common/timer.h"

namespace sudaf::bench {

struct SequenceRun {
  int model = 1;
  std::string sequence_name;           // "AS1" / "AS2"
  std::vector<std::string> aggs;
  // Per-context per-query milliseconds; contexts in the order
  // engine / no-share / share.
  std::vector<std::vector<double>> times;
  double prefetch_ms = 0;  // moments-sketch prefetch before AS2 (share ctx)
};

inline const char* kContexts[] = {"engine (UDAF)", "SUDAF (no share)",
                                  "SUDAF (share)"};

// Runs all 6 sequences in all 3 contexts over freshly generated data.
inline std::vector<SequenceRun> RunAllSequences(const ExecOptions& exec,
                                                int sketch_k = 10) {
  Catalog catalog;
  WorkloadOptions options = WorkloadOptions::FromEnv();
  Status st = SetupWorkloadData(options, &catalog);
  SUDAF_CHECK_MSG(st.ok(), st.ToString());

  std::vector<SequenceRun> runs;
  for (int model = 1; model <= 3; ++model) {
    for (const auto& [name, aggs] :
         {std::pair<std::string, std::vector<std::string>>{"AS1",
                                                           SequenceAS1()},
          {"AS2", SequenceAS2()}}) {
      SequenceRun run;
      run.model = model;
      run.sequence_name = name;
      run.aggs = aggs;
      for (ExecMode mode : {ExecMode::kEngine, ExecMode::kSudafNoShare,
                            ExecMode::kSudafShare}) {
        // Fresh session per (sequence, context): sequences are independent
        // scenarios and the cache must start cold.
        SudafSession session(&catalog, SessionOptions{}.set_exec(exec));
        Status rq = RegisterQuantileUdafs(&session, sketch_k);
        SUDAF_CHECK_MSG(rq.ok(), rq.ToString());
        if (mode == ExecMode::kSudafShare && name == "AS2") {
          double t0 = NowMs();
          Result<QueryResult> pf = session.Execute(
              MomentSketchPrefetchSql(model, sketch_k), ExecMode::kSudafShare);
          SUDAF_CHECK_MSG(pf.ok(), pf.status().ToString());
          run.prefetch_ms = NowMs() - t0;
        }
        run.times.push_back(RunSequence(&session, model, aggs, mode));
      }
      runs.push_back(std::move(run));
    }
  }
  return runs;
}

inline void PrintTotals(const std::vector<SequenceRun>& runs) {
  std::printf("\n=== Total execution time per query sequence ===\n");
  std::printf("%-24s %16s %18s %16s %14s\n", "sequence", kContexts[0],
              kContexts[1], kContexts[2], "MS prefetch");
  for (const SequenceRun& run : runs) {
    std::printf("query model %d / %-8s", run.model,
                run.sequence_name.c_str());
    for (const std::vector<double>& context : run.times) {
      double total = std::accumulate(context.begin(), context.end(), 0.0);
      std::printf(" %13.1f ms", total);
    }
    if (run.prefetch_ms > 0) {
      std::printf(" %11.1f ms", run.prefetch_ms);
    }
    std::printf("\n");
  }
}

inline void PrintPerQuery(const std::vector<SequenceRun>& runs) {
  const char* panel = "abcdef";
  int panel_index = 0;
  for (const SequenceRun& run : runs) {
    std::printf(
        "\n(%c) per-query time, query model %d, sequence %s "
        "(MS prefetch: %.1f ms, not counted)\n",
        panel[panel_index % 6], run.model, run.sequence_name.c_str(),
        run.prefetch_ms);
    ++panel_index;
    std::printf("%-26s", "aggregate");
    for (const char* ctx : kContexts) std::printf(" %18s", ctx);
    std::printf("\n");
    for (size_t q = 0; q < run.aggs.size(); ++q) {
      std::printf("%-26s", run.aggs[q].c_str());
      for (const std::vector<double>& context : run.times) {
        std::printf(" %15.2f ms", context[q]);
      }
      std::printf("\n");
    }
  }
}

}  // namespace sudaf::bench

#endif  // SUDAF_BENCH_SEQUENCES_COMMON_H_
