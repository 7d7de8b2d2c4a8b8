// Shared-scan batching: 16 concurrent mixed-UDAF queries over 1M rows,
// batched through the QueryService window vs. executed solo.
//
//   $ ./bench_shared_scan [--rows N] [--smoke]
//
// The solo baseline runs each query cold on its own session — 16 scans of
// the base table, every state evaluated from scratch. The batched run
// submits all 16 tickets into one batching window: same-signature queries
// fuse into one union state DAG (two signatures here — a plain GROUP BY
// and a filtered one), overlapping states (power sums under avg / var /
// stddev / skewness / kurtosis, log-domain sums under gm / hm) are
// computed once per group, and each group costs one scan.
//
// Writes BENCH_shared_scan.json (sudaf.bench_shared_scan.v1) to the build
// tree, or to --out PATH: per-side wall time, scan-pass and
// evaluated-state counts, and the two reduction ratios the CI perf-smoke
// gate asserts (both must be >= 2 for this workload, structurally — they
// do not depend on machine speed).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/timer.h"
#include "datagen/milan_like.h"
#include "sudaf/sudaf.h"

using namespace sudaf;  // NOLINT — bench brevity

namespace {

std::vector<std::string> MixedQueries() {
  const std::string t = "internet_traffic";
  std::vector<std::string> qs;
  // Signature A: full-table GROUP BY. Heavy power-sum overlap.
  for (const char* agg :
       {"avg", "var", "stddev", "skewness", "kurtosis", "qm", "gm", "hm"}) {
    qs.push_back("SELECT square_id, " + std::string(agg) + "(" + t +
                 ") FROM milan_data GROUP BY square_id");
  }
  qs.push_back("SELECT square_id, avg(" + t + "), var(" + t +
               ") FROM milan_data GROUP BY square_id");
  qs.push_back("SELECT square_id, sum(" + t + "), count(" + t +
               ") FROM milan_data GROUP BY square_id");
  qs.push_back("SELECT square_id, min(" + t + "), max(" + t +
               ") FROM milan_data GROUP BY square_id");
  qs.push_back("SELECT square_id, apm(" + t +
               ") FROM milan_data GROUP BY square_id");
  // Signature B: filtered. Its states cannot share with A's (different
  // data signature) but do share with each other.
  for (const char* agg : {"avg", "var", "kurtosis", "qm"}) {
    qs.push_back("SELECT square_id, " + std::string(agg) + "(" + t +
                 ") FROM milan_data WHERE " + t +
                 " > 1.0 GROUP BY square_id");
  }
  return qs;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t rows = 1'000'000;
  std::string out =
      std::string(SUDAF_BENCH_OUT_DIR) + "/BENCH_shared_scan.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0 && i + 1 < argc) {
      rows = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      rows = 100'000;
    }
  }

  Catalog catalog;
  MilanOptions milan;
  milan.num_rows = rows;
  catalog.PutTable("milan_data", GenerateMilanData(milan));

  const std::vector<std::string> queries = MixedQueries();
  std::printf("shared-scan batching: %zu mixed UDAF queries, %lld rows\n\n",
              queries.size(), static_cast<long long>(rows));

  // --- Solo baseline: each query cold on its own session --------------------
  double solo_ms = 0;
  int64_t solo_scans = 0;
  int64_t solo_states = 0;
  for (const std::string& sql : queries) {
    SudafSession session(&catalog);
    double t0 = NowMs();
    auto r = session.Execute(sql, ExecMode::kSudafShare);
    solo_ms += NowMs() - t0;
    SUDAF_CHECK_MSG(r.ok(), r.status().ToString());
    solo_scans += r->stats.scanned_base_data ? 1 : 0;
    solo_states += r->stats.num_states - r->stats.states_from_cache;
  }
  std::printf("solo:    %8.1f ms  %2lld scans  %3lld states evaluated\n",
              solo_ms, static_cast<long long>(solo_scans),
              static_cast<long long>(solo_states));

  // --- Batched: all tickets into one window, one pass per signature ---------
  SudafSession session(&catalog);
  ServiceOptions opts;
  opts.batch_window_ms = 50.0;
  opts.batch_max_queries = static_cast<int>(queries.size());
  QueryService service(&session, opts);

  double t0 = NowMs();
  std::vector<QueryTicket> tickets;
  tickets.reserve(queries.size());
  for (const std::string& sql : queries) {
    tickets.push_back(service.Submit(sql, ExecMode::kSudafShare));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    auto r = tickets[i].Wait();
    SUDAF_CHECK_MSG(r.ok(), queries[i] + ": " + r.status().ToString());
  }
  const double batched_ms = NowMs() - t0;

  MetricsSnapshot snap = service.metrics().Snapshot();
  const int64_t groups = snap.counter("sudaf.batch.groups");
  const int64_t coalesced = snap.counter("sudaf.batch.coalesced");
  const int64_t solo_fallback = snap.counter("sudaf.batch.solo");
  const int64_t states_requested = snap.counter("sudaf.batch.states_requested");
  const int64_t states_deduped = snap.counter("sudaf.batch.states_deduped");
  const int64_t scan_passes = snap.counter("sudaf.batch.scan_passes");
  const int64_t scan_passes_saved =
      snap.counter("sudaf.batch.scan_passes_saved");
  const int64_t batched_states = states_requested - states_deduped;
  std::printf("batched: %8.1f ms  %2lld scans  %3lld states evaluated "
              "(%lld groups, %lld deduped)\n",
              batched_ms, static_cast<long long>(scan_passes),
              static_cast<long long>(batched_states),
              static_cast<long long>(groups),
              static_cast<long long>(states_deduped));

  const double scan_reduction =
      scan_passes > 0 ? static_cast<double>(solo_scans) / scan_passes : 0;
  const double states_reduction =
      batched_states > 0 ? static_cast<double>(solo_states) / batched_states
                         : 0;
  std::printf("\nscan passes: %lldx fewer, evaluated states: %.1fx fewer, "
              "wall: %.1fx\n",
              static_cast<long long>(scan_reduction), states_reduction,
              batched_ms > 0 ? solo_ms / batched_ms : 0);

  FILE* json = std::fopen(out.c_str(), "w");
  SUDAF_CHECK_MSG(json != nullptr, "cannot open " + out);
  std::fprintf(json,
               "{\n"
               "  \"schema\": \"sudaf.bench_shared_scan.v1\",\n"
               "  \"rows\": %lld,\n"
               "  \"queries\": %zu,\n"
               "  \"solo\": {\n"
               "    \"wall_ms\": %.3f,\n"
               "    \"scan_passes\": %lld,\n"
               "    \"states_computed\": %lld\n"
               "  },\n"
               "  \"batched\": {\n"
               "    \"wall_ms\": %.3f,\n"
               "    \"groups\": %lld,\n"
               "    \"queries_coalesced\": %lld,\n"
               "    \"queries_solo\": %lld,\n"
               "    \"scan_passes\": %lld,\n"
               "    \"scan_passes_saved\": %lld,\n"
               "    \"states_requested\": %lld,\n"
               "    \"states_deduped\": %lld,\n"
               "    \"states_computed\": %lld\n"
               "  },\n"
               "  \"scan_reduction\": %.3f,\n"
               "  \"states_reduction\": %.3f\n"
               "}\n",
               static_cast<long long>(rows), queries.size(), solo_ms,
               static_cast<long long>(solo_scans),
               static_cast<long long>(solo_states), batched_ms,
               static_cast<long long>(groups),
               static_cast<long long>(coalesced),
               static_cast<long long>(solo_fallback),
               static_cast<long long>(scan_passes),
               static_cast<long long>(scan_passes_saved),
               static_cast<long long>(states_requested),
               static_cast<long long>(states_deduped),
               static_cast<long long>(batched_states), scan_reduction,
               states_reduction);
  std::fclose(json);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
