#ifndef SUDAF_SKETCH_MAXENT_SOLVER_H_
#define SUDAF_SKETCH_MAXENT_SOLVER_H_

// Maximum-entropy quantile solver (the MomentSolver of the moments sketch).
//
// Given (min, max, n, Σx, ..., Σx^k), fits the maximum-entropy density
// p(s) = exp(Σ_j λ_j·T_j(s)) on the scaled domain s ∈ [-1, 1] whose
// Chebyshev moments match the data's, via a damped Newton iteration, then
// inverts the fitted CDF at phi.
//
// MaxEntQuantile remembers its most recent fits in a process-wide,
// mutex-guarded memo keyed by the exact bits of every solver input. A
// repeated terminate over unchanged cached states, and the three quartiles
// of one group, then share one fit; a hit returns the bits a fresh fit
// would.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace sudaf {

struct MaxEntOptions {
  int grid_size = 256;
  int max_iterations = 100;
  double gradient_tolerance = 1e-9;
};

// `power_sums[j]` is Σ x^(j+1). Returns the estimated phi-quantile.
// Fails on empty input or phi outside (0, 1); degenerate inputs
// (min == max) return that point mass. The fit goes through the memo; a
// failed fit is remembered with its status.
Result<double> MaxEntQuantile(double min, double max, double count,
                              const std::vector<double>& power_sums,
                              double phi, const MaxEntOptions& options = {});

// Lower-level access for tests: solves for the density on the grid and
// returns per-grid-point probabilities (summing to ~1). Bypasses the memo.
Result<std::vector<double>> MaxEntDensity(
    double min, double max, double count,
    const std::vector<double>& power_sums,
    const MaxEntOptions& options = {});

// The fit memo holds at most this many fits (grid_size doubles each, 2 KiB
// at the default grid) and evicts the least recently used.
inline constexpr size_t kMaxEntFitMemoCapacity = 32;

// The memo's process-wide counts: fits and hits since the process
// started, and its size now.
struct MaxEntFitCounts {
  int64_t fits = 0;       // fits run: memo misses
  int64_t memo_hits = 0;  // quantiles served from a remembered fit
  int64_t entries = 0;    // fits the memo holds now
};
MaxEntFitCounts GetMaxEntFitCounts();

// Empties the memo (tests: the next quantile of any input refits). The
// counts keep counting.
void ClearMaxEntFitMemo();

}  // namespace sudaf

#endif  // SUDAF_SKETCH_MAXENT_SOLVER_H_
