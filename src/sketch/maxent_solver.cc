#include "sketch/maxent_solver.h"

#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/metrics.h"

namespace sudaf {

namespace {

// Solves the SPD system A·x = b in place via Cholesky with a small ridge.
// Returns false if the matrix is (numerically) not positive definite.
bool CholeskySolve(std::vector<std::vector<double>> a, std::vector<double> b,
                   std::vector<double>* x) {
  const int n = static_cast<int>(b.size());
  for (int i = 0; i < n; ++i) a[i][i] += 1e-12;
  // Decompose A = L·Lᵀ.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      double sum = a[i][j];
      for (int m = 0; m < j; ++m) sum -= a[i][m] * a[j][m];
      if (i == j) {
        if (sum <= 0.0) return false;
        a[i][i] = std::sqrt(sum);
      } else {
        a[i][j] = sum / a[j][j];
      }
    }
  }
  // Forward substitution L·y = b.
  for (int i = 0; i < n; ++i) {
    double sum = b[i];
    for (int m = 0; m < i; ++m) sum -= a[i][m] * b[m];
    b[i] = sum / a[i][i];
  }
  // Back substitution Lᵀ·x = y.
  x->assign(n, 0.0);
  for (int i = n - 1; i >= 0; --i) {
    double sum = b[i];
    for (int m = i + 1; m < n; ++m) sum -= a[m][i] * (*x)[m];
    (*x)[i] = sum / a[i][i];
  }
  return true;
}

// Chebyshev moments E[T_j(s)], j = 0..k, from scaled power moments E[s^j].
std::vector<double> ChebyshevMoments(const std::vector<double>& s_moments) {
  const int k = static_cast<int>(s_moments.size()) - 1;
  // Chebyshev polynomial coefficients via the recurrence
  // T_{j+1} = 2·s·T_j - T_{j-1}.
  std::vector<std::vector<double>> coeffs(k + 1);
  coeffs[0] = {1.0};
  if (k >= 1) coeffs[1] = {0.0, 1.0};
  for (int j = 2; j <= k; ++j) {
    coeffs[j].assign(j + 1, 0.0);
    for (int c = 0; c <= j - 1; ++c) {
      coeffs[j][c + 1] += 2.0 * coeffs[j - 1][c];
    }
    for (int c = 0; c <= j - 2; ++c) {
      coeffs[j][c] -= coeffs[j - 2][c];
    }
  }
  std::vector<double> cheb(k + 1, 0.0);
  for (int j = 0; j <= k; ++j) {
    for (size_t c = 0; c < coeffs[j].size(); ++c) {
      cheb[j] += coeffs[j][c] * s_moments[c];
    }
  }
  return cheb;
}

// Center of cell i of an n-cell grid over [-1, 1].
double GridCenter(int i, int n) { return -1.0 + (2.0 * i + 1.0) / n; }

// Per grid cell probabilities (summing to 1) of the fitted density.
using Fit = Result<std::vector<double>>;

Fit FitDensity(double min, double max, double count,
               const std::vector<double>& power_sums,
               const MaxEntOptions& options) {
  if (count <= 0.0) {
    return Status::InvalidArgument("moments sketch is empty");
  }
  const int k = static_cast<int>(power_sums.size());

  // Scaled power moments E[s^j] with s = (2x - (min+max)) / (max-min).
  const double alpha = 2.0 / (max - min);
  const double beta = -(max + min) / (max - min);
  std::vector<double> raw(k + 1);  // E[x^j]
  raw[0] = 1.0;
  for (int j = 1; j <= k; ++j) raw[j] = power_sums[j - 1] / count;
  std::vector<double> s_moments(k + 1, 0.0);
  // s^j = Σ_m C(j,m)·α^m·β^(j-m)·x^m.
  std::vector<std::vector<double>> binom(k + 1, std::vector<double>(k + 1));
  for (int j = 0; j <= k; ++j) {
    binom[j][0] = 1.0;
    for (int m = 1; m <= j; ++m) {
      binom[j][m] = binom[j - 1][m - 1] + (m <= j - 1 ? binom[j - 1][m] : 0.0);
    }
  }
  for (int j = 0; j <= k; ++j) {
    for (int m = 0; m <= j; ++m) {
      double term = binom[j][m] * std::pow(alpha, m) *
                    std::pow(beta, j - m) * raw[m];
      s_moments[j] += term;
    }
  }

  std::vector<double> target = ChebyshevMoments(s_moments);
  // An overflowed power sum leaves no finite moments to match.
  for (double t : target) {
    if (!std::isfinite(t)) return Status::Internal("max-entropy fit diverged");
  }

  // Grid over [-1, 1].
  const int n = options.grid_size;
  std::vector<double> grid(n);
  for (int i = 0; i < n; ++i) grid[i] = GridCenter(i, n);
  const double cell = 2.0 / n;

  // Chebyshev design matrix T[j][i] via the recurrence.
  std::vector<std::vector<double>> T(k + 1, std::vector<double>(n));
  for (int i = 0; i < n; ++i) T[0][i] = 1.0;
  if (k >= 1) {
    for (int i = 0; i < n; ++i) T[1][i] = grid[i];
  }
  for (int j = 2; j <= k; ++j) {
    for (int i = 0; i < n; ++i) {
      T[j][i] = 2.0 * grid[i] * T[j - 1][i] - T[j - 2][i];
    }
  }

  // Damped Newton on the convex dual
  //   F(λ) = ∫ exp(Σ λ_j T_j) - Σ λ_j target_j.
  std::vector<double> lambda(k + 1, 0.0);
  lambda[0] = std::log(0.5);  // start at the uniform density
  std::vector<double> p(n);

  auto evaluate = [&](const std::vector<double>& l, double* objective) {
    double integral = 0.0;
    for (int i = 0; i < n; ++i) {
      double e = 0.0;
      for (int j = 0; j <= k; ++j) e += l[j] * T[j][i];
      p[i] = std::exp(e) * cell;
      integral += p[i];
    }
    double lin = 0.0;
    for (int j = 0; j <= k; ++j) lin += l[j] * target[j];
    *objective = integral - lin;
  };

  double objective;
  evaluate(lambda, &objective);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Gradient and Hessian of F at λ.
    std::vector<double> grad(k + 1, 0.0);
    std::vector<std::vector<double>> hess(k + 1,
                                          std::vector<double>(k + 1, 0.0));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j <= k; ++j) grad[j] += T[j][i] * p[i];
    }
    for (int j = 0; j <= k; ++j) grad[j] -= target[j];
    double gnorm = 0.0;
    for (double g : grad) gnorm += g * g;
    if (std::sqrt(gnorm) < options.gradient_tolerance) break;
    for (int i = 0; i < n; ++i) {
      for (int a = 0; a <= k; ++a) {
        double ta_p = T[a][i] * p[i];
        for (int b = a; b <= k; ++b) hess[a][b] += ta_p * T[b][i];
      }
    }
    for (int a = 0; a <= k; ++a) {
      for (int b = 0; b < a; ++b) hess[a][b] = hess[b][a];
    }

    std::vector<double> step;
    if (!CholeskySolve(hess, grad, &step)) break;

    // Backtracking line search on the dual objective.
    double scale = 1.0;
    bool improved = false;
    for (int bt = 0; bt < 40; ++bt) {
      std::vector<double> candidate(k + 1);
      for (int j = 0; j <= k; ++j) candidate[j] = lambda[j] - scale * step[j];
      double cand_obj;
      evaluate(candidate, &cand_obj);
      if (std::isfinite(cand_obj) && cand_obj < objective) {
        // p now holds the accepted λ's density.
        lambda = std::move(candidate);
        objective = cand_obj;
        improved = true;
        break;
      }
      scale *= 0.5;
    }
    if (!improved) {
      // p holds the last rejected candidate's density: restore λ's.
      evaluate(lambda, &objective);
      break;
    }
  }

  // Normalize to probabilities.
  double total = 0.0;
  for (double v : p) total += v;
  if (!(total > 0.0) || !std::isfinite(total)) {
    return Status::Internal("max-entropy fit diverged");
  }
  std::vector<double> probabilities(n);
  for (int i = 0; i < n; ++i) probabilities[i] = p[i] / total;
  return probabilities;
}

// The exact bits of every solver input: min, max, count, the power sums and
// the options. FitDensity is a pure function of them, so inputs with equal
// keys have bit-identical fits. (-0.0 and 0.0, or two NaN payloads, are
// different keys: a spare fit, never a wrong one.)
std::vector<uint64_t> FitKey(double min, double max, double count,
                             const std::vector<double>& power_sums,
                             const MaxEntOptions& options) {
  std::vector<uint64_t> key;
  key.reserve(power_sums.size() + 6);
  for (double v : {min, max, count}) key.push_back(std::bit_cast<uint64_t>(v));
  for (double v : power_sums) key.push_back(std::bit_cast<uint64_t>(v));
  key.push_back(static_cast<uint32_t>(options.grid_size));
  key.push_back(static_cast<uint32_t>(options.max_iterations));
  key.push_back(std::bit_cast<uint64_t>(options.gradient_tolerance));
  return key;
}

// The fits of the last kMaxEntFitMemoCapacity distinct keys. It holds the
// normalized probabilities FitDensity returned, so a hit neither solves
// for λ nor evaluates its density. Fits run outside the lock; two threads
// that miss on one key both fit it, to the same bits, and the memo keeps
// one.
class FitMemo {
 public:
  std::shared_ptr<const Fit> Find(const std::vector<uint64_t>& key) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Entry& e : entries_) {
      if (e.key == key) {
        e.last_use = ++clock_;
        return e.fit;
      }
    }
    return nullptr;
  }

  void Insert(std::vector<uint64_t> key, std::shared_ptr<const Fit> fit) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry* slot = nullptr;
    for (Entry& e : entries_) {
      if (e.key == key) return;
      if (slot == nullptr || e.last_use < slot->last_use) slot = &e;
    }
    if (entries_.size() < kMaxEntFitMemoCapacity) {
      slot = &entries_.emplace_back();
    }
    *slot = Entry{std::move(key), ++clock_, std::move(fit)};
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }

  int64_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int64_t>(entries_.size());
  }

  Counter fits;
  Counter hits;

 private:
  struct Entry {
    std::vector<uint64_t> key;
    uint64_t last_use = 0;
    std::shared_ptr<const Fit> fit;
  };

  std::mutex mu_;
  uint64_t clock_ = 0;
  std::vector<Entry> entries_;
};

FitMemo& Memo() {
  static FitMemo* memo = new FitMemo();
  return *memo;
}

}  // namespace

Result<double> MaxEntQuantile(double min, double max, double count,
                              const std::vector<double>& power_sums,
                              double phi, const MaxEntOptions& options) {
  if (!(phi > 0.0 && phi < 1.0)) {
    return Status::InvalidArgument("phi must be in (0, 1)");
  }
  if (count <= 0.0) {
    return Status::InvalidArgument("moments sketch is empty");
  }
  if (count == 1.0 || max <= min) return min;

  std::vector<uint64_t> key = FitKey(min, max, count, power_sums, options);
  FitMemo& memo = Memo();
  std::shared_ptr<const Fit> fit = memo.Find(key);
  if (fit != nullptr) {
    memo.hits.Add();
  } else {
    fit = std::make_shared<const Fit>(
        FitDensity(min, max, count, power_sums, options));
    memo.fits.Add();
    memo.Insert(std::move(key), fit);
  }
  if (!fit->ok()) return fit->status();
  const std::vector<double>& probabilities = **fit;
  double cdf = 0.0;
  const int n = static_cast<int>(probabilities.size());
  for (int i = 0; i < n; ++i) {
    double next = cdf + probabilities[i];
    if (next >= phi) {
      // Linear interpolation within the cell.
      double frac = probabilities[i] > 0.0 ? (phi - cdf) / probabilities[i]
                                           : 0.5;
      double cell = 2.0 / n;
      double s = GridCenter(i, n) - cell / 2.0 + frac * cell;
      return (s * (max - min) + max + min) / 2.0;
    }
    cdf = next;
  }
  return max;
}

Result<std::vector<double>> MaxEntDensity(
    double min, double max, double count,
    const std::vector<double>& power_sums, const MaxEntOptions& options) {
  return FitDensity(min, max, count, power_sums, options);
}

MaxEntFitCounts GetMaxEntFitCounts() {
  FitMemo& memo = Memo();
  return {memo.fits.value(), memo.hits.value(), memo.size()};
}

void ClearMaxEntFitMemo() { Memo().Clear(); }

}  // namespace sudaf
