#ifndef SUDAF_COMMON_TIMER_H_
#define SUDAF_COMMON_TIMER_H_

// Wall-clock helpers for benchmarks and execution statistics.

#include <chrono>

namespace sudaf {

// Monotonic wall-clock time in milliseconds (arbitrary epoch).
inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace sudaf

#endif  // SUDAF_COMMON_TIMER_H_
