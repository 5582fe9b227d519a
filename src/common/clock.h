// Monotonic timing helpers used by instrumentation and deadline timers.
#pragma once

#include <chrono>
#include <cstdint>

namespace p2g {

using SteadyClock = std::chrono::steady_clock;
using TimePoint = SteadyClock::time_point;

/// Nanoseconds since an arbitrary (per-process) epoch; monotonic.
inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double ns_to_s(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Simple stopwatch for benchmark harnesses.
class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}

  void reset() { start_ = now_ns(); }
  int64_t elapsed_ns() const { return now_ns() - start_; }
  double elapsed_s() const { return ns_to_s(elapsed_ns()); }
  double elapsed_ms() const { return ns_to_ms(elapsed_ns()); }

 private:
  int64_t start_;
};

}  // namespace p2g
