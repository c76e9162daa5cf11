#ifndef HETKG_COMMON_STOPWATCH_H_
#define HETKG_COMMON_STOPWATCH_H_

#include <chrono>

namespace hetkg {

/// Measures wall-clock time. Simulated time (the quantity the benches
/// report for cluster experiments) lives in sim/clock.h; this class is
/// for real elapsed time only.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the measurement window.
  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace hetkg

#endif  // HETKG_COMMON_STOPWATCH_H_
