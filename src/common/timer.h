#ifndef SITSTATS_COMMON_TIMER_H_
#define SITSTATS_COMMON_TIMER_H_

#include <chrono>

namespace sitstats {

/// Wall-clock stopwatch used by the scheduler (Hybrid's switch condition)
/// and by the benchmark harnesses.
class Timer {
 public:
  Timer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace sitstats

#endif  // SITSTATS_COMMON_TIMER_H_
