// Wall-clock stopwatch used by the benchmark harnesses and the build-phase
// timers that fill *BuildStats seconds. Instrumented stages use Stage
// (src/obs/stage.h) instead; tools/lint.py keeps Stopwatch out of the rest
// of src/.
#ifndef COCONUT_COMMON_TIMER_H_
#define COCONUT_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>
#include <ctime>

namespace coconut {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Integer nanoseconds since construction or the last Restart(); the
  /// native unit for metric histograms (no seconds-as-double round trip).
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Per-thread CPU-time stopwatch (CLOCK_THREAD_CPUTIME_ID): counts only the
/// nanoseconds the *calling thread* actually executed, not time it sat
/// descheduled. This is the right clock for attributing per-item cost on an
/// oversubscribed pool, where wall time from dispatch also charges each
/// item for every context switch its thread lost to siblings. Falls back to
/// 0 on platforms without the clock (callers treat 0 as "unavailable").
class ThreadCpuStopwatch {
 public:
  ThreadCpuStopwatch() : start_(Now()) {}

  void Restart() { start_ = Now(); }

  uint64_t ElapsedNanos() const {
    const uint64_t now = Now();
    return now > start_ ? now - start_ : 0;
  }

 private:
  static uint64_t Now() {
#if defined(CLOCK_THREAD_CPUTIME_ID) || defined(__linux__) || \
    defined(__APPLE__)
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
    return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(ts.tv_nsec);
#else
    return 0;
#endif
  }

  uint64_t start_;
};

}  // namespace coconut

#endif  // COCONUT_COMMON_TIMER_H_
