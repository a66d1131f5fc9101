// Wall-clock and CPU-time measurement used by the experiment harness.
//
// Scenario I in the paper reports both response time and CPU utilization;
// CpuTimer exposes process CPU time (user+system) so benchmarks can report
// "CPU seconds per wall second" as the utilization proxy.

#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>

namespace sharing {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Process-wide CPU time (user + system), in seconds.
double ProcessCpuSeconds();

/// CPU nanoseconds consumed by the calling thread: unlike wall time it
/// stands still while the thread sleeps or is preempted.
inline int64_t ThreadCpuNanos() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// Measures CPU seconds consumed between construction and Elapsed().
class CpuTimer {
 public:
  CpuTimer() : start_(ProcessCpuSeconds()) {}
  void Restart() { start_ = ProcessCpuSeconds(); }
  double ElapsedSeconds() const { return ProcessCpuSeconds() - start_; }

 private:
  double start_;
};

}  // namespace sharing
