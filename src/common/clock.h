// Time utilities. All TSVD thresholds are expressed in microseconds so that the bench
// harness can scale the paper's 100ms-scale parameters down to laptop-friendly values
// without touching the algorithm (see DESIGN.md "Virtualizable time").
//
// NowMicros() is read on every instrumented call, so it is the one timebase the
// detector, HB inference, the near-miss window and the delay engine compare. Where
// the hardware allows it, it reads the TSC and scales the ticks to microseconds
// against steady_clock, calibrated once per process; elsewhere it is steady_clock.
// Either way its values share steady_clock's epoch only approximately, so they are
// process-local: compare them only with other reads from the same process. Waits
// (condition-variable deadlines, SleepMicros) stay relative steady_clock durations.
#ifndef SRC_COMMON_CLOCK_H_
#define SRC_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <x86intrin.h>
#define TSVD_CLOCK_TSC 1
#endif

namespace tsvd {

// Monotonic microseconds since an arbitrary epoch.
using Micros = int64_t;

// The steady_clock timebase: NowMicros() wherever the TSC is not usable, and the
// reference the TSC is calibrated against.
inline Micros SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace clock_internal {

// NowMicros() = us0 + ((rdtsc - tsc0) * mult) >> 32; mult == 0 selects steady_clock.
struct Timebase {
  uint64_t tsc0 = 0;
  Micros us0 = 0;
  int64_t mult = 0;  // microseconds per tick, 32.32 fixed point
};

// Checks for an x86-64 invariant TSC that the kernel also uses as its clocksource
// (it picks `tsc` only after checking that the CPUs' counters agree) and, if so,
// calibrates it against steady_clock for about 2 ms. Returns mult == 0 otherwise.
Timebase Calibrate();

// Calibrated once, before main() (clock.cc) or on an earlier first use from another
// static initializer; forked children inherit the result.
inline const Timebase& GetTimebase() {
  static const Timebase timebase = Calibrate();
  return timebase;
}

}  // namespace clock_internal

// True when NowMicros() reads the calibrated TSC rather than steady_clock.
inline bool TscClockActive() { return clock_internal::GetTimebase().mult != 0; }

inline Micros NowMicros() {
#ifdef TSVD_CLOCK_TSC
  const clock_internal::Timebase& timebase = clock_internal::GetTimebase();
  if (timebase.mult != 0) {
    // Signed, so a read on a CPU whose counter trails the calibrating one by a few
    // ticks stays a few ticks before tsc0 rather than wrapping.
    const auto ticks = static_cast<int64_t>(__rdtsc() - timebase.tsc0);
    return timebase.us0 +
           static_cast<Micros>((static_cast<__int128>(ticks) * timebase.mult) >> 32);
  }
#endif
  return SteadyNowMicros();
}

inline void SleepMicros(Micros us) {
  if (us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
}

// Busy-spins for very short waits where sleep granularity would distort timing-sensitive
// workload patterns (used by the workload generator, never by the detector).
inline void SpinMicros(Micros us) {
  const Micros end = NowMicros() + us;
  while (NowMicros() < end) {
    // spin
  }
}

}  // namespace tsvd

#endif  // SRC_COMMON_CLOCK_H_
