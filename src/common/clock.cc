#include "src/common/clock.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#ifdef TSVD_CLOCK_TSC
#include <cpuid.h>
#endif

namespace tsvd::clock_internal {

#ifdef TSVD_CLOCK_TSC
namespace {

// Calibration spans at least this much steady_clock time; the error of each end's
// pairing is a few tens of ns, so the rate is good to about 1e-5.
constexpr int64_t kCalibrationNs = 2'000'000;

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPUID leaf 0x80000007, EDX bit 8: the TSC ticks at a constant rate in every
// P-, C- and T-state.
bool InvariantTsc() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return __get_cpuid(0x80000007, &eax, &ebx, &ecx, &edx) != 0 && ((edx >> 8) & 1) != 0;
}

// The kernel selects the `tsc` clocksource only after it has checked that the
// counters of all CPUs are in sync, and drops it if they drift apart.
bool KernelClocksourceIsTsc() {
  std::FILE* f =
      std::fopen("/sys/devices/system/clocksource/clocksource0/current_clocksource", "r");
  if (f == nullptr) {
    return false;
  }
  char name[32] = {};
  const bool read = std::fgets(name, sizeof(name), f) != nullptr;
  std::fclose(f);
  return read && std::strcmp(name, "tsc\n") == 0;
}

struct Pairing {
  uint64_t tsc;
  int64_t ns;
};

// A steady_clock read paired with the TSC midway between two reads around it;
// the tightest bracket of a few tries, so a preemption inside one is dropped.
Pairing Pair() {
  Pairing best{0, 0};
  uint64_t best_width = UINT64_MAX;
  for (int i = 0; i < 8; ++i) {
    const uint64_t before = __rdtsc();
    const int64_t ns = SteadyNowNanos();
    const uint64_t width = __rdtsc() - before;
    if (width < best_width) {
      best_width = width;
      best = Pairing{before + width / 2, ns};
    }
  }
  return best;
}

}  // namespace

Timebase Calibrate() {
  if (!InvariantTsc() || !KernelClocksourceIsTsc()) {
    return Timebase{};
  }
  const Pairing start = Pair();
  Pairing end = Pair();
  while (end.ns - start.ns < kCalibrationNs) {
    end = Pair();
  }
  const double us_per_tick =
      static_cast<double>(end.ns - start.ns) / 1e3 / static_cast<double>(end.tsc - start.tsc);
  // Anything outside 10 MHz..100 GHz means the counter cannot be trusted.
  if (!(us_per_tick > 1e-5 && us_per_tick < 1e-1)) {
    return Timebase{};
  }
  Timebase timebase;
  timebase.mult = std::llround(us_per_tick * 4294967296.0);
  // Anchor on a whole microsecond so that NowMicros() truncates where
  // SteadyNowMicros() does.
  timebase.us0 = start.ns / 1000;
  timebase.tsc0 =
      start.tsc - static_cast<uint64_t>(static_cast<double>(start.ns % 1000) / 1e3 / us_per_tick);
  return timebase;
}
#else
Timebase Calibrate() { return Timebase{}; }
#endif

namespace {
// Calibrates before main(), so that the ~2 ms spin never stalls the first
// instrumented call of a run (a thread reaching GetTimebase() during calibration
// would wait for it).
[[maybe_unused]] const Timebase& kCalibratedAtStartup = GetTimebase();
}  // namespace

}  // namespace tsvd::clock_internal
