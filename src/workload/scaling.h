// Uniform time scaling between the paper's parameters and laptop-scale experiments.
//
// The paper's defaults (delay = 100ms, T_nm = 100ms) suit a test fleet running
// hour-long suites. The TSVD algorithm depends only on the *ratios* between the delay,
// the near-miss window, and the workload's natural inter-access gaps, so experiments
// here scale all time quantities down together (default 50x: delay and window 2ms).
// EXPERIMENTS.md records the scale used for each regenerated table/figure.
#ifndef SRC_WORKLOAD_SCALING_H_
#define SRC_WORKLOAD_SCALING_H_

#include "src/common/config.h"
#include "src/workload/module.h"

namespace tsvd::workload {

// The per-thread delay budget, in full-length delays (Section 4, runtime feature
// (2)): ScaledConfig derives it from the scaled delay, and a campaign's delay
// override keeps the same ratio.
inline constexpr int kBudgetDelaysPerThread = 20;

// `scale` multiplies the paper's time-valued defaults (1.0 = deployed settings).
inline Config ScaledConfig(double scale = 0.02) {
  Config cfg;
  cfg.nearmiss_window_us = static_cast<Micros>(100'000 * scale);
  cfg.delay_us = static_cast<Micros>(100'000 * scale);
  // Cap the delay injected per thread per run so instrumented tests cannot time
  // out. Random techniques routinely saturate this budget on cold, sequential
  // sites; targeted techniques never come close.
  cfg.max_delay_per_thread_us = kBudgetDelaysPerThread * cfg.delay_us;
  // The sentinel grace period scales with everything else: it must stay an order of
  // magnitude above the delay length so healthy delays never look like stalls.
  cfg.stall_grace_us = static_cast<Micros>(500'000 * scale);
  return cfg;
}

// Workload gaps sized relative to the same scale: loop spacing well inside the
// near-miss window, "rare" separations well outside it.
inline WorkloadParams ScaledParams(double scale = 0.02) {
  WorkloadParams p;
  p.tiny_gap_us = static_cast<Micros>(5'000 * scale);      // 0.05x window
  p.small_gap_us = static_cast<Micros>(20'000 * scale);    // 0.2x window
  p.pass_gap_us = static_cast<Micros>(35'000 * scale);     // 0.35x window
  p.brush_gap_us = static_cast<Micros>(30'000 * scale);    // 0.3x window
  p.rare_gap_us = static_cast<Micros>(1'000'000 * scale);  // 10x window
  p.fixture_us = static_cast<Micros>(500'000 * scale);     // 5x window of fixture work
  return p;
}

}  // namespace tsvd::workload

#endif  // SRC_WORKLOAD_SCALING_H_
