#include "src/core/tsvd_detector.h"

namespace tsvd {

TsvdDetector::TsvdDetector(const Config& config)
    : config_(config),
      trap_set_(config),
      nearmiss_(config),
      hb_(config, trap_set_),
      rngs_(config.seed * 0x9e3779b97f4a7c15ULL) {}

DelayDecision TsvdDetector::OnCall(const Access& access) {
  // HB inference first: a stall observed *now* should block the pair this very access
  // might otherwise (re)add.
  if (!config_.disable_hb_inference) {
    hb_.OnAccess(access);
  }

  const bool concurrent =
      config_.disable_phase_detection ? true : access.concurrent_phase;

  // Near-miss tracking: record and discover dangerous pairs. A pair requires at least
  // one endpoint to have executed in a concurrent phase. The conflict buffer lives on
  // this stack frame so the common zero-conflict call performs no allocation.
  NearMissTracker::ConflictBuffer misses;
  nearmiss_.RecordAndFindConflicts(access, misses);
  for (const NearMissTracker::NearMiss& miss : misses) {
    if (concurrent || miss.other_concurrent) {
      trap_set_.AddPair(access.op, miss.other_op);
    }
  }

  // should_delay: probabilistic, per location, only for trap-set members.
  const double p = trap_set_.Prob(access.op);
  if (p > 0.0 && rngs_.For(access.tid).NextBool(p)) {
    return DelayDecision{true, config_.delay_us};
  }
  return DelayDecision{};
}

void TsvdDetector::OnDelayFinished(const Access& access, const DelayOutcome& outcome) {
  if (!config_.disable_hb_inference) {
    hb_.OnDelayFinished(access, outcome);
  }
  if (!outcome.conflict_found) {
    trap_set_.DecayAfterFailedDelay(access.op);
  }
}

void TsvdDetector::OnViolation(const Access& trapped, const Access& racing) {
  trap_set_.MarkFound(trapped.op, racing.op);
}

}  // namespace tsvd
