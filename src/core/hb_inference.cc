#include "src/core/hb_inference.h"

#include <algorithm>

namespace tsvd {

HbInference::HbInference(const Config& config, TrapSet& trap_set)
    : config_(config), trap_set_(trap_set) {
  delays_.resize(kDelayRing);
}

void HbInference::OnAccess(const Access& access) {
  // A thread without a timeline slot has no gap to measure, so no stall is inferred.
  if (access.timeline == nullptr) {
    return;
  }
  ThreadTimeline& state = *access.timeline;

  // Transitivity window: the next k_hb accesses after an inferred stall also
  // happen-after the delayed location.
  if (state.credit_left > 0 && state.credit_src != kInvalidOp) {
    trap_set_.MarkHbOrdered(state.credit_src, access.op);
    --state.credit_left;
  }

  // delta_hb = 0 degenerates to "any gap overlapping a delay infers HB" — the
  // configuration Fig. 9(d) shows inferring many non-existent relationships.
  const Micros gap_threshold =
      static_cast<Micros>(config_.hb_blocking_threshold * config_.delay_us);
  // The gap runs from the thread's previous call, or from the end of its own delay
  // if that came later.
  const Micros since = std::max(state.prev_call, state.delay_end);
  if (since > 0) {
    const Micros gap = access.time - since;
    // A matching delay must have ended inside [since, now]; if even the newest
    // recorded end predates the gap, no scan can succeed — skip the lock entirely.
    if (gap >= gap_threshold &&
        latest_delay_end_.load(std::memory_order_acquire) >= since) {
      // Find the most recently finished delay from another thread that overlaps the
      // gap: it started before the gap ended and ended after the gap began.
      FinishedDelay best;
      {
        std::lock_guard<std::mutex> lock(delays_mu_);
        for (const FinishedDelay& d : delays_) {
          if (d.op == kInvalidOp || d.tid == access.tid) {
            continue;
          }
          if (d.end >= since && d.end <= access.time && d.end > best.end) {
            best = d;
          }
        }
      }
      if (best.op != kInvalidOp) {
        trap_set_.MarkHbOrdered(best.op, access.op);
        inferred_edges_.fetch_add(1, std::memory_order_relaxed);
        state.credit_src = best.op;
        state.credit_left = config_.hb_inference_window;
      }
    }
  }
}

void HbInference::OnDelayFinished(const Access& access, const DelayOutcome& outcome) {
  {
    std::lock_guard<std::mutex> lock(delays_mu_);
    delays_[delays_next_ % kDelayRing] =
        FinishedDelay{access.op, access.tid, outcome.start_us, outcome.end_us};
    ++delays_next_;
    // Monotone max under the lock (ends can arrive slightly out of order); release
    // pairs with the acquire skip-check in OnAccess.
    if (outcome.end_us > latest_delay_end_.load(std::memory_order_relaxed)) {
      latest_delay_end_.store(outcome.end_us, std::memory_order_release);
    }
  }
  // The delaying thread was "busy sleeping": its next gap starts at the delay's end,
  // so the sleep is not read as a causal stall caused by someone else.
  if (access.timeline != nullptr) {
    access.timeline->delay_end = outcome.end_us;
  }
}

}  // namespace tsvd
