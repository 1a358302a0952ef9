#include "src/core/hb_inference.h"

namespace tsvd {

HbInference::HbInference(const Config& config, TrapSet& trap_set)
    : config_(config), trap_set_(trap_set) {
  delays_.resize(kDelayRing);
}

void HbInference::OnAccess(const Access& access) {
  // A thread without a state slot has no timeline, so no stall is inferred for it.
  ThreadState* slot = threads_.Find(access.tid);
  if (slot == nullptr) {
    return;
  }
  ThreadState& state = *slot;

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
  if (state.last_access > 0) {
    const Micros gap = access.time - state.last_access;
    // A matching delay must have ended inside [last_access, now]; if even the newest
    // recorded end predates the gap, no scan can succeed — skip the lock entirely.
    if (gap >= gap_threshold &&
        latest_delay_end_.load(std::memory_order_acquire) >= state.last_access) {
      // Find the most recently finished delay from another thread that overlaps the
      // gap: it started before the gap ended and ended after the gap began.
      FinishedDelay best;
      {
        std::lock_guard<std::mutex> lock(delays_mu_);
        for (const FinishedDelay& d : delays_) {
          if (d.op == kInvalidOp || d.tid == access.tid) {
            continue;
          }
          if (d.end >= state.last_access && d.end <= access.time && d.end > best.end) {
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
  state.last_access = access.time;
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
  // The delaying thread was "busy sleeping": advance its own timeline so its next
  // access does not read the sleep as a causal stall caused by someone else.
  if (ThreadState* state = threads_.Find(access.tid)) {
    state->last_access = outcome.end_us;
  }
}

}  // namespace tsvd
