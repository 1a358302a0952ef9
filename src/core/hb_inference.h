// Happens-before inference from delay feedback (Section 3.4.4, Fig. 6).
//
// Key observation: if loc1 happens-before loc2 (e.g. both protected by one lock), a
// delay injected right before loc1 causes a proportional stall before loc2. So instead
// of modeling synchronization, TSVD watches for stalls: when thread T's gap since its
// previous TSVD point is >= delta_hb * delay_time AND the gap overlaps a delay that
// another thread injected, infer HB(delayed-loc -> current-loc) — attributing to the
// most recently finished such delay — and, by transitivity, to T's next k_hb accesses.
// Inferred pairs are pruned from the trap set.
// T's previous call, own latest delay end and credits live in the runtime's
// per-thread slot (Access::timeline).
#ifndef SRC_CORE_HB_INFERENCE_H_
#define SRC_CORE_HB_INFERENCE_H_

#include <atomic>
#include <mutex>
#include <vector>

#include "src/common/config.h"
#include "src/core/access.h"
#include "src/core/detector.h"
#include "src/core/thread_timeline.h"
#include "src/core/trap_set.h"

namespace tsvd {

class HbInference {
 public:
  HbInference(const Config& config, TrapSet& trap_set);

  // Called on every TSVD point (before near-miss pair addition, so that a freshly
  // inferred HB edge blocks the pair from (re)entering the trap set). An access
  // without a timeline infers nothing.
  void OnAccess(const Access& access);

  // Called when a delay injected at `access.op` completes. Records the delay for gap
  // attribution and records the delay's end on the delaying thread's timeline so its
  // own sleep is never misread as a causal stall.
  void OnDelayFinished(const Access& access, const DelayOutcome& outcome);

  uint64_t InferredEdges() const {
    return inferred_edges_.load(std::memory_order_relaxed);
  }

 private:
  struct FinishedDelay {
    OpId op = kInvalidOp;
    ThreadId tid = 0;
    Micros start = 0;
    Micros end = 0;
  };

  const Config config_;
  TrapSet& trap_set_;

  // Ring of recently finished delays; scanned (it is tiny) on gap detection.
  static constexpr size_t kDelayRing = 128;
  mutable std::mutex delays_mu_;
  std::vector<FinishedDelay> delays_;
  size_t delays_next_ = 0;
  // Latest end timestamp across all recorded delays. OnAccess reads it before taking
  // delays_mu_: a qualifying delay must end inside the observed gap, so when the
  // latest end predates the gap the scan cannot match and the lock is skipped. With
  // no delays finishing (the common case of a healthy fast path, and always when
  // delta_hb * delay is small relative to inter-access gaps) OnAccess stays lock-free.
  std::atomic<Micros> latest_delay_end_{0};

  std::atomic<uint64_t> inferred_edges_{0};
};

}  // namespace tsvd

#endif  // SRC_CORE_HB_INFERENCE_H_
