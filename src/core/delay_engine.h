// Interruptible delay injection: parks, wake sources, and the delay governor.
//
// The paper's runtime models a delay as an uninterruptible sleep; §4.2 concedes the
// consequence — TSVD does not know which locks the delayed thread holds, so a delay
// can stall the host test until an external watchdog kills the whole run. The delay
// engine replaces the raw sleep with a per-trap condition-variable park that three
// mechanisms can cut short:
//
//   1. Catch wake: the moment a conflicting access springs the trap, the trapped
//      thread is released. The bug is already caught; the remaining sleep is pure
//      wasted wall time (bench/delay_engine_wakeup measures the saving).
//   2. Progress sentinel: a lazily started monitor thread watches for the two stall
//      shapes a delay can cause — no thread has entered OnCall for longer than
//      `stall_grace_us` while at least one delay is parked (a peer is blocked on a
//      resource the sleeper holds), or every recently active instrumented thread is
//      itself parked (delays cannot catch each other, so the sleeps are dead weight).
//      Either way it cancels all active parks, oldest first. The cancelled delay
//      reports `conflict_found = false` upstream, so P_loc decays through the
//      detector's ordinary failed-delay path.
//   3. Governor: admission control — a per-thread budget
//      (`max_delay_per_thread_us`), a per-request budget (`max_delay_per_request_us`,
//      shared by every thread of one logical request), a per-run aggregate budget
//      (`max_delay_total_us`), and an adaptive overhead cap (`max_overhead_pct`):
//      when injected-delay wall time would exceed that fraction of elapsed run time,
//      new delays are skipped until the ratio recovers.
//
// The engine is per-Runtime, like the trap registry: forked sandbox children build a
// fresh Runtime and therefore a fresh engine (the sentinel thread is never inherited
// across fork, since it is only started lazily at the first park).
#ifndef SRC_CORE_DELAY_ENGINE_H_
#define SRC_CORE_DELAY_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/common/clock.h"
#include "src/common/config.h"
#include "src/common/ids.h"
#include "src/common/per_thread.h"
#include "src/common/request_context.h"
#include "src/core/thread_timeline.h"

namespace tsvd {

enum class WakeReason {
  kTimeout,      // the delay ran its full length
  kCatchWake,    // a conflicting access sprang the trap; no reason to keep sleeping
  kStallCancel,  // the progress sentinel declared the run stalled
  kShutdown,     // engine teardown or the fail-open firewall disabling the runtime
};

const char* WakeReasonName(WakeReason reason);

struct ParkResult {
  WakeReason reason = WakeReason::kTimeout;
  Micros start_us = 0;
  Micros end_us = 0;
};

class DelayEngine {
 public:
  explicit DelayEngine(const Config& config);
  ~DelayEngine();

  DelayEngine(const DelayEngine&) = delete;
  DelayEngine& operator=(const DelayEngine&) = delete;

  // Admission control. On success the full duration is reserved against the
  // per-thread, per-request (`request`, unless kNoRequest), aggregate, and overhead
  // budgets; Park() settles the reservation to the time actually slept. Every
  // rejection bumps delays_skipped_budget. The caller must follow a successful
  // Admit with Park on the same thread, passing the same request.
  bool Admit(ThreadId tid, Micros duration_us, RequestId request = kNoRequest);

  // Parks the calling thread for up to duration_us or until woken early. Settles
  // the admission reservation on exit.
  //
  // `caught`, if given, is the flag a racing thread sets before it calls
  // WakeThread; it is read after the park is registered, so a catch that lands
  // between arming the trap and parking returns at once as a catch wake instead
  // of being lost and sleeping the full delay.
  ParkResult Park(ThreadId tid, OpId op, Micros duration_us,
                  const std::atomic<bool>* caught = nullptr,
                  RequestId request = kNoRequest);

  // Wakes the park of `tid`, if any. Returns true if a parked thread was woken.
  // Used by the runtime's trap-conflict path: TrapRegistry::Conflict names the
  // trapped thread, and each thread holds at most one park at a time.
  bool WakeThread(ThreadId tid, WakeReason reason);

  // Cancels every active park, oldest first. Returns the number woken.
  size_t CancelAllParked(WakeReason reason);

  // Progress heartbeat: called on every OnCall entry with the call's timestamp.
  // Enters the caller's timeline slot and returns it (null past the slot capacity)
  // for the runtime to hand to the detector. Only while a delay is parked does it
  // also store the global no-OnCall watermark: the sentinel reads it only then, and
  // every thread writing one shared line on every call would be pure cross-core
  // traffic. The park counter gating it is written only when parks begin and end.
  ThreadTimeline* NoteProgress(ThreadId tid, Micros now) {
    ThreadTimeline* self = timelines_.Find(tid);
    if (self != nullptr) [[likely]] {
      self->Enter(now);
    } else {
      untimed_calls_.fetch_add(1, std::memory_order_relaxed);
    }
    // Park() seeds the watermark when a parkless stretch ends.
    if (parked_count_.load(std::memory_order_relaxed) != 0) {
      last_progress_us_.store(now, std::memory_order_relaxed);
    }
    return self;
  }

  // --- counters (stable once the run's tasks are quiescent) ---
  uint64_t DelaysInjected() const { return injected_.load(std::memory_order_relaxed); }
  uint64_t EarlyWoken() const { return early_woken_.load(std::memory_order_relaxed); }
  uint64_t AbortedStall() const { return aborted_stall_.load(std::memory_order_relaxed); }
  uint64_t SkippedBudget() const {
    return delays_skipped_budget_.load(std::memory_order_relaxed);
  }
  // Tail sleep avoided by catch wakes: sum over early-woken parks of
  // (requested duration - time actually slept).
  Micros EarlyWakeSavedUs() const {
    return early_wake_saved_us_.load(std::memory_order_relaxed);
  }
  // Total time threads actually spent parked.
  Micros TotalSleptUs() const { return total_slept_us_.load(std::memory_order_relaxed); }

  uint64_t NotedCalls() const;  // NoteProgress calls, i.e. OnCall entries

  // Pages of per-thread timelines allocated so far: one per 64 thread ids that
  // have entered OnCall. Nothing else (the sentinel included) allocates them.
  size_t ProgressPages() const { return timelines_.AllocatedPages(); }

 private:
  struct Ticket {
    ThreadId tid = 0;
    OpId op = kInvalidOp;
    Micros park_start = 0;
    bool woken = false;
    WakeReason reason = WakeReason::kTimeout;
    std::condition_variable cv;
  };

  struct ThreadBudget {
    Micros committed = 0;  // sum of admitted durations, refunded down to actual on settle
  };

  void MaybeStartSentinelLocked();
  void SentinelLoop();
  // Cancels all parks, oldest first. Caller holds mu_.
  size_t CancelAllLocked(WakeReason reason);
  void Settle(ThreadId tid, RequestId request, Micros reserved_us, Micros slept_us);

  const Config config_;
  const Micros run_start_us_;

  // Protects parked_ and the sentinel start/stop handshake. Tickets live on their
  // parker's stack; they are only reachable through parked_, so every access to a
  // ticket of another thread happens under this mutex.
  std::mutex mu_;
  std::list<Ticket*> parked_;  // insertion order == park order == oldest first

  // Governor accounting: reservations and settled spend, under their own mutex so
  // admissions never contend with wakes. Each request's committed delay is
  // checked and reserved under it too, because threads of one request admit
  // concurrently; a thread's own budget needs no lock.
  std::mutex gov_mu_;
  Micros gov_reserved_us_ = 0;
  Micros gov_spent_us_ = 0;
  std::unordered_map<RequestId, Micros> request_committed_;
  PerThread<ThreadBudget> thread_budgets_;

  // Stall detection state. last_progress_us_ is the no-OnCall watermark, written
  // by callers only while parked_count_ is nonzero (and refreshed at park entry so
  // it is never stale when the sentinel starts judging). The timelines' last_call
  // stamps feed the "every recently active thread is parked" check.
  std::atomic<Micros> last_progress_us_;
  std::atomic<uint32_t> parked_count_{0};
  ThreadTimelines timelines_;
  std::atomic<uint64_t> untimed_calls_{0};  // calls of threads without a slot

  std::thread sentinel_;
  std::condition_variable sentinel_cv_;
  bool sentinel_started_ = false;
  bool shutdown_ = false;

  std::atomic<uint64_t> injected_{0};  // Park calls
  std::atomic<uint64_t> early_woken_{0};
  std::atomic<uint64_t> aborted_stall_{0};
  std::atomic<uint64_t> delays_skipped_budget_{0};
  std::atomic<Micros> early_wake_saved_us_{0};
  std::atomic<Micros> total_slept_us_{0};
};

}  // namespace tsvd

#endif  // SRC_CORE_DELAY_ENGINE_H_
