#include "src/core/delay_engine.h"

#include <algorithm>
#include <vector>

namespace tsvd {
namespace {

// The sentinel polls rather than recomputing a wake deadline on every park: parks
// are frequent, stalls are rare, and a poll at a fraction of the grace period keeps
// the detection latency bounded without any per-park bookkeeping.
constexpr Micros kMinSentinelTickUs = 1'000;
constexpr Micros kMaxSentinelTickUs = 50'000;

}  // namespace

const char* WakeReasonName(WakeReason reason) {
  switch (reason) {
    case WakeReason::kTimeout:
      return "timeout";
    case WakeReason::kCatchWake:
      return "catch-wake";
    case WakeReason::kStallCancel:
      return "stall-cancel";
    case WakeReason::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

DelayEngine::DelayEngine(const Config& config)
    : config_(config), run_start_us_(NowMicros()), last_progress_us_(run_start_us_) {}

DelayEngine::~DelayEngine() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    CancelAllLocked(WakeReason::kShutdown);
    if (sentinel_started_) {
      to_join = std::move(sentinel_);
    }
  }
  sentinel_cv_.notify_all();
  if (to_join.joinable()) {
    to_join.join();
  }
}

bool DelayEngine::Admit(ThreadId tid, Micros duration_us, RequestId request) {
  if (duration_us <= 0) {
    return false;
  }
  // A thread past the slot capacity has no per-thread budget.
  ThreadBudget* budget =
      config_.max_delay_per_thread_us > 0 ? thread_budgets_.Find(tid) : nullptr;
  if (budget != nullptr &&
      budget->committed + duration_us > config_.max_delay_per_thread_us) {
    delays_skipped_budget_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(gov_mu_);
    const Micros in_flight = gov_spent_us_ + gov_reserved_us_ + duration_us;
    if (config_.max_delay_total_us > 0 && in_flight > config_.max_delay_total_us) {
      delays_skipped_budget_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (config_.max_overhead_pct > 0) {
      // Charge the delay against the wall time as it will stand when the delay
      // finishes: elapsed + duration. Reservations count in full, so concurrent
      // admissions cannot jointly overshoot the cap — the invariant is
      // spent + reserved <= pct% of elapsed wall time, give or take one
      // in-flight delay per thread (settled down when the park ends early).
      const Micros elapsed = NowMicros() - run_start_us_ + duration_us;
      const Micros allowed =
          static_cast<Micros>(config_.max_overhead_pct / 100.0 * static_cast<double>(elapsed));
      if (in_flight > allowed) {
        delays_skipped_budget_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    if (config_.max_delay_per_request_us > 0 && request != kNoRequest) {
      Micros& committed = request_committed_[request];
      if (committed + duration_us > config_.max_delay_per_request_us) {
        delays_skipped_budget_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      committed += duration_us;
    }
    gov_reserved_us_ += duration_us;
  }
  if (budget != nullptr) {
    budget->committed += duration_us;
  }
  return true;
}

void DelayEngine::Settle(ThreadId tid, RequestId request, Micros reserved_us,
                         Micros slept_us) {
  // Keep the larger of requested/actual committed: a sleep overshooting its
  // deadline still counts in full, an early wake refunds the unslept tail.
  const Micros unslept = std::max<Micros>(0, reserved_us - slept_us);
  {
    std::lock_guard<std::mutex> lock(gov_mu_);
    gov_reserved_us_ -= reserved_us;
    gov_spent_us_ += slept_us;
    if (unslept > 0 && config_.max_delay_per_request_us > 0 && request != kNoRequest) {
      request_committed_[request] -= unslept;
    }
  }
  // Admit allocated this thread's budget slot if the budget is on.
  ThreadBudget* budget =
      config_.max_delay_per_thread_us > 0 ? thread_budgets_.Peek(tid) : nullptr;
  if (budget != nullptr) {
    budget->committed -= unslept;
  }
}

ParkResult DelayEngine::Park(ThreadId tid, OpId op, Micros duration_us,
                             const std::atomic<bool>* caught, RequestId request) {
  injected_.fetch_add(1, std::memory_order_relaxed);
  ParkResult result;
  result.start_us = NowMicros();
  Ticket ticket;
  ticket.tid = tid;
  ticket.op = op;
  ticket.park_start = result.start_us;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) {
      result.end_us = result.start_us;
      result.reason = WakeReason::kShutdown;
      Settle(tid, request, duration_us, 0);
      return result;
    }
    MaybeStartSentinelLocked();
    // Refresh the watermark before callers start maintaining it (NoteProgress only
    // stores it while parked_count_ is nonzero): the sentinel must never judge the
    // fresh park against a watermark that went stale during a parkless stretch.
    last_progress_us_.store(result.start_us, std::memory_order_relaxed);
    parked_count_.fetch_add(1, std::memory_order_relaxed);
    parked_.push_back(&ticket);
    // A racer sets `caught` before it takes mu_ in WakeThread: if it is not set yet,
    // that wake will find this ticket.
    if (caught != nullptr && caught->load(std::memory_order_acquire)) {
      ticket.woken = true;
      ticket.reason = WakeReason::kCatchWake;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::microseconds(duration_us);
    while (!ticket.woken) {
      if (ticket.cv.wait_until(lock, deadline) == std::cv_status::timeout &&
          !ticket.woken) {
        break;  // full-length sleep; reason stays kTimeout
      }
    }
    result.reason = ticket.reason;
    parked_.remove(&ticket);
    parked_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  result.end_us = NowMicros();
  const Micros slept = result.end_us - result.start_us;
  total_slept_us_.fetch_add(slept, std::memory_order_relaxed);
  switch (result.reason) {
    case WakeReason::kCatchWake:
      early_woken_.fetch_add(1, std::memory_order_relaxed);
      early_wake_saved_us_.fetch_add(std::max<Micros>(0, duration_us - slept),
                                     std::memory_order_relaxed);
      break;
    case WakeReason::kStallCancel:
      aborted_stall_.fetch_add(1, std::memory_order_relaxed);
      break;
    case WakeReason::kTimeout:
    case WakeReason::kShutdown:
      break;
  }
  Settle(tid, request, duration_us, slept);
  return result;
}

bool DelayEngine::WakeThread(ThreadId tid, WakeReason reason) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Ticket* ticket : parked_) {
    if (ticket->tid == tid && !ticket->woken) {
      ticket->woken = true;
      ticket->reason = reason;
      ticket->cv.notify_one();
      return true;
    }
  }
  return false;
}

size_t DelayEngine::CancelAllLocked(WakeReason reason) {
  size_t woken = 0;
  for (Ticket* ticket : parked_) {  // list order == park order == oldest first
    if (!ticket->woken) {
      ticket->woken = true;
      ticket->reason = reason;
      ticket->cv.notify_one();
      ++woken;
    }
  }
  return woken;
}

size_t DelayEngine::CancelAllParked(WakeReason reason) {
  std::lock_guard<std::mutex> lock(mu_);
  return CancelAllLocked(reason);
}

uint64_t DelayEngine::NotedCalls() const {
  uint64_t calls = untimed_calls_.load(std::memory_order_relaxed);
  timelines_.ForEach([&calls](size_t, const ThreadTimeline& slot) {
    calls += slot.calls.load(std::memory_order_relaxed);
  });
  return calls;
}

void DelayEngine::MaybeStartSentinelLocked() {
  if (sentinel_started_ || config_.stall_grace_us <= 0) {
    return;
  }
  sentinel_started_ = true;
  sentinel_ = std::thread([this] { SentinelLoop(); });
}

void DelayEngine::SentinelLoop() {
  const Micros grace = config_.stall_grace_us;
  const auto tick = std::chrono::microseconds(
      std::clamp<Micros>(grace / 4, kMinSentinelTickUs, kMaxSentinelTickUs));
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutdown_) {
    sentinel_cv_.wait_for(lock, tick);
    if (shutdown_ || parked_.empty()) {
      continue;
    }
    const Micros now = NowMicros();
    const Micros oldest_age = now - parked_.front()->park_start;

    // Stall shape 1: nobody — parked or not — has entered OnCall for a full grace
    // period while delays are armed. A peer is most likely blocked on something the
    // sleeper holds (the §4.2 hazard).
    const bool no_progress =
        now - last_progress_us_.load(std::memory_order_relaxed) > grace;

    // Stall shape 2: every instrumented thread seen within the last grace period is
    // itself parked. Sleeping threads cannot walk into each other's traps, so the
    // delays can no longer catch anything; release them early (half grace, to let
    // late-starting threads arrive before we give up on the round).
    bool all_parked = false;
    if (!no_progress && oldest_age > grace / 2) {
      std::vector<ThreadId> parked_tids;
      parked_tids.reserve(parked_.size());
      for (const Ticket* ticket : parked_) {
        parked_tids.push_back(ticket->tid);
      }
      // Only pages some thread has stamped can hold a recent stamp; the walk
      // never allocates.
      bool active_outside = false;
      timelines_.ForEach([&](size_t tid, const ThreadTimeline& slot) {
        const Micros seen = slot.last_call.load(std::memory_order_relaxed);
        if (active_outside || seen == 0 || now - seen > grace) {
          return;  // never instrumented / idle long enough to not count
        }
        active_outside = std::find(parked_tids.begin(), parked_tids.end(),
                                   static_cast<ThreadId>(tid)) == parked_tids.end();
      });
      all_parked = !active_outside;
    }

    if (no_progress || all_parked) {
      CancelAllLocked(WakeReason::kStallCancel);
      // Restart the grace window so the cancelled threads get time to resume
      // before the next sweep can fire.
      last_progress_us_.store(now, std::memory_order_relaxed);
    }
  }
}

}  // namespace tsvd
