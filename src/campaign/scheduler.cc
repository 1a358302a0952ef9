#include "src/campaign/scheduler.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

namespace tsvd::campaign {

AttemptLadder::AttemptLadder(const RunJob& job, const RetryPolicy& policy)
    : job_(job),
      max_attempts_(std::max(policy.max_attempts, 1)),
      backoff_base_ms_(policy.backoff_base_ms) {}

void AttemptLadder::Run(const AttemptFn& attempt, tasks::ThreadPool& pool) {
  last_ = RunOutcome{};  // what a throw leaves
  failed_ = true;
  try {
    last_ = attempt(job_, pool);
    failed_ = last_.status != RunStatus::kOk;
    if (failed_) {
      error_ = last_.error.empty() ? "run failed" : last_.error;
    }
  } catch (const std::exception& e) {
    error_ = e.what();
  } catch (...) {
    // A non-standard throw (int, const char*, ...) must degrade to a crashed
    // outcome, not terminate the worker or agent.
    error_ = "non-standard exception";
  }
  if (failed_) {
    errors_.push_back("attempt " + std::to_string(job_.attempt) + ": " + error_);
    // Failed sandbox attempts can still carry trap pairs salvaged from the
    // child's atomic checkpoint; keep them across retries.
    if (!last_.traps.empty()) {
      salvaged_.Merge(last_.traps);
    }
  }
}

Micros AttemptLadder::Advance() {
  if (last_.status == RunStatus::kTimedOut) {
    ++job_.degrade_level;
  }
  Micros backoff_us = 0;
  if (backoff_base_ms_ > 0) {
    // First retry waits the base; each further retry doubles it, capped.
    constexpr int64_t kBackoffCapMs = 2'000;
    const int doublings = std::min(job_.attempt - 1, 20);
    backoff_us = 1000 * std::min<int64_t>(
                            static_cast<int64_t>(backoff_base_ms_) << doublings,
                            std::max<int64_t>(kBackoffCapMs, backoff_base_ms_));
  }
  ++job_.attempt;
  return backoff_us;
}

RunOutcome AttemptLadder::Finish() {
  RunOutcome outcome = std::move(last_);
  if (failed_) {
    // Preserve whatever forensics the failed outcome carries (crash signature,
    // fatal signal); a throw synthesizes a crashed outcome.
    if (outcome.status == RunStatus::kOk) {
      outcome = RunOutcome{};
      outcome.status = RunStatus::kCrashed;
    }
    outcome.module_index = job_.module_index;
    outcome.round = job_.round;
    outcome.error = error_;
    outcome.quarantined = job_.attempt >= max_attempts_;
    outcome.observations.clear();
    outcome.traps = std::move(salvaged_);
    outcome.salvaged_trap_pairs = outcome.traps.size();
  } else {
    outcome.salvaged_trap_pairs = salvaged_.size();
    if (!salvaged_.empty()) {
      // Earlier failed attempts' learning survives a successful retry.
      outcome.traps.Merge(salvaged_);
    }
  }
  outcome.attempt_errors = std::move(errors_);
  outcome.attempts = job_.attempt;
  outcome.degrade_level = job_.degrade_level;
  return outcome;
}

RunOutcome AttemptLadder::Skip() {
  RunOutcome skipped;
  skipped.module_index = job_.module_index;
  skipped.round = job_.round;
  skipped.status = RunStatus::kSkipped;
  skipped.attempts = job_.attempt - 1;  // attempts actually executed
  skipped.degrade_level = job_.degrade_level;
  skipped.error = "skipped: drain requested";
  skipped.attempt_errors = std::move(errors_);
  skipped.traps = std::move(salvaged_);  // keep failed-attempt learning
  return skipped;
}

RunOutcome ExecuteWithRetries(const RunJob& job, const AttemptFn& attempt,
                              tasks::ThreadPool& pool, const RetryPolicy& policy) {
  AttemptLadder ladder(job, policy);
  for (;;) {
    ladder.Run(attempt, pool);
    if (!ladder.ShouldRetry()) {
      return ladder.Finish();
    }
    SleepMicros(ladder.Advance());
  }
}

Scheduler::Scheduler(int workers, int pool_threads_per_worker)
    : pool_threads_per_worker_(pool_threads_per_worker > 0 ? pool_threads_per_worker
                                                           : 1) {
  const int n = workers > 0 ? workers : 1;
  threads_.reserve(n);
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

std::vector<RunOutcome> Scheduler::ExecuteRound(const std::vector<RunJob>& jobs,
                                                const AttemptFn& fn,
                                                const RetryPolicy& policy,
                                                const std::function<bool()>& interrupt) {
  std::vector<RunOutcome> outcomes(jobs.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    outcomes_ = &outcomes;
    for (size_t i = 0; i < jobs.size(); ++i) {
      queue_.push_back(QueuedJob{AttemptLadder(jobs[i], policy), i, 0});
    }
    outstanding_ = jobs.size();
    if (drain_) {
      // A drained scheduler (signal arrived between rounds) dispatches nothing.
      DrainQueueLocked();
    }
  }
  work_cv_.notify_all();

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (outstanding_ == 0) {
      break;
    }
    if (interrupt) {
      if (!drain_ && interrupt()) {
        // Signal observed: stop dispatching, let in-flight jobs finish. Workers
        // blocked on work_cv_ see the empty queue and keep waiting harmlessly.
        drain_ = true;
        DrainQueueLocked();
        work_cv_.notify_all();
        continue;
      }
      done_cv_.wait_for(lock, std::chrono::milliseconds(50),
                        [this] { return outstanding_ == 0; });
    } else {
      done_cv_.wait(lock, [this] { return outstanding_ == 0; });
    }
  }
  fn_ = nullptr;
  outcomes_ = nullptr;
  return outcomes;
}

void Scheduler::SetCompletionCallback(CompletionFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  completion_ = std::move(fn);
}

void Scheduler::RequestDrain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    drain_ = true;
    if (outcomes_ != nullptr) {
      DrainQueueLocked();
    } else {
      queue_.clear();  // no round executing: nothing to report skipped
    }
  }
  work_cv_.notify_all();
}

bool Scheduler::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drain_;
}

void Scheduler::DrainQueueLocked() {
  while (!queue_.empty()) {
    QueuedJob& item = queue_.front();
    (*outcomes_)[item.slot] = item.ladder.Skip();
    queue_.pop_front();
    --outstanding_;
  }
  if (outstanding_ == 0) {
    done_cv_.notify_all();
  }
}

std::optional<Scheduler::QueuedJob> Scheduler::NextJob(
    std::unique_lock<std::mutex>& lock) {
  for (;;) {
    if (shutdown_ && queue_.empty()) {
      return std::nullopt;
    }
    if (!queue_.empty()) {
      const Micros now = NowMicros();
      Micros earliest = queue_.front().ready_at_us;
      auto ready = queue_.end();
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        earliest = std::min(earliest, it->ready_at_us);
        if (it->ready_at_us <= now) {
          ready = it;
          break;
        }
      }
      if (ready != queue_.end()) {
        std::optional<QueuedJob> next(std::move(*ready));
        queue_.erase(ready);
        return next;
      }
      // Everything queued is still backing off: sleep until the earliest window
      // opens (or a new job / shutdown wakes us).
      work_cv_.wait_for(lock, std::chrono::microseconds(earliest - now));
      continue;
    }
    work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
  }
}

void Scheduler::WorkerLoop(int worker_index) {
  (void)worker_index;
  // The worker's private task pool: every run this worker executes schedules its
  // tasks here (via the ExecDomain the job function installs), giving per-run
  // quiescence and full isolation from the other workers' runs.
  tasks::ThreadPool pool(pool_threads_per_worker_);

  for (;;) {
    std::optional<QueuedJob> item;
    const AttemptFn* fn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      item = NextJob(lock);
      if (!item) {
        return;
      }
      fn = fn_;
    }

    item->ladder.Run(*fn, pool);

    std::unique_lock<std::mutex> lock(mu_);
    if (item->ladder.ShouldRetry() && !drain_) {
      // Re-queue the crashed run for another attempt, like the fleet re-running a
      // flaky test process, behind its backoff window so this worker runs other
      // jobs meanwhile. outstanding_ is unchanged: the job is still pending. A
      // drain stops this path: a retry is a new dispatch.
      item->ready_at_us = NowMicros() + item->ladder.Advance();
      queue_.push_back(std::move(*item));
      work_cv_.notify_one();
      continue;
    }
    // A drain that cut retries short leaves the job un-quarantined and
    // un-journaled: the uninterrupted campaign might have retried it
    // successfully, so a resumed one re-runs it fresh.
    RunOutcome outcome = item->ladder.Finish();

    // Journal hook: runs off-lock (it fsyncs) but strictly before outstanding_
    // drops, so ExecuteRound cannot return with a completion still in flight.
    // Final outcomes only — never a drain-truncated failure (see above).
    if (completion_ && (outcome.status == RunStatus::kOk || outcome.quarantined)) {
      const CompletionFn completion = completion_;
      lock.unlock();
      completion(outcome);
      lock.lock();
    }

    (*outcomes_)[item->slot] = std::move(outcome);
    if (--outstanding_ == 0) {
      done_cv_.notify_all();
    }
  }
}

}  // namespace tsvd::campaign
