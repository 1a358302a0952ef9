// Campaign scheduler: a fleet of persistent workers executing run jobs in parallel.
//
// Each worker owns a private tasks::ThreadPool; the job function receives it and runs
// the module under an ExecDomain bound to that pool, so W workers execute W
// instrumented runs concurrently with process-style isolation (fresh Runtime each, no
// shared instrumentation state) — the in-process analogue of the deployment's
// one-process-per-run fleet. In sandbox mode the job function additionally forks a
// real child process per run (src/sandbox/).
//
// Failure handling mirrors the paper's cloud service, which re-queues crashed test
// runs. Every job climbs one AttemptLadder, the same fold fleet agents use through
// ExecuteWithRetries: an attempt that throws — any exception, standard or not — or
// returns a non-kOk outcome (a sandboxed child that crashed or hit its watchdog
// deadline) is retried up to max_attempts times with exponential backoff; a
// timed-out attempt is retried one step further down the delay-degradation ladder;
// a job that exhausts its attempts is reported with `quarantined = true`, never
// dropped. Every failed attempt's error is recorded, and trap pairs salvaged from
// failed attempts are carried into the final outcome so no learned near-miss pair
// is lost.
#ifndef SRC_CAMPAIGN_SCHEDULER_H_
#define SRC_CAMPAIGN_SCHEDULER_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/campaign/round.h"
#include "src/tasks/thread_pool.h"

namespace tsvd::campaign {

// Retry shape for one job: at most max_attempts attempts; the n-th retry waits
// backoff_base_ms * 2^(n-1) ms, capped at 2 s (0 retries at once). Campaigns build
// it from their options with RetryPolicyFor (run_executor.h).
struct RetryPolicy {
  int max_attempts;
  int backoff_base_ms;
};

// One attempt of a job on the caller's private pool.
using AttemptFn = std::function<RunOutcome(const RunJob& job, tasks::ThreadPool& pool)>;

// One job's retry, degradation and quarantine ladder. It tracks the attempt
// number and degrade level, every failed attempt's error and the trap pairs
// salvaged from failed attempts, and builds the job's final outcome from them.
// The Scheduler re-queues a retry behind its backoff window; ExecuteWithRetries
// sleeps through it. Both fold attempts only through this class.
class AttemptLadder {
 public:
  AttemptLadder(const RunJob& job, const RetryPolicy& policy);

  // The attempt to run next.
  const RunJob& job() const { return job_; }

  // Runs job() through `attempt` and folds the result in. A non-kOk outcome and a
  // throw of any type both fail the attempt.
  void Run(const AttemptFn& attempt, tasks::ThreadPool& pool);

  // True when the last attempt failed and the policy allows another.
  bool ShouldRetry() const { return failed_ && job_.attempt < max_attempts_; }

  // Steps to the next attempt, one degrade level down after a timeout, and
  // returns how long to back off before running it.
  Micros Advance();

  // The final outcome after the last attempt. A failed job is quarantined only
  // when it used every attempt: a drain may stop it earlier.
  RunOutcome Finish();

  // The outcome of a job a drain stopped before its next attempt: kSkipped, with
  // the attempts that ran and what their failures left.
  RunOutcome Skip();

 private:
  RunJob job_;
  int max_attempts_;
  int backoff_base_ms_;
  RunOutcome last_;     // the last attempt's outcome (default after a throw)
  bool failed_ = false;
  std::string error_;   // the last failed attempt's error
  std::vector<std::string> errors_;  // "attempt N: ..." for every failure so far
  TrapFile salvaged_;   // traps recovered from failed attempts
};

// A job's whole ladder on the calling thread, sleeping through each backoff: how
// a fleet agent runs the job it leased.
RunOutcome ExecuteWithRetries(const RunJob& job, const AttemptFn& attempt,
                              tasks::ThreadPool& pool, const RetryPolicy& policy);

class Scheduler {
 public:
  // Invoked on the worker thread the moment a job reaches its *final* outcome
  // (success or quarantine), strictly before ExecuteRound can return — the
  // campaign's journal-commit hook. Never invoked for jobs a drain skipped or cut
  // short. Called outside the scheduler lock, so it may do slow I/O (fsync).
  using CompletionFn = std::function<void(const RunOutcome& outcome)>;

  explicit Scheduler(int workers,
                     int pool_threads_per_worker = tasks::ThreadPool::kDefaultThreads);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Runs every job across the fleet, each attempt through `fn` on the worker's
  // private pool, and blocks until all have completed (or exhausted max_attempts).
  // Outcomes are returned in job order regardless of which worker ran them or in
  // what order they finished. Not reentrant. When `interrupt` is provided it is
  // polled while waiting; the first true triggers RequestDrain.
  std::vector<RunOutcome> ExecuteRound(const std::vector<RunJob>& jobs, const AttemptFn& fn,
                                       const RetryPolicy& policy,
                                       const std::function<bool()>& interrupt);

  // Registers the final-outcome hook. Set while no round is executing.
  void SetCompletionCallback(CompletionFn fn);

  // Graceful drain (the SIGINT/SIGTERM contract): jobs not yet started complete
  // immediately with RunStatus::kSkipped, in-flight jobs run to their natural end
  // (or their sandbox watchdog deadline), and a failed in-flight job is not
  // retried. Sticky until the scheduler is destroyed; safe from any thread — but
  // NOT from a signal handler (it takes locks and notifies condition variables;
  // handlers should set a flag that ExecuteRound's `interrupt` poll observes).
  void RequestDrain();
  bool draining() const;

  int workers() const { return static_cast<int>(threads_.size()); }

 private:
  struct QueuedJob {
    AttemptLadder ladder;
    size_t slot = 0;
    Micros ready_at_us = 0;  // backoff: not eligible before this time
  };

  void WorkerLoop(int worker_index);
  // Pops the first eligible job, waiting out backoff windows. Returns nothing on
  // shutdown with an empty queue.
  std::optional<QueuedJob> NextJob(std::unique_lock<std::mutex>& lock);
  // Completes every queued (not yet dispatched) job with a kSkipped outcome.
  void DrainQueueLocked();

  const int pool_threads_per_worker_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for jobs
  std::condition_variable done_cv_;   // ExecuteRound waits for completion
  std::deque<QueuedJob> queue_;
  const AttemptFn* fn_ = nullptr;     // valid for the duration of one ExecuteRound
  CompletionFn completion_;           // final-outcome hook (may be empty)
  size_t outstanding_ = 0;            // queued + executing
  std::vector<RunOutcome>* outcomes_ = nullptr;
  bool shutdown_ = false;
  bool drain_ = false;                // sticky: skip queued jobs, no retries

  std::vector<std::thread> threads_;
};

}  // namespace tsvd::campaign

#endif  // SRC_CAMPAIGN_SCHEDULER_H_
