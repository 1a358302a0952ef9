// Scheduler behavior: parallel execution across workers, job-order outcomes, retry of
// thrown jobs, and crashed classification once attempts are exhausted.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/campaign/scheduler.h"

namespace tsvd::campaign {
namespace {

// No backoff, so retries run at once.
RetryPolicy Attempts(int max_attempts) { return RetryPolicy{max_attempts, 0}; }

std::vector<RunJob> MakeJobs(int n, int round = 1) {
  std::vector<RunJob> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.push_back(RunJob{i, round, 1});
  }
  return jobs;
}

TEST(SchedulerTest, OutcomesComeBackInJobOrder) {
  Scheduler scheduler(/*workers=*/4, /*pool_threads_per_worker=*/2);
  const std::vector<RunJob> jobs = MakeJobs(16);

  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      jobs, [](const RunJob& job, tasks::ThreadPool&) {
        // Finish out of submission order on purpose.
        std::this_thread::sleep_for(
            std::chrono::milliseconds((16 - job.module_index) % 5));
        RunOutcome outcome;
        outcome.module_index = job.module_index;
        outcome.round = job.round;
        return outcome;
      }, Attempts(2), {});

  ASSERT_EQ(outcomes.size(), jobs.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].module_index, static_cast<int>(i));
    EXPECT_EQ(outcomes[i].status, RunStatus::kOk);
    EXPECT_EQ(outcomes[i].attempts, 1);
  }
}

TEST(SchedulerTest, JobsRunInParallelAcrossWorkers) {
  Scheduler scheduler(/*workers=*/4, /*pool_threads_per_worker=*/1);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};

  scheduler.ExecuteRound(MakeJobs(12), [&](const RunJob&, tasks::ThreadPool&) {
    const int now = ++concurrent;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    --concurrent;
    return RunOutcome{};
  }, Attempts(2), {});

  // With 4 workers and 20ms jobs, at least two must have overlapped.
  EXPECT_GE(peak.load(), 2);
}

TEST(SchedulerTest, ThrownJobIsRetriedAndSucceeds) {
  Scheduler scheduler(/*workers=*/2, /*pool_threads_per_worker=*/1);
  std::mutex mu;
  std::set<int> failed_once;

  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(6),
      [&](const RunJob& job, tasks::ThreadPool&) {
        if (job.module_index % 2 == 0) {
          std::lock_guard<std::mutex> lock(mu);
          if (failed_once.insert(job.module_index).second) {
            throw std::runtime_error("transient crash");
          }
        }
        RunOutcome outcome;
        outcome.module_index = job.module_index;
        return outcome;
      },
      Attempts(2), {});

  ASSERT_EQ(outcomes.size(), 6u);
  for (const RunOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.status, RunStatus::kOk);
    const bool crashed_first = outcome.module_index % 2 == 0;
    EXPECT_EQ(outcome.attempts, crashed_first ? 2 : 1) << outcome.module_index;
  }
}

TEST(SchedulerTest, JobExhaustingAttemptsIsReportedCrashedNotDropped) {
  Scheduler scheduler(/*workers=*/2, /*pool_threads_per_worker=*/1);

  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(4),
      [](const RunJob& job, tasks::ThreadPool&) -> RunOutcome {
        if (job.module_index == 2) {
          throw std::runtime_error("deterministic crash");
        }
        RunOutcome outcome;
        outcome.module_index = job.module_index;
        return outcome;
      },
      Attempts(3), {});

  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[2].status, RunStatus::kCrashed);
  EXPECT_EQ(outcomes[2].attempts, 3);
  EXPECT_NE(outcomes[2].error.find("deterministic crash"), std::string::npos);
  for (int i : {0, 1, 3}) {
    EXPECT_EQ(outcomes[i].status, RunStatus::kOk) << i;
  }
}

TEST(SchedulerTest, SchedulerIsReusableAcrossRounds) {
  Scheduler scheduler(/*workers=*/3);
  for (int round = 1; round <= 3; ++round) {
    std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
        MakeJobs(5, round), [](const RunJob& job, tasks::ThreadPool&) {
          RunOutcome outcome;
          outcome.module_index = job.module_index;
          outcome.round = job.round;
          return outcome;
        }, Attempts(2), {});
    ASSERT_EQ(outcomes.size(), 5u);
    EXPECT_EQ(outcomes[4].round, round);
  }
  EXPECT_EQ(scheduler.workers(), 3);
}

TEST(SchedulerTest, EmptyRoundReturnsImmediately) {
  Scheduler scheduler(/*workers=*/2);
  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      {}, [](const RunJob&, tasks::ThreadPool&) { return RunOutcome{}; },
      Attempts(2), {});
  EXPECT_TRUE(outcomes.empty());
}

TEST(SchedulerTest, NonStdThrowIsCapturedNotFatal) {
  Scheduler scheduler(/*workers=*/2, /*pool_threads_per_worker=*/1);
  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(3),
      [](const RunJob& job, tasks::ThreadPool&) -> RunOutcome {
        if (job.module_index == 1) {
          throw 42;  // not a std::exception
        }
        RunOutcome outcome;
        outcome.module_index = job.module_index;
        return outcome;
      },
      Attempts(1), {});

  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[1].status, RunStatus::kCrashed);
  EXPECT_NE(outcomes[1].error.find("non-standard exception"), std::string::npos);
  EXPECT_EQ(outcomes[0].status, RunStatus::kOk);
  EXPECT_EQ(outcomes[2].status, RunStatus::kOk);
}

TEST(SchedulerTest, NonOkOutcomeTriggersRetryLikeAThrow) {
  // Sandbox-mode failures arrive as returned outcomes, not exceptions.
  Scheduler scheduler(/*workers=*/1, /*pool_threads_per_worker=*/1);
  std::atomic<int> calls{0};

  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(1),
      [&](const RunJob& job, tasks::ThreadPool&) {
        RunOutcome outcome;
        outcome.module_index = job.module_index;
        if (++calls == 1) {
          outcome.status = RunStatus::kCrashed;
          outcome.error = "child died";
        }
        return outcome;
      },
      Attempts(2), {});

  EXPECT_EQ(calls.load(), 2);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, RunStatus::kOk);
  EXPECT_EQ(outcomes[0].attempts, 2);
  ASSERT_EQ(outcomes[0].attempt_errors.size(), 1u);
  EXPECT_NE(outcomes[0].attempt_errors[0].find("attempt 1: child died"),
            std::string::npos);
}

TEST(SchedulerTest, EveryFailedAttemptErrorIsRecorded) {
  Scheduler scheduler(/*workers=*/1, /*pool_threads_per_worker=*/1);

  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(1),
      [](const RunJob& job, tasks::ThreadPool&) -> RunOutcome {
        throw std::runtime_error("boom attempt " + std::to_string(job.attempt));
      },
      Attempts(3), {});

  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, RunStatus::kCrashed);
  EXPECT_TRUE(outcomes[0].quarantined);
  ASSERT_EQ(outcomes[0].attempt_errors.size(), 3u);
  EXPECT_NE(outcomes[0].attempt_errors[0].find("attempt 1: boom attempt 1"),
            std::string::npos);
  EXPECT_NE(outcomes[0].attempt_errors[2].find("attempt 3: boom attempt 3"),
            std::string::npos);
}

TEST(SchedulerTest, SuccessfulRunIsNeverQuarantined) {
  Scheduler scheduler(/*workers=*/1);
  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(1), [](const RunJob&, tasks::ThreadPool&) { return RunOutcome{}; },
      Attempts(2), {});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].quarantined);
}

TEST(SchedulerTest, TimedOutAttemptRetriesDownTheDegradationLadder) {
  Scheduler scheduler(/*workers=*/1, /*pool_threads_per_worker=*/1);
  std::vector<int> levels_seen;
  std::mutex mu;

  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(1),
      [&](const RunJob& job, tasks::ThreadPool&) {
        {
          std::lock_guard<std::mutex> lock(mu);
          levels_seen.push_back(job.degrade_level);
        }
        RunOutcome outcome;
        outcome.status = RunStatus::kTimedOut;
        outcome.error = "watchdog";
        return outcome;
      },
      Attempts(3), {});

  // Every timed-out retry stepped the ladder: 0, 1, 2.
  EXPECT_EQ(levels_seen, (std::vector<int>{0, 1, 2}));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, RunStatus::kTimedOut);
  EXPECT_EQ(outcomes[0].degrade_level, 2);
}

TEST(SchedulerTest, CrashRetriesDoNotDegrade) {
  Scheduler scheduler(/*workers=*/1, /*pool_threads_per_worker=*/1);
  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(1),
      [](const RunJob& job, tasks::ThreadPool&) -> RunOutcome {
        EXPECT_EQ(job.degrade_level, 0);  // only timeouts walk the ladder
        throw std::runtime_error("crash");
      },
      Attempts(3), {});
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].degrade_level, 0);
}

TEST(SchedulerTest, RetryWaitsOutTheExponentialBackoffWindow) {
  Scheduler scheduler(/*workers=*/2, /*pool_threads_per_worker=*/1);
  std::mutex mu;
  std::vector<Micros> attempt_times;

  const RetryPolicy policy{/*max_attempts=*/3, /*backoff_base_ms=*/60};

  scheduler.ExecuteRound(
      MakeJobs(1),
      [&](const RunJob&, tasks::ThreadPool&) -> RunOutcome {
        std::lock_guard<std::mutex> lock(mu);
        attempt_times.push_back(NowMicros());
        throw std::runtime_error("always");
      },
      policy, {});

  ASSERT_EQ(attempt_times.size(), 3u);
  // Attempt 2 waits >= base (60ms), attempt 3 >= 2*base (120ms). Allow scheduling
  // slack downward of ~10%.
  EXPECT_GE(attempt_times[1] - attempt_times[0], 54'000);
  EXPECT_GE(attempt_times[2] - attempt_times[1], 108'000);
}

TEST(SchedulerTest, BackoffDoesNotBlockOtherJobs) {
  // While one job sits in its backoff window, the single worker must keep running
  // the rest of the round.
  Scheduler scheduler(/*workers=*/1, /*pool_threads_per_worker=*/1);
  std::mutex mu;
  std::vector<int> completion_order;
  std::atomic<int> failures{0};

  const RetryPolicy policy{/*max_attempts=*/2, /*backoff_base_ms=*/150};

  scheduler.ExecuteRound(
      MakeJobs(4),
      [&](const RunJob& job, tasks::ThreadPool&) -> RunOutcome {
        if (job.module_index == 0 && job.attempt == 1) {
          ++failures;
          throw std::runtime_error("flaky");
        }
        std::lock_guard<std::mutex> lock(mu);
        completion_order.push_back(job.module_index);
        RunOutcome outcome;
        outcome.module_index = job.module_index;
        return outcome;
      },
      policy, {});

  EXPECT_EQ(failures.load(), 1);
  ASSERT_EQ(completion_order.size(), 4u);
  // Job 0's retry waited 150ms; jobs 1-3 completed first.
  EXPECT_EQ(completion_order.back(), 0);
}

TEST(SchedulerTest, SalvagedTrapsFromFailedAttemptsSurviveIntoFinalOutcome) {
  Scheduler scheduler(/*workers=*/1, /*pool_threads_per_worker=*/1);

  // Attempt 1 fails but carries a salvaged checkpoint; attempt 2 succeeds with a
  // different pair. The final outcome must hold the union.
  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(1),
      [](const RunJob& job, tasks::ThreadPool&) {
        RunOutcome outcome;
        if (job.attempt == 1) {
          outcome.status = RunStatus::kCrashed;
          outcome.error = "died mid-run";
          outcome.traps.pairs = {{"a.cc:1 Get", "a.cc:2 Set"}};
          outcome.traps.Canonicalize();
        } else {
          outcome.traps.pairs = {{"b.cc:3 Add", "b.cc:4 Remove"}};
          outcome.traps.Canonicalize();
        }
        return outcome;
      },
      Attempts(2), {});

  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, RunStatus::kOk);
  EXPECT_EQ(outcomes[0].salvaged_trap_pairs, 1u);
  EXPECT_TRUE(outcomes[0].traps.Contains("a.cc:1 Get", "a.cc:2 Set"));
  EXPECT_TRUE(outcomes[0].traps.Contains("b.cc:3 Add", "b.cc:4 Remove"));
}

TEST(SchedulerTest, SalvagedTrapsAccumulateAcrossAllFailedAttempts) {
  Scheduler scheduler(/*workers=*/1, /*pool_threads_per_worker=*/1);

  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(1),
      [](const RunJob& job, tasks::ThreadPool&) {
        RunOutcome outcome;
        outcome.status = RunStatus::kCrashed;
        outcome.error = "always dies";
        outcome.traps.pairs = {{"f.cc:" + std::to_string(job.attempt) + " Get",
                                "g.cc:9 Set"}};
        outcome.traps.Canonicalize();
        return outcome;
      },
      Attempts(3), {});

  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, RunStatus::kCrashed);
  EXPECT_TRUE(outcomes[0].quarantined);
  // All three attempts' salvage merged: f.cc:1, f.cc:2, f.cc:3 against g.cc:9.
  EXPECT_EQ(outcomes[0].traps.size(), 3u);
  EXPECT_EQ(outcomes[0].salvaged_trap_pairs, 3u);
  EXPECT_TRUE(outcomes[0].traps.Contains("f.cc:2 Get", "g.cc:9 Set"));
}

TEST(SchedulerTest, FinalFailurePreservesSandboxForensics) {
  Scheduler scheduler(/*workers=*/1, /*pool_threads_per_worker=*/1);

  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(1),
      [](const RunJob& job, tasks::ThreadPool&) {
        RunOutcome outcome;
        outcome.module_index = job.module_index;
        outcome.module = "victim";
        outcome.status = RunStatus::kCrashed;
        outcome.error = "run crashed: SIGSEGV";
        outcome.killed_by_signal = 11;
        outcome.crash_signature = "SIGSEGV in phase 'test:2:dict'";
        return outcome;
      },
      Attempts(1), {});

  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].module, "victim");
  EXPECT_EQ(outcomes[0].killed_by_signal, 11);
  EXPECT_EQ(outcomes[0].crash_signature, "SIGSEGV in phase 'test:2:dict'");
  EXPECT_TRUE(outcomes[0].quarantined);
}

TEST(SchedulerTest, RequestDrainSkipsQueuedJobsAndFinishesInFlight) {
  Scheduler scheduler(/*workers=*/1, /*pool_threads_per_worker=*/1);
  std::atomic<int> completions{0};
  scheduler.SetCompletionCallback([&](const RunOutcome&) { ++completions; });

  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(4), [&](const RunJob& job, tasks::ThreadPool&) {
        if (job.module_index == 0) {
          // Drain lands while this job is in flight and 1-3 are still queued.
          scheduler.RequestDrain();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        RunOutcome outcome;
        outcome.module_index = job.module_index;
        return outcome;
      }, Attempts(2), {});

  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0].status, RunStatus::kOk);  // in-flight ran to its end
  for (int i : {1, 2, 3}) {
    EXPECT_EQ(outcomes[i].status, RunStatus::kSkipped) << i;
    EXPECT_EQ(outcomes[i].module_index, i);
    EXPECT_NE(outcomes[i].error.find("drain"), std::string::npos);
    EXPECT_FALSE(outcomes[i].quarantined);
  }
  // The journal hook fires only for the run that actually finished — a skipped
  // job must never be committed (resume re-executes it).
  EXPECT_EQ(completions.load(), 1);
  EXPECT_TRUE(scheduler.draining());
}

TEST(SchedulerTest, DrainCutsRetriesWithoutQuarantining) {
  Scheduler scheduler(/*workers=*/1, /*pool_threads_per_worker=*/1);
  std::atomic<int> attempts_run{0};
  std::atomic<int> completions{0};
  scheduler.SetCompletionCallback([&](const RunOutcome&) { ++completions; });

  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(1),
      [&](const RunJob&, tasks::ThreadPool&) -> RunOutcome {
        ++attempts_run;
        scheduler.RequestDrain();
        throw std::runtime_error("failed while draining");
      },
      Attempts(3), {});

  // The drain turned the failure final without retries — but since the job never
  // exhausted its attempts it is NOT quarantined and NOT committed: a resumed
  // campaign re-runs it fresh instead of benching the module.
  EXPECT_EQ(attempts_run.load(), 1);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, RunStatus::kCrashed);
  EXPECT_EQ(outcomes[0].attempts, 1);
  EXPECT_FALSE(outcomes[0].quarantined);
  EXPECT_EQ(completions.load(), 0);
}

TEST(SchedulerTest, DrainDuringBackoffSkipsTheRetryWithoutQuarantining) {
  // The job's first attempt crashes with a salvaged pair and its retry waits out
  // a 10 s backoff; the drain lands inside that window.
  Scheduler scheduler(/*workers=*/1, /*pool_threads_per_worker=*/1);
  std::atomic<int> attempts_run{0};
  std::atomic<int> completions{0};
  std::atomic<Micros> failed_at{0};
  scheduler.SetCompletionCallback([&](const RunOutcome&) { ++completions; });

  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(1),
      [&](const RunJob& job, tasks::ThreadPool&) {
        ++attempts_run;
        RunOutcome outcome;
        outcome.module_index = job.module_index;
        outcome.status = RunStatus::kCrashed;
        outcome.error = "child died";
        outcome.traps.pairs = {{"a.cc:1 Get", "a.cc:2 Set"}};
        outcome.traps.Canonicalize();
        failed_at = NowMicros();
        return outcome;
      },
      RetryPolicy{/*max_attempts=*/3, /*backoff_base_ms=*/10'000},
      /*interrupt=*/[&] {
        const Micros failed = failed_at.load();
        return failed != 0 && NowMicros() - failed > 100'000;
      });

  // The retry never ran; the job is skipped, not quarantined and not committed,
  // and it keeps its one failed attempt's error and salvaged pair.
  EXPECT_EQ(attempts_run.load(), 1);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, RunStatus::kSkipped);
  EXPECT_FALSE(outcomes[0].quarantined);
  EXPECT_EQ(outcomes[0].attempts, 1);
  ASSERT_EQ(outcomes[0].attempt_errors.size(), 1u);
  EXPECT_EQ(outcomes[0].attempt_errors[0], "attempt 1: child died");
  EXPECT_TRUE(outcomes[0].traps.Contains("a.cc:1 Get", "a.cc:2 Set"));
  EXPECT_EQ(completions.load(), 0);
}

TEST(SchedulerTest, InterruptPollTriggersDrainMidRound) {
  Scheduler scheduler(/*workers=*/1, /*pool_threads_per_worker=*/1);
  std::atomic<bool> stop{false};

  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(4),
      [&](const RunJob& job, tasks::ThreadPool&) {
        if (job.module_index == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          stop = true;  // the signal arrives while job 0 is still running
          std::this_thread::sleep_for(std::chrono::milliseconds(150));
        }
        RunOutcome outcome;
        outcome.module_index = job.module_index;
        return outcome;
      },
      Attempts(2), /*interrupt=*/[&] { return stop.load(); });

  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_EQ(outcomes[0].status, RunStatus::kOk);
  for (int i : {1, 2, 3}) {
    EXPECT_EQ(outcomes[i].status, RunStatus::kSkipped) << i;
  }
  EXPECT_TRUE(scheduler.draining());
}

TEST(SchedulerTest, DrainedSchedulerDispatchesNothingInLaterRounds) {
  Scheduler scheduler(/*workers=*/2, /*pool_threads_per_worker=*/1);
  scheduler.RequestDrain();  // signal arrived between rounds

  std::atomic<int> dispatched{0};
  std::vector<RunOutcome> outcomes = scheduler.ExecuteRound(
      MakeJobs(3), [&](const RunJob&, tasks::ThreadPool&) {
        ++dispatched;
        return RunOutcome{};
      }, Attempts(2), {});

  EXPECT_EQ(dispatched.load(), 0);
  ASSERT_EQ(outcomes.size(), 3u);
  for (const RunOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.status, RunStatus::kSkipped);
  }
}

TEST(SchedulerTest, CompletionCallbackFiresPerFinalOutcome) {
  Scheduler scheduler(/*workers=*/2, /*pool_threads_per_worker=*/1);
  std::mutex mu;
  std::vector<std::pair<int, bool>> committed;  // (module, quarantined)
  scheduler.SetCompletionCallback([&](const RunOutcome& outcome) {
    std::lock_guard<std::mutex> lock(mu);
    committed.emplace_back(outcome.module_index, outcome.quarantined);
  });

  scheduler.ExecuteRound(
      MakeJobs(3),
      [&](const RunJob& job, tasks::ThreadPool&) -> RunOutcome {
        if (job.module_index == 1 && job.attempt == 1) {
          throw std::runtime_error("flaky once");  // retried, then succeeds
        }
        if (job.module_index == 2) {
          throw std::runtime_error("always fails");  // exhausts attempts
        }
        RunOutcome outcome;
        outcome.module_index = job.module_index;
        return outcome;
      },
      Attempts(2), {});

  // Exactly one commit per job, at its final outcome only (no commit per retry).
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(committed.size(), 3u);
  std::set<int> modules;
  for (const auto& [module, quarantined] : committed) {
    modules.insert(module);
    EXPECT_EQ(quarantined, module == 2) << module;
  }
  EXPECT_EQ(modules, (std::set<int>{0, 1, 2}));
}

}  // namespace
}  // namespace tsvd::campaign
