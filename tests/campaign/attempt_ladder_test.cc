// The retry ladder is one fold with two loops around it: campaign workers
// (Scheduler re-queues a retry behind its backoff window) and fleet agents
// (ExecuteWithRetries sleeps through it). One table of scripted attempt sequences
// goes through both, and the final outcomes must encode to identical text.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/campaign/scheduler.h"
#include "src/sandbox/outcome_codec.h"

namespace tsvd::campaign {
namespace {

using Step = std::function<RunOutcome(const RunJob& job)>;

// One scripted job: attempt N runs steps[N - 1].
struct Script {
  const char* name;
  int max_attempts;
  std::vector<Step> steps;
  // What the final outcome must say, beyond both loops agreeing.
  RunStatus status;
  int attempts;
  int degrade_level;
  bool quarantined;
  size_t traps;
  uint64_t salvaged_trap_pairs;
};

TrapFile Pair(const std::string& a, const std::string& b) {
  TrapFile traps;
  traps.pairs = {{a, b}};
  traps.Canonicalize();
  return traps;
}

Step Ok() {
  return [](const RunJob& job) {
    RunOutcome o;
    o.module_index = job.module_index;
    o.module = "scripted";
    o.round = job.round;
    o.degrade_level = job.degrade_level;
    o.wall_us = 1234;
    o.oncall_count = 77;
    o.delays_injected = 3;
    o.traps = Pair("ok.cc:1 Add", "ok.cc:2 Get");
    BugObservation obs;
    obs.sig_first = "ok.cc:1 Add";
    obs.sig_second = "ok.cc:2 Get";
    obs.api_first = "Add";
    obs.api_second = "Get";
    obs.module = "scripted";
    obs.round = job.round;
    o.observations.push_back(obs);
    return o;
  };
}

Step Failed(RunStatus status, const std::string& error) {
  return [status, error](const RunJob& job) {
    RunOutcome o;
    o.module_index = job.module_index;
    o.module = "scripted";
    o.round = job.round;
    o.degrade_level = job.degrade_level;
    o.status = status;
    o.error = error;
    o.wall_us = 999;
    if (status == RunStatus::kCrashed) {
      o.killed_by_signal = 11;
      o.crash_signature = "SIGSEGV in phase 'test:" + std::to_string(job.attempt) + "'";
    }
    // What the child's last checkpoint salvaged: one pair per attempt.
    o.traps = Pair("salvage.cc:" + std::to_string(job.attempt) + " Set", "salvage.cc:9 Get");
    o.salvaged_trap_pairs = 1;
    return o;
  };
}

Step Throws(const std::string& what) {
  return [what](const RunJob&) -> RunOutcome { throw std::runtime_error(what); };
}

Step ThrowsNonStd() {
  return [](const RunJob&) -> RunOutcome { throw 42; };
}

std::vector<Script> Scripts() {
  return {
      {"crash_then_success",
       3,
       {Failed(RunStatus::kCrashed, "run crashed: SIGSEGV"), Ok()},
       RunStatus::kOk, 2, 0, false, 2, 1},
      {"timeout_timeout_success",
       3,
       {Failed(RunStatus::kTimedOut, "watchdog"), Failed(RunStatus::kTimedOut, "watchdog"),
        Ok()},
       RunStatus::kOk, 3, 2, false, 3, 2},
      {"crash_every_attempt",
       3,
       {Failed(RunStatus::kCrashed, "run crashed: SIGSEGV"),
        Failed(RunStatus::kCrashed, "run crashed: SIGSEGV"),
        Failed(RunStatus::kCrashed, "run crashed: SIGSEGV")},
       RunStatus::kCrashed, 3, 0, true, 3, 3},
      {"std_exception_then_success",
       2,
       {Throws("transient"), Ok()},
       RunStatus::kOk, 2, 0, false, 1, 0},
      {"std_exception_then_non_std_throw",
       2,
       {Throws("first"), ThrowsNonStd()},
       RunStatus::kCrashed, 2, 0, true, 0, 0},
      {"timeout_then_crash_exhausted",
       2,
       {Failed(RunStatus::kTimedOut, "watchdog"),
        Failed(RunStatus::kCrashed, "run crashed: SIGSEGV")},
       RunStatus::kCrashed, 2, 1, true, 2, 2},
  };
}

AttemptFn Scripted(const Script& script) {
  return [&script](const RunJob& job, tasks::ThreadPool&) {
    return script.steps.at(static_cast<size_t>(job.attempt - 1))(job);
  };
}

std::string Encoded(const RunOutcome& outcome) {
  return sandbox::EncodeRunOutcome(outcome).Dump();
}

TEST(AttemptLadderTest, SchedulerAndAgentLoopFoldScriptsIdentically) {
  const RunJob job{/*module_index=*/5, /*round=*/2, /*attempt=*/1};
  tasks::ThreadPool pool(1);
  Scheduler scheduler(/*workers=*/1, /*pool_threads_per_worker=*/1);
  for (const Script& script : Scripts()) {
    SCOPED_TRACE(script.name);
    const RetryPolicy policy{script.max_attempts, /*backoff_base_ms=*/1};
    const std::vector<RunOutcome> queued =
        scheduler.ExecuteRound({job}, Scripted(script), policy, {});
    ASSERT_EQ(queued.size(), 1u);
    const RunOutcome looped = ExecuteWithRetries(job, Scripted(script), pool, policy);

    EXPECT_EQ(Encoded(queued[0]), Encoded(looped));
    EXPECT_EQ(looped.status, script.status);
    EXPECT_EQ(looped.attempts, script.attempts);
    EXPECT_EQ(looped.degrade_level, script.degrade_level);
    EXPECT_EQ(looped.quarantined, script.quarantined);
    EXPECT_EQ(looped.traps.size(), script.traps);
    EXPECT_EQ(looped.salvaged_trap_pairs, script.salvaged_trap_pairs);
    EXPECT_EQ(looped.attempt_errors.size(), static_cast<size_t>(script.attempts) -
                                                (script.status == RunStatus::kOk ? 1 : 0));
    EXPECT_EQ(looped.module_index, job.module_index);
    EXPECT_EQ(looped.round, job.round);
    if (script.quarantined) {
      EXPECT_TRUE(looped.observations.empty());
    }
  }
}

TEST(AttemptLadderTest, BackoffDoublesFromTheBaseUpToTwoSeconds) {
  AttemptLadder ladder(RunJob{0, 1, 1}, RetryPolicy{/*max_attempts=*/10, 300});
  tasks::ThreadPool pool(1);
  const AttemptFn crash = [](const RunJob&, tasks::ThreadPool&) -> RunOutcome {
    throw std::runtime_error("crash");
  };
  std::vector<Micros> backoffs;
  for (int i = 0; i < 5; ++i) {
    ladder.Run(crash, pool);
    ASSERT_TRUE(ladder.ShouldRetry());
    backoffs.push_back(ladder.Advance());
  }
  EXPECT_EQ(backoffs, (std::vector<Micros>{300'000, 600'000, 1'200'000, 2'000'000,
                                           2'000'000}));
  EXPECT_EQ(ladder.job().attempt, 6);
}

TEST(AttemptLadderTest, ZeroBaseRetriesAtOnce) {
  AttemptLadder ladder(RunJob{0, 1, 1}, RetryPolicy{/*max_attempts=*/3, 0});
  tasks::ThreadPool pool(1);
  ladder.Run([](const RunJob&, tasks::ThreadPool&) -> RunOutcome { throw 1; }, pool);
  ASSERT_TRUE(ladder.ShouldRetry());
  EXPECT_EQ(ladder.Advance(), 0);
}

}  // namespace
}  // namespace tsvd::campaign
