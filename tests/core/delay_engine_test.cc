// Delay engine: catch wakes release trapped threads the moment their trap is
// sprung, the progress sentinel unstalls runs whose delays block all progress, the
// governor enforces aggregate and overhead budgets, and the fail-open firewall
// absorbs internal faults instead of crashing the host test.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/thread_id.h"
#include "src/core/delay_engine.h"
#include "src/core/runtime.h"

namespace tsvd {
namespace {

class AlwaysDelayDetector : public Detector {
 public:
  explicit AlwaysDelayDetector(Micros delay) : delay_(delay) {}
  std::string name() const override { return "always-delay"; }
  DelayDecision OnCall(const Access&) override { return DelayDecision{true, delay_}; }

 private:
  Micros delay_;
};

// Injects a delay only at op 1; used to pit a sleeper against a racer.
class TrapOpOneDetector : public Detector {
 public:
  explicit TrapOpOneDetector(Micros delay) : delay_(delay) {}
  std::string name() const override { return "trap-op-one"; }
  DelayDecision OnCall(const Access& access) override {
    if (access.op == 1) {
      return DelayDecision{true, delay_};
    }
    return {};
  }
  void OnDelayFinished(const Access&, const DelayOutcome& outcome) override {
    last_outcome = outcome;
  }
  DelayOutcome last_outcome;

 private:
  Micros delay_;
};

// Every OnCall faults inside the detector: the firewall must absorb each one.
class ThrowingDetector : public Detector {
 public:
  std::string name() const override { return "throwing"; }
  DelayDecision OnCall(const Access&) override {
    throw std::runtime_error("detector bug");
  }
};

// ---------------------------------------------------------------------------
// Engine-level wake sources
// ---------------------------------------------------------------------------

TEST(DelayEngineTest, CatchWakeReleasesParkedThread) {
  Config cfg;
  cfg.stall_grace_us = 0;  // isolate the catch-wake path
  DelayEngine engine(cfg);

  std::atomic<ThreadId> parked_tid{0};
  ParkResult result;
  std::thread sleeper([&] {
    const ThreadId tid = CurrentThreadId();
    ASSERT_TRUE(engine.Admit(tid, 5'000'000));
    parked_tid.store(tid);
    result = engine.Park(tid, 7, 5'000'000);
  });
  while (parked_tid.load() == 0) {
    SleepMicros(1'000);
  }
  SleepMicros(20'000);
  EXPECT_TRUE(engine.WakeThread(parked_tid.load(), WakeReason::kCatchWake));
  sleeper.join();

  EXPECT_EQ(result.reason, WakeReason::kCatchWake);
  EXPECT_LT(result.end_us - result.start_us, 2'000'000);
  EXPECT_EQ(engine.EarlyWoken(), 1u);
  EXPECT_EQ(engine.AbortedStall(), 0u);
  EXPECT_GT(engine.EarlyWakeSavedUs(), 0);
  // Nothing left parked: a second wake finds no ticket.
  EXPECT_FALSE(engine.WakeThread(parked_tid.load(), WakeReason::kCatchWake));
}

// A racer caught the trap after it was armed but before its thread parked: the
// wake found no ticket, so the park itself must notice the catch and not sleep.
TEST(DelayEngineTest, CatchBeforeParkEndsTheParkAtOnce) {
  Config cfg;
  cfg.stall_grace_us = 0;
  DelayEngine engine(cfg);

  const ThreadId tid = CurrentThreadId();
  const std::atomic<bool> caught{true};
  EXPECT_FALSE(engine.WakeThread(tid, WakeReason::kCatchWake));  // not parked yet
  ASSERT_TRUE(engine.Admit(tid, 5'000'000));
  const ParkResult result = engine.Park(tid, 7, 5'000'000, &caught);

  EXPECT_EQ(result.reason, WakeReason::kCatchWake);
  EXPECT_LT(result.end_us - result.start_us, 2'000'000);
  EXPECT_EQ(engine.EarlyWoken(), 1u);
}

TEST(DelayEngineTest, SentinelCancelsWhenNoProgress) {
  Config cfg;
  cfg.stall_grace_us = 30'000;
  DelayEngine engine(cfg);

  const ThreadId tid = CurrentThreadId();
  engine.NoteProgress(tid, NowMicros());
  ASSERT_TRUE(engine.Admit(tid, 10'000'000));
  const ParkResult result = engine.Park(tid, 7, 10'000'000);

  EXPECT_EQ(result.reason, WakeReason::kStallCancel);
  EXPECT_LT(result.end_us - result.start_us, 5'000'000);
  EXPECT_EQ(engine.AbortedStall(), 1u);
}

TEST(DelayEngineTest, SentinelLeavesMakingProgressRunsAlone) {
  Config cfg;
  cfg.stall_grace_us = 40'000;
  DelayEngine engine(cfg);

  // A peer keeps making progress the whole time a 120ms park is pending: neither
  // the no-progress condition nor the all-parked condition may fire.
  std::atomic<bool> stop{false};
  std::thread peer([&] {
    const ThreadId tid = CurrentThreadId();
    while (!stop.load()) {
      engine.NoteProgress(tid, NowMicros());
      SleepMicros(5'000);
    }
  });

  const ThreadId tid = CurrentThreadId();
  engine.NoteProgress(tid, NowMicros());
  ASSERT_TRUE(engine.Admit(tid, 120'000));
  const ParkResult result = engine.Park(tid, 7, 120'000);
  stop.store(true);
  peer.join();

  EXPECT_EQ(result.reason, WakeReason::kTimeout);
  EXPECT_GE(result.end_us - result.start_us, 120'000);
  EXPECT_EQ(engine.AbortedStall(), 0u);
}

TEST(DelayEngineTest, SentinelCancelsWhenEveryActiveThreadIsParked) {
  Config cfg;
  cfg.stall_grace_us = 200'000;
  DelayEngine engine(cfg);

  // Both instrumented threads park "forever". No third thread exists, so the
  // delays cannot catch anything — the all-parked condition should release them
  // at roughly grace/2, well before the 10s timeout and before the full
  // no-progress grace.
  std::vector<std::thread> sleepers;
  std::vector<ParkResult> results(2);
  for (int i = 0; i < 2; ++i) {
    sleepers.emplace_back([&, i] {
      const ThreadId tid = CurrentThreadId();
      engine.NoteProgress(tid, NowMicros());
      ASSERT_TRUE(engine.Admit(tid, 10'000'000));
      results[i] = engine.Park(tid, static_cast<OpId>(i), 10'000'000);
    });
  }
  for (std::thread& t : sleepers) {
    t.join();
  }
  for (const ParkResult& r : results) {
    EXPECT_EQ(r.reason, WakeReason::kStallCancel);
    EXPECT_LT(r.end_us - r.start_us, 5'000'000);
  }
  EXPECT_EQ(engine.AbortedStall(), 2u);
}

TEST(DelayEngineTest, SentinelTickAllocatesNoPageAndStillCancelsAllParkedStall) {
  Config cfg;
  cfg.stall_grace_us = 200'000;
  DelayEngine engine(cfg);

  // Same all-parked stall as above; the sentinel ticks every 50ms for ~100ms
  // while both sleepers are parked, walking the progress stamps each time.
  std::vector<std::thread> sleepers;
  std::vector<ThreadId> tids(2);
  std::vector<ParkResult> results(2);
  for (int i = 0; i < 2; ++i) {
    sleepers.emplace_back([&, i] {
      tids[i] = CurrentThreadId();
      engine.NoteProgress(tids[i], NowMicros());
      ASSERT_TRUE(engine.Admit(tids[i], 10'000'000));
      results[i] = engine.Park(tids[i], static_cast<OpId>(i), 10'000'000);
    });
  }
  for (std::thread& t : sleepers) {
    t.join();
  }
  for (const ParkResult& r : results) {
    EXPECT_EQ(r.reason, WakeReason::kStallCancel);
    EXPECT_LT(r.end_us - r.start_us, 5'000'000);
  }
  // Only the sleepers' own stamps exist: one page per distinct 64-id range.
  const size_t expected_pages = tids[0] / 64 == tids[1] / 64 ? 1 : 2;
  EXPECT_EQ(engine.ProgressPages(), expected_pages);
}

// ---------------------------------------------------------------------------
// Governor
// ---------------------------------------------------------------------------

TEST(DelayEngineTest, AggregateBudgetCapsTotalDelay) {
  Config cfg;
  cfg.stall_grace_us = 0;
  cfg.max_delay_total_us = 8'000;
  DelayEngine engine(cfg);

  const ThreadId tid = CurrentThreadId();
  EXPECT_TRUE(engine.Admit(tid, 3'000));
  (void)engine.Park(tid, 1, 3'000);
  // At least 3ms spent; another 5.1ms would cross the 8ms aggregate cap. (The
  // margins leave room for sleep overshoot on a loaded machine.)
  EXPECT_FALSE(engine.Admit(tid, 5'100));
  EXPECT_TRUE(engine.Admit(tid, 1'000));
  (void)engine.Park(tid, 2, 1'000);
  EXPECT_EQ(engine.SkippedBudget(), 1u);
}

TEST(DelayEngineTest, ReservationsBlockConcurrentOvercommit) {
  Config cfg;
  cfg.stall_grace_us = 0;
  cfg.max_delay_total_us = 100'000;
  DelayEngine engine(cfg);

  // While a 90ms delay is reserved (not yet slept), a second 90ms admission must
  // be refused — reservations count against the aggregate cap immediately.
  const ThreadId tid = CurrentThreadId();
  ASSERT_TRUE(engine.Admit(tid, 90'000));
  std::thread other([&] {
    EXPECT_FALSE(engine.Admit(CurrentThreadId(), 90'000));
  });
  other.join();
  (void)engine.Park(tid, 1, 90'000);
}

// ---------------------------------------------------------------------------
// Runtime integration: catch wake end-to-end, firewall
// ---------------------------------------------------------------------------

TEST(DelayEngineRuntimeTest, RacingAccessWakesTheSleeperEarly) {
  Config cfg;
  cfg.stall_grace_us = 0;
  auto detector = std::make_unique<TrapOpOneDetector>(2'000'000);
  TrapOpOneDetector* raw = detector.get();
  Runtime runtime(cfg, std::move(detector));

  const Micros start = NowMicros();
  std::thread sleeper([&] { runtime.OnCall(0x10, 1, OpKind::kWrite); });
  std::thread racer([&] {
    SleepMicros(50'000);
    runtime.OnCall(0x10, 2, OpKind::kWrite);  // springs the trap
  });
  sleeper.join();
  racer.join();
  const Micros wall = NowMicros() - start;

  // 2s requested, woken after ~50ms: the tail sleep was skipped.
  EXPECT_LT(wall, 1'000'000);
  const RunSummary summary = runtime.Summary();
  EXPECT_EQ(summary.delays_injected, 1u);
  EXPECT_EQ(summary.delays_early_woken, 1u);
  EXPECT_EQ(summary.reports.size(), 1u);
  EXPECT_GT(summary.early_wake_saved_us, 0);
  EXPECT_TRUE(raw->last_outcome.conflict_found);
  EXPECT_FALSE(raw->last_outcome.aborted);
}

TEST(DelayEngineRuntimeTest, DisableEarlyWakeSleepsFullLength) {
  Config cfg;
  cfg.stall_grace_us = 0;
  cfg.disable_early_wake = true;
  Runtime runtime(cfg, std::make_unique<TrapOpOneDetector>(150'000));

  const Micros start = NowMicros();
  std::thread sleeper([&] { runtime.OnCall(0x10, 1, OpKind::kWrite); });
  std::thread racer([&] {
    SleepMicros(20'000);
    runtime.OnCall(0x10, 2, OpKind::kWrite);
  });
  sleeper.join();
  racer.join();

  EXPECT_GE(NowMicros() - start, 150'000);
  const RunSummary summary = runtime.Summary();
  EXPECT_EQ(summary.delays_early_woken, 0u);
  EXPECT_EQ(summary.reports.size(), 1u);  // the catch itself still happened
}

// The sentinel's all-parked check reads the call stamps the runtime writes into
// each thread's timeline: a thread still calling (on another object, so it cannot
// spring the trap) keeps the sleeper's delay running to its full length.
TEST(DelayEngineRuntimeTest, ActiveUnparkedThreadKeepsTheSleeperParked) {
  Config cfg;
  cfg.stall_grace_us = 100'000;
  Runtime runtime(cfg, std::make_unique<TrapOpOneDetector>(300'000));

  std::atomic<bool> stop{false};
  std::thread sleeper([&] {
    runtime.OnCall(0x10, 1, OpKind::kWrite);
    stop.store(true);
  });
  std::thread active([&] {
    while (!stop.load()) {
      runtime.OnCall(0x20, 2, OpKind::kRead);
      SleepMicros(5'000);
    }
  });
  sleeper.join();
  active.join();

  const RunSummary summary = runtime.Summary();
  EXPECT_EQ(summary.delays_injected, 1u);
  EXPECT_EQ(summary.delays_aborted_stall, 0u);
  EXPECT_EQ(summary.delays_early_woken, 0u);
}

TEST(DelayEngineRuntimeTest, SentinelAbortMarksOutcomeAborted) {
  Config cfg;
  cfg.stall_grace_us = 25'000;
  auto detector = std::make_unique<TrapOpOneDetector>(10'000'000);
  TrapOpOneDetector* raw = detector.get();
  Runtime runtime(cfg, std::move(detector));

  const Micros start = NowMicros();
  runtime.OnCall(0x10, 1, OpKind::kWrite);  // parks; nobody else makes progress
  EXPECT_LT(NowMicros() - start, 5'000'000);

  const RunSummary summary = runtime.Summary();
  EXPECT_EQ(summary.delays_aborted_stall, 1u);
  EXPECT_TRUE(raw->last_outcome.aborted);
  EXPECT_FALSE(raw->last_outcome.conflict_found);
}

TEST(DelayEngineRuntimeTest, FirewallDisablesInstrumentationAfterThreshold) {
  Config cfg;
  cfg.max_internal_errors = 3;
  Runtime runtime(cfg, std::make_unique<ThrowingDetector>());

  for (int i = 0; i < 10; ++i) {
    runtime.OnCall(0x10, 1, OpKind::kWrite);  // must not propagate the throw
  }

  const RunSummary summary = runtime.Summary();
  EXPECT_EQ(summary.internal_errors, 3u);
  EXPECT_TRUE(summary.runtime_disabled);
  // The first three calls got through to the detector before it threw; the rest
  // were firewalled off at the entry check.
  EXPECT_EQ(summary.oncall_count, 3u);
}

TEST(DelayEngineRuntimeTest, FirewallCountsWithoutDisablingBelowThreshold) {
  Config cfg;
  cfg.max_internal_errors = 100;
  Runtime runtime(cfg, std::make_unique<ThrowingDetector>());

  for (int i = 0; i < 5; ++i) {
    runtime.OnCall(0x10, 1, OpKind::kWrite);
  }

  const RunSummary summary = runtime.Summary();
  EXPECT_EQ(summary.internal_errors, 5u);
  EXPECT_FALSE(summary.runtime_disabled);
  EXPECT_EQ(summary.oncall_count, 5u);
}

TEST(DelayEngineRuntimeTest, PerThreadBudgetSkipsCountTowardSummary) {
  Config cfg;
  cfg.stall_grace_us = 0;
  cfg.max_delay_per_thread_us = 5'000;
  Runtime runtime(cfg, std::make_unique<AlwaysDelayDetector>(2'000));

  for (int i = 0; i < 6; ++i) {
    runtime.OnCall(0x10, 1, OpKind::kWrite);
  }

  const RunSummary summary = runtime.Summary();
  EXPECT_EQ(summary.delays_injected, 2u);  // 2ms + 2ms fit; the third crosses 5ms
  EXPECT_EQ(summary.delays_skipped_budget, 4u);
}

}  // namespace
}  // namespace tsvd
