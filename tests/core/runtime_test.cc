// Tests for the Runtime's trap framework using a scriptable detector, and for what a
// Runtime costs in heap before and between calls.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <memory>
#include <thread>

#include "src/common/scope_stack.h"
#include "src/core/runtime.h"
#include "src/core/tsvd_detector.h"

namespace tsvd {
namespace {

// Detector whose delay decisions are scripted per OpId.
class ScriptedDetector : public Detector {
 public:
  std::string name() const override { return "scripted"; }

  DelayDecision OnCall(const Access& access) override {
    calls.fetch_add(1);
    if (access.op == delay_op) {
      return DelayDecision{true, delay_us};
    }
    return DelayDecision{};
  }

  void OnDelayFinished(const Access&, const DelayOutcome& outcome) override {
    outcomes.fetch_add(1);
    if (outcome.conflict_found) {
      conflicts.fetch_add(1);
    }
  }

  OpId delay_op = kInvalidOp;
  Micros delay_us = 3000;
  std::atomic<int> calls{0};
  std::atomic<int> outcomes{0};
  std::atomic<int> conflicts{0};
};

TEST(RuntimeTest, InstallationIsScoped) {
  Config cfg;
  Runtime runtime(cfg, std::make_unique<ScriptedDetector>());
  EXPECT_EQ(Runtime::Current(), nullptr);
  {
    Runtime::Installation install(runtime);
    EXPECT_EQ(Runtime::Current(), &runtime);
  }
  EXPECT_EQ(Runtime::Current(), nullptr);
}

TEST(RuntimeTest, OnCallForwardsToDetectorAndCounts) {
  Config cfg;
  auto detector = std::make_unique<ScriptedDetector>();
  ScriptedDetector* raw = detector.get();
  Runtime runtime(cfg, std::move(detector));
  runtime.OnCall(0x10, 1, OpKind::kWrite);
  runtime.OnCall(0x10, 2, OpKind::kRead);
  EXPECT_EQ(raw->calls.load(), 2);
  const RunSummary summary = runtime.Summary();
  EXPECT_EQ(summary.oncall_count, 2u);
  EXPECT_EQ(summary.delays_injected, 0u);
}

TEST(RuntimeTest, TrapCatchesConflictingThreadAndReports) {
  Config cfg;
  auto detector = std::make_unique<ScriptedDetector>();
  ScriptedDetector* raw = detector.get();
  raw->delay_op = 1;  // delay whenever op 1 executes
  raw->delay_us = 50'000;
  Runtime runtime(cfg, std::move(detector));

  std::thread sleeper([&] {
    TSVD_SCOPE("SleeperTask");
    runtime.OnCall(0x10, 1, OpKind::kWrite);  // traps and sleeps 50ms
  });
  SleepMicros(10'000);  // let the trap arm
  {
    TSVD_SCOPE("RacerTask");
    runtime.OnCall(0x10, 2, OpKind::kRead);  // walks into the trap
  }
  sleeper.join();

  const RunSummary summary = runtime.Summary();
  ASSERT_EQ(summary.reports.size(), 1u);
  const BugReport& report = summary.reports[0];
  EXPECT_EQ(report.object, 0x10u);
  EXPECT_EQ(report.trapped.op, 1u);
  EXPECT_EQ(report.racing.op, 2u);
  EXPECT_EQ(report.trapped.kind, OpKind::kWrite);
  EXPECT_EQ(report.racing.kind, OpKind::kRead);
  ASSERT_FALSE(report.trapped.stack.empty());
  EXPECT_EQ(report.trapped.stack.back(), "SleeperTask");
  EXPECT_EQ(report.racing.stack.back(), "RacerTask");
  EXPECT_EQ(summary.unique_pairs.size(), 1u);
  EXPECT_EQ(raw->conflicts.load(), 1);
}

// Holds every caller inside the detector until `parties` callers are there, so all
// of them have passed the trap check before any arms a trap.
class RendezvousDetector : public ScriptedDetector {
 public:
  explicit RendezvousDetector(int parties) : parties_(parties) {}

  DelayDecision OnCall(const Access& access) override {
    arrived_.fetch_add(1);
    while (arrived_.load() < parties_) {
      std::this_thread::yield();
    }
    return ScriptedDetector::OnCall(access);
  }

 private:
  const int parties_;
  std::atomic<int> arrived_{0};
};

TEST(RuntimeTest, ThreadsDelayedSideBySideCatchEachOther) {
  Config cfg;
  auto detector = std::make_unique<RendezvousDetector>(2);
  ScriptedDetector* raw = detector.get();
  raw->delay_op = 1;
  raw->delay_us = 50'000;
  Runtime runtime(cfg, std::move(detector));

  // Both threads find no trap, then both decide to sleep in a conflicting call on
  // one object: the second to arm its trap catches the first and wakes it.
  std::thread first([&] { runtime.OnCall(0x10, 1, OpKind::kWrite); });
  std::thread second([&] { runtime.OnCall(0x10, 1, OpKind::kWrite); });
  first.join();
  second.join();

  const RunSummary summary = runtime.Summary();
  ASSERT_EQ(summary.reports.size(), 1u);
  EXPECT_NE(summary.reports[0].trapped.tid, summary.reports[0].racing.tid);
  EXPECT_EQ(summary.delays_injected, 2u);
  EXPECT_EQ(summary.delays_early_woken, 1u);
  EXPECT_EQ(raw->conflicts.load(), 1);
}

TEST(RuntimeTest, NoConflictWhenSameThread) {
  Config cfg;
  auto detector = std::make_unique<ScriptedDetector>();
  detector->delay_op = 1;
  detector->delay_us = 1000;
  Runtime runtime(cfg, std::move(detector));
  runtime.OnCall(0x10, 1, OpKind::kWrite);
  runtime.OnCall(0x10, 2, OpKind::kWrite);  // same thread: cannot race itself
  EXPECT_TRUE(runtime.Summary().reports.empty());
}

TEST(RuntimeTest, DelayBudgetCapsInjection) {
  Config cfg;
  cfg.max_delay_per_thread_us = 5000;
  auto detector = std::make_unique<ScriptedDetector>();
  ScriptedDetector* raw = detector.get();
  raw->delay_op = 1;
  raw->delay_us = 3000;
  Runtime runtime(cfg, std::move(detector));
  for (int i = 0; i < 10; ++i) {
    runtime.OnCall(0x10, 1, OpKind::kWrite);
  }
  // 3000us delays against a 5000us budget: only the first fits entirely; the second
  // would exceed it (3000 + 3000 > 5000).
  EXPECT_EQ(runtime.Summary().delays_injected, 1u);
  EXPECT_EQ(raw->outcomes.load(), 1);
}

TEST(RuntimeTest, ObserverSeesReportsSynchronously) {
  Config cfg;
  auto detector = std::make_unique<ScriptedDetector>();
  detector->delay_op = 1;
  detector->delay_us = 50'000;
  Runtime runtime(cfg, std::move(detector));
  std::atomic<int> observed{0};
  runtime.SetReportObserver([&](const BugReport&) { observed.fetch_add(1); });

  std::thread sleeper([&] { runtime.OnCall(0x20, 1, OpKind::kWrite); });
  SleepMicros(10'000);
  runtime.OnCall(0x20, 2, OpKind::kWrite);
  sleeper.join();
  EXPECT_EQ(observed.load(), 1);
}

TEST(RuntimeTest, SerializedDelaysSkipWhenAnotherTrapArmed) {
  Config cfg;
  cfg.serialize_delays = true;
  auto detector = std::make_unique<ScriptedDetector>();
  ScriptedDetector* raw = detector.get();
  raw->delay_op = 1;
  raw->delay_us = 40'000;
  Runtime runtime(cfg, std::move(detector));

  std::thread first([&] { runtime.OnCall(0x10, 1, OpKind::kWrite); });
  SleepMicros(10'000);  // first trap armed and sleeping
  runtime.OnCall(0x99, 1, OpKind::kWrite);  // would delay, but a trap is armed
  first.join();
  EXPECT_EQ(runtime.Summary().delays_injected, 1u);
}

TEST(RuntimeTest, SyncEventsOnlyDeliveredWhenWanted) {
  Config cfg;
  Runtime runtime(cfg, std::make_unique<ScriptedDetector>());
  EXPECT_FALSE(runtime.WantsSyncEvents());
  runtime.OnSync(SyncEvent{SyncEventType::kTaskCreate, 1, 2, 0});
  EXPECT_EQ(runtime.Summary().sync_events, 0u);
}

// Heap in use in the main arena (the calling thread's, when that is the main
// thread): small chunks plus mmapped ones. Sanitizer allocators report nothing
// here, which makes the footprint checks vacuous under them.
long long HeapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<long long>(info.uordblks + info.hblkhd);
}

TEST(RuntimeFootprintTest, FreshRuntimeWithTsvdDetectorCostsAtMost64KB) {
  Config cfg;
  { Runtime warm(cfg, std::make_unique<TsvdDetector>(cfg)); }  // one-time statics
  const long long before = HeapInUse();
  auto runtime = std::make_unique<Runtime>(cfg, std::make_unique<TsvdDetector>(cfg));
  const long long grown = HeapInUse() - before;
  EXPECT_LE(grown, 64 * 1024) << "a fresh Runtime + TsvdDetector allocated " << grown
                              << " bytes before its first call";
}

TEST(RuntimeFootprintTest, CallsAfterTheFirstAllocateNothing) {
  Config cfg;
  cfg.delay_us = 0;
  Runtime runtime(cfg, std::make_unique<TsvdDetector>(cfg));
  auto pass = [&runtime] {
    for (int i = 0; i < 64; ++i) {
      runtime.OnCall(0x1000 + 0x40 * (i & 7), static_cast<OpId>(1 + (i & 15)),
                     i % 4 == 0 ? OpKind::kWrite : OpKind::kRead);
    }
  };
  pass();  // first touch: per-thread pages, coverage pages, object histories
  const long long before = HeapInUse();
  for (int round = 0; round < 100; ++round) {
    pass();
  }
  EXPECT_EQ(HeapInUse() - before, 0);
  EXPECT_EQ(runtime.Summary().oncall_count, 101u * 64);
}

}  // namespace
}  // namespace tsvd
