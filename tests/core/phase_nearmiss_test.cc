// Unit + parameterized tests for the concurrent-phase detector (Section 3.4.3) and
// the near-miss tracker (Section 3.4.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/nearmiss_tracker.h"
#include "src/core/phase_detector.h"

namespace tsvd {
namespace {

TEST(PhaseDetectorTest, SingleThreadIsSequential) {
  PhaseDetector phase(16);
  // Well past the sweep period, so the periodic epoch sweeps run too: a lone
  // thread must never flip the phase concurrent.
  for (int i = 0; i < 2000; ++i) {
    EXPECT_FALSE(phase.RecordAndCheck(1));
  }
}

TEST(PhaseDetectorTest, SecondThreadMakesConcurrent) {
  PhaseDetector phase(16);
  EXPECT_FALSE(phase.RecordAndCheck(1));
  // The second thread's *first* call must already observe the concurrent phase:
  // the 1 -> 2 transition sweeps eagerly instead of waiting for the periodic
  // sweep (same detection latency as the old shared ring).
  EXPECT_TRUE(phase.RecordAndCheck(2));
  EXPECT_TRUE(phase.RecordAndCheck(1));
}

TEST(PhaseDetectorTest, OldThreadEntriesAgeOut) {
  PhaseDetector phase(4);
  phase.RecordAndCheck(1);
  EXPECT_TRUE(phase.RecordAndCheck(2));
  // Thread 1 stops; thread 2 keeps running across two epoch advances. Entries
  // older than one epoch fall out of the aggregate, so the phase turns
  // sequential again.
  phase.SweepNow();
  phase.RecordAndCheck(2);
  phase.SweepNow();
  EXPECT_FALSE(phase.RecordAndCheck(2));
  EXPECT_EQ(phase.DistinctThreads(), 1u);
}

// A sweep reads only the shards some thread has written. A thread whose shard lies
// above every shard used so far, after many calls by a low id, must still be
// counted: by the eager sweep of its first call and by every later sweep.
TEST(PhaseDetectorTest, ThreadOnAShardAboveAllUsedOnesIsCounted) {
  PhaseDetector phase(4);
  for (int i = 0; i < 1000; ++i) {  // ~15 periodic sweeps over shard 0 alone
    EXPECT_FALSE(phase.RecordAndCheck(1));
  }
  EXPECT_EQ(phase.DistinctThreads(), 1u);
  EXPECT_TRUE(phase.RecordAndCheck(40));  // shard 39
  phase.RecordAndCheck(1);
  phase.SweepNow();
  EXPECT_EQ(phase.DistinctThreads(), 2u);
  phase.RecordAndCheck(40);
  phase.RecordAndCheck(1);
  phase.SweepNow();
  EXPECT_EQ(phase.DistinctThreads(), 2u);
}

// Ids 64 apart fold onto one shard; its ring keeps both visible to the sweep.
TEST(PhaseDetectorTest, IdsSixtyFourApartShareAShardAndBothCount) {
  PhaseDetector phase(16);
  EXPECT_FALSE(phase.RecordAndCheck(3));
  EXPECT_TRUE(phase.RecordAndCheck(3 + 64));
  phase.SweepNow();
  EXPECT_EQ(phase.DistinctThreads(), 2u);
  phase.RecordAndCheck(3);
  phase.RecordAndCheck(3 + 64);
  phase.SweepNow();
  EXPECT_EQ(phase.DistinctThreads(), 2u);
}

// The epoch clock advances after exactly SweepPeriod() calls into a shard: a
// thread that stopped ages out on the second periodic sweep, not a call earlier.
TEST(PhaseDetectorTest, PeriodicSweepRunsEverySweepPeriodCallsOfAShard) {
  PhaseDetector phase(5);  // period 80, not a power of two
  const uint32_t period = phase.SweepPeriod();
  phase.RecordAndCheck(1);
  EXPECT_TRUE(phase.RecordAndCheck(2));  // shard 1 has counted one call
  for (uint32_t i = 1; i < 2 * period - 1; ++i) {
    phase.RecordAndCheck(2);
  }
  // One periodic sweep so far: thread 1's entry is one epoch old, still recent.
  EXPECT_EQ(phase.DistinctThreads(), 2u);
  EXPECT_FALSE(phase.RecordAndCheck(2));  // call 2 * period: the second sweep
  EXPECT_EQ(phase.DistinctThreads(), 1u);
}

// Satellite determinism check: with stable phases (every thread keeps recording),
// epoch-sampled aggregation converges to the *exact* distinct-thread count, for
// every shard occupancy up to one-thread-per-shard (64).
class PhaseThreadCounts : public ::testing::TestWithParam<int> {};

TEST_P(PhaseThreadCounts, EpochAggregationIsExactForStablePhases) {
  const int n = GetParam();
  PhaseDetector phase(16);
  for (int round = 0; round < 3; ++round) {
    for (int tid = 1; tid <= n; ++tid) {
      phase.RecordAndCheck(static_cast<ThreadId>(tid));
    }
  }
  phase.SweepNow();
  EXPECT_EQ(phase.DistinctThreads(), static_cast<uint32_t>(n));
  // And back down: only thread 1 stays active, so after the other threads'
  // entries age out of the epoch horizon the count converges to exactly 1.
  phase.SweepNow();
  phase.RecordAndCheck(1);
  phase.SweepNow();
  phase.RecordAndCheck(1);
  phase.SweepNow();
  EXPECT_EQ(phase.DistinctThreads(), 1u);
  EXPECT_FALSE(phase.RecordAndCheck(1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PhaseThreadCounts,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

Access At(ThreadId tid, ObjectId obj, OpId op, OpKind kind, Micros t,
          bool concurrent = true) {
  Access a;
  a.tid = tid;
  a.obj = obj;
  a.op = op;
  a.kind = kind;
  a.time = t;
  a.concurrent_phase = concurrent;
  return a;
}

Config NearMissConfig(Micros window = 1000, int history = 5) {
  Config cfg;
  cfg.nearmiss_window_us = window;
  cfg.nearmiss_history = history;
  return cfg;
}

TEST(NearMissTest, ConflictingAccessesWithinWindow) {
  NearMissTracker tracker(NearMissConfig());
  EXPECT_TRUE(tracker.RecordAndFindConflicts(At(1, 0x10, 1, OpKind::kWrite, 0)).empty());
  const auto misses = tracker.RecordAndFindConflicts(At(2, 0x10, 2, OpKind::kRead, 500));
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0].other_op, 1u);
}

TEST(NearMissTest, OutsideWindowIsNotANearMiss) {
  NearMissTracker tracker(NearMissConfig(1000));
  tracker.RecordAndFindConflicts(At(1, 0x10, 1, OpKind::kWrite, 0));
  EXPECT_TRUE(
      tracker.RecordAndFindConflicts(At(2, 0x10, 2, OpKind::kRead, 1500)).empty());
}

TEST(NearMissTest, SameThreadNeverNearMisses) {
  NearMissTracker tracker(NearMissConfig());
  tracker.RecordAndFindConflicts(At(1, 0x10, 1, OpKind::kWrite, 0));
  EXPECT_TRUE(
      tracker.RecordAndFindConflicts(At(1, 0x10, 2, OpKind::kWrite, 100)).empty());
}

TEST(NearMissTest, ReadReadDoesNotConflict) {
  NearMissTracker tracker(NearMissConfig());
  tracker.RecordAndFindConflicts(At(1, 0x10, 1, OpKind::kRead, 0));
  EXPECT_TRUE(
      tracker.RecordAndFindConflicts(At(2, 0x10, 2, OpKind::kRead, 100)).empty());
}

TEST(NearMissTest, DifferentObjectsDoNotConflict) {
  NearMissTracker tracker(NearMissConfig());
  tracker.RecordAndFindConflicts(At(1, 0x10, 1, OpKind::kWrite, 0));
  EXPECT_TRUE(
      tracker.RecordAndFindConflicts(At(2, 0x20, 2, OpKind::kWrite, 100)).empty());
}

TEST(NearMissTest, ConcurrentFlagOfRecordedAccessIsReturned) {
  NearMissTracker tracker(NearMissConfig());
  tracker.RecordAndFindConflicts(At(1, 0x10, 1, OpKind::kWrite, 0, /*concurrent=*/false));
  const auto misses =
      tracker.RecordAndFindConflicts(At(2, 0x10, 2, OpKind::kWrite, 100));
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_FALSE(misses[0].other_concurrent);
}

class NearMissHistorySizes : public ::testing::TestWithParam<int> {};

TEST_P(NearMissHistorySizes, HistoryEvictsOldestBeyondN) {
  const int n = GetParam();
  NearMissTracker tracker(NearMissConfig(1'000'000, n));
  // Thread 1 writes n+2 times; only the last n stay in the history.
  for (int i = 0; i < n + 2; ++i) {
    tracker.RecordAndFindConflicts(
        At(1, 0x10, static_cast<OpId>(i), OpKind::kWrite, i * 10));
  }
  const auto misses = tracker.RecordAndFindConflicts(
      At(2, 0x10, 999, OpKind::kWrite, (n + 3) * 10));
  EXPECT_EQ(static_cast<int>(misses.size()), n);
}

INSTANTIATE_TEST_SUITE_P(Sweep, NearMissHistorySizes, ::testing::Values(1, 2, 5, 10));

// A history below 1 is clamped to 1 instead of leaving an empty ring: the tracker
// still reports a near miss with the most recent access.
TEST(NearMissTest, HistoryBelowOneKeepsTheLatestAccess) {
  for (int history : {0, -3}) {
    NearMissTracker tracker(NearMissConfig(1000, history));
    tracker.RecordAndFindConflicts(At(1, 0x10, 1, OpKind::kWrite, 0));
    tracker.RecordAndFindConflicts(At(1, 0x10, 2, OpKind::kWrite, 10));
    const auto misses = tracker.RecordAndFindConflicts(At(2, 0x10, 3, OpKind::kRead, 20));
    ASSERT_EQ(misses.size(), 1u) << "history " << history;
    EXPECT_EQ(misses[0].other_op, 2u);
  }
}

TEST(NearMissTest, UnwindowedAblationIgnoresTime) {
  Config cfg;
  cfg.disable_nearmiss_window = true;
  cfg.nearmiss_history_unwindowed = 64;
  NearMissTracker tracker(cfg);
  tracker.RecordAndFindConflicts(At(1, 0x10, 1, OpKind::kWrite, 0));
  const auto misses = tracker.RecordAndFindConflicts(
      At(2, 0x10, 2, OpKind::kWrite, 50'000'000));  // 50 seconds later
  EXPECT_EQ(misses.size(), 1u);
}

TEST(NearMissTest, StaleObjectsAreSweptEventually) {
  NearMissTracker tracker(NearMissConfig(100, /*history=*/1));
  // The tracker shards by a mixed hash of the object id and sweeps a shard every
  // 4096 inserts into it; push enough distinct objects with advancing time that
  // every shard sweeps at least once and everything older than 8x the window is
  // reclaimed.
  const int kObjects = 64 * 4096 + 4096;
  for (int i = 0; i < kObjects; ++i) {
    const ObjectId obj = 0x100000 + static_cast<ObjectId>(i) * 1024;
    tracker.RecordAndFindConflicts(
        At(1, obj, 1, OpKind::kWrite, static_cast<Micros>(i) * 1000));
  }
  EXPECT_LT(tracker.TrackedObjects(), static_cast<size_t>(kObjects) / 2);
}

TEST(NearMissTest, SweepsKeepComingAfterOneKeepsSurvivors) {
  NearMissTracker tracker(NearMissConfig(100, /*history=*/1));
  // One object is touched on every step, so each sweep keeps it; a stream of fresh
  // objects goes stale behind it. Sweeps must keep coming every few thousand
  // inserts, so the tracked set stays near one sweep interval however long the
  // stream runs.
  const int kObjects = 8 * 4096;
  for (int i = 0; i < kObjects; ++i) {
    const Micros now = static_cast<Micros>(i) * 1000;
    tracker.RecordAndFindConflicts(At(1, 0x10, 1, OpKind::kWrite, now));
    const ObjectId obj = 0x100000 + static_cast<ObjectId>(i) * 1024;
    tracker.RecordAndFindConflicts(At(1, obj, 2, OpKind::kWrite, now));
  }
  EXPECT_LT(tracker.TrackedObjects(), static_cast<size_t>(2 * 4096));
}

TEST(NearMissTest, SweepKeepsObjectsStillInsideWindow) {
  NearMissTracker tracker(NearMissConfig(1'000'000'000, /*history=*/1));  // never stale
  const int kObjects = 64 * 4096 + 4096;
  for (int i = 0; i < kObjects; ++i) {
    const ObjectId obj = 0x100000 + static_cast<ObjectId>(i) * 1024;
    tracker.RecordAndFindConflicts(
        At(1, obj, 1, OpKind::kWrite, static_cast<Micros>(i)));
  }
  EXPECT_EQ(tracker.TrackedObjects(), static_cast<size_t>(kObjects));
}

TEST(NearMissTest, RingBufferReportsConflictsOldestFirst) {
  NearMissTracker tracker(NearMissConfig(1'000'000, /*history=*/5));
  // Thread 1 writes ops 1..8; the 5-deep ring retains ops 4..8 (oldest evicted).
  for (OpId op = 1; op <= 8; ++op) {
    tracker.RecordAndFindConflicts(At(1, 0x10, op, OpKind::kWrite, op * 10));
  }
  const auto misses = tracker.RecordAndFindConflicts(At(2, 0x10, 99, OpKind::kWrite, 100));
  ASSERT_EQ(misses.size(), 5u);
  for (size_t i = 0; i < misses.size(); ++i) {
    EXPECT_EQ(misses[i].other_op, static_cast<OpId>(4 + i)) << "index " << i;
  }
}

TEST(NearMissTest, RingBufferEvictionWrapsRepeatedly) {
  NearMissTracker tracker(NearMissConfig(1'000'000, /*history=*/3));
  // Wrap the 3-slot ring many times; the survivors must always be the newest 3.
  for (int round = 0; round < 7; ++round) {
    for (OpId op = 1; op <= 3; ++op) {
      const OpId tagged = static_cast<OpId>(round * 10 + op);
      tracker.RecordAndFindConflicts(At(1, 0x10, tagged, OpKind::kWrite, tagged));
    }
  }
  const auto misses = tracker.RecordAndFindConflicts(At(2, 0x10, 999, OpKind::kWrite, 70));
  ASSERT_EQ(misses.size(), 3u);
  EXPECT_EQ(misses[0].other_op, 61u);
  EXPECT_EQ(misses[1].other_op, 62u);
  EXPECT_EQ(misses[2].other_op, 63u);
}

// A swept object's block is reused for a new object with an empty ring. An access
// stamped before the sweep (its thread read the clock, then lost the CPU) is
// still inside the window of the swept object's records, so a block reused with
// its old records would report them as near misses on the new object.
TEST(NearMissTest, RecycledBlockStartsEmptyForALateStampedAccess) {
  NearMissTracker tracker(NearMissConfig(1000, 5));
  for (OpId op = 1; op <= 5; ++op) {
    tracker.RecordAndFindConflicts(At(1, 0x10, op, OpKind::kWrite, op));
  }
  // 4094 more objects at 10 ms, then 0x20: the 4096th insert sweeps 0x10 (older
  // than 8 windows) and keeps the rest. The swept block goes back to thread 1's
  // pool, whose free list hands it straight to 0x20.
  for (ObjectId obj = 1; obj < 4095; ++obj) {
    tracker.RecordAndFindConflicts(At(1, 0x1000 + obj * 64, 1, OpKind::kWrite, 10'000));
  }
  ASSERT_EQ(tracker.TrackedObjects(), 4095u);
  EXPECT_TRUE(
      tracker.RecordAndFindConflicts(At(1, 0x20, 50, OpKind::kWrite, 10'001)).empty());
  ASSERT_EQ(tracker.TrackedObjects(), 4095u);  // 0x10 is gone
  const auto misses = tracker.RecordAndFindConflicts(At(2, 0x20, 60, OpKind::kWrite, 2));
  for (const auto& miss : misses) {
    EXPECT_EQ(miss.other_op, 50u) << "a record of the swept object";
  }
}

// A near miss is two accesses within the window of each other, whichever was
// stamped first. A thread can read the clock, lose the CPU, and record after a
// peer's later-stamped record: that record pairs with it only if it is within
// the window.
TEST(NearMissTest, LaterStampedRecordPairsOnlyWithinTheWindow) {
  NearMissTracker tracker(NearMissConfig(1000, 5));
  tracker.RecordAndFindConflicts(At(1, 0x10, 1, OpKind::kWrite, 10'001));
  EXPECT_TRUE(tracker.RecordAndFindConflicts(At(2, 0x10, 2, OpKind::kWrite, 2)).empty())
      << "a record stamped 9,999 us after the access is outside a 1,000 us window";

  tracker.RecordAndFindConflicts(At(1, 0x20, 3, OpKind::kWrite, 1'500));
  const auto misses = tracker.RecordAndFindConflicts(At(2, 0x20, 4, OpKind::kRead, 600));
  ASSERT_EQ(misses.size(), 1u) << "a record stamped 900 us after the access is within";
  EXPECT_EQ(misses[0].other_op, 3u);
}

// Once one thread wrote every record in an object's ring, its next accesses skip the
// conflict scan. Any other thread must still see the whole ring, oldest first, and
// the run must end with the first foreign record: until that record leaves the
// ring, each of the owner's accesses reports it again.
TEST(NearMissTest, SameThreadRunSkipsScanButForeignAccessSeesWholeRing) {
  auto ops = [](const std::vector<NearMissTracker::NearMiss>& misses) {
    std::vector<OpId> out;
    for (const auto& miss : misses) {
      out.push_back(miss.other_op);
    }
    return out;
  };
  for (int history : {1, 5, 64}) {
    // A ring part full (empty at history 1), and one wrapped several times.
    for (int run : {history / 2, 3 * history + 1}) {
      SCOPED_TRACE("history " + std::to_string(history) + ", run " + std::to_string(run));
      NearMissTracker tracker(NearMissConfig(1'000'000, history));
      Micros now = 0;
      for (int k = 0; k < run; ++k) {
        EXPECT_TRUE(tracker
                        .RecordAndFindConflicts(
                            At(1, 0x10, static_cast<OpId>(k), OpKind::kWrite, ++now))
                        .empty());
      }
      std::vector<OpId> ring;
      for (int k = std::max(0, run - history); k < run; ++k) {
        ring.push_back(static_cast<OpId>(k));
      }
      EXPECT_EQ(ops(tracker.RecordAndFindConflicts(At(2, 0x10, 999, OpKind::kRead, ++now))),
                ring);
      // Thread 2's read stays in the ring for `history` more accesses.
      for (int k = 0; k < history; ++k) {
        EXPECT_EQ(ops(tracker.RecordAndFindConflicts(
                      At(1, 0x10, static_cast<OpId>(100 + k), OpKind::kWrite, ++now))),
                  std::vector<OpId>{999})
            << "owner access " << k << " after the foreign read";
      }
      EXPECT_TRUE(
          tracker.RecordAndFindConflicts(At(1, 0x10, 200, OpKind::kWrite, ++now)).empty());
    }
  }
}

Access With(Access access, NearMissHandle* handle) {
  access.handle = handle;
  return access;
}

// A handle outlives the block it names. Once a sweep frees A's block and B takes it
// over, A's stale handle leads straight to B's history, and only the tracker's
// ownership check keeps A's next access out of it.
TEST(NearMissHandleTest, StaleHandleToAReusedBlockFormsNoNearMissWithItsNewOwner) {
  NearMissTracker tracker(NearMissConfig(1000, 5));
  NearMissHandle a_handle{0};
  tracker.RecordAndFindConflicts(With(At(1, 0xA0, 1, OpKind::kWrite, 1), &a_handle));
  const uint32_t a_block = a_handle.load();
  ASSERT_NE(a_block, 0u);
  // Thread 2 inserts objects past 8 windows, from a pool of its own, until a sweep
  // runs: A was insert 1, so the last of these is insert kMinInsertsPerSweep, and
  // it sweeps A out.
  for (size_t i = 1; i < NearMissTracker::kMinInsertsPerSweep; ++i) {
    tracker.RecordAndFindConflicts(
        At(2, 0x100000 + static_cast<ObjectId>(i) * 64, 2, OpKind::kWrite, 10'000));
  }
  ASSERT_EQ(tracker.TrackedObjects(), NearMissTracker::kMinInsertsPerSweep - 1);
  // B, inserted by thread 1 like A, gets A's block back from their pool.
  NearMissHandle b_handle{0};
  tracker.RecordAndFindConflicts(With(At(1, 0xB0, 3, OpKind::kWrite, 10'001), &b_handle));
  ASSERT_EQ(b_handle.load(), a_block);

  EXPECT_TRUE(tracker
                  .RecordAndFindConflicts(
                      With(At(3, 0xA0, 4, OpKind::kWrite, 10'002), &a_handle))
                  .empty())
      << "A's access was recorded into B's block";
  EXPECT_NE(a_handle.load(), a_block);
  EXPECT_NE(a_handle.load(), 0u);
  // B's history holds only B's record.
  const auto misses =
      tracker.RecordAndFindConflicts(With(At(4, 0xB0, 5, OpKind::kRead, 10'003), &b_handle));
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0].other_op, 3u);
}

// A handle naming no carved block, or a free one, resolves to nothing the object
// owns: the access goes through the index and the handle is repaired.
TEST(NearMissHandleTest, HandleNamingNoBlockOfTheObjectFallsBackToTheIndex) {
  NearMissTracker tracker(NearMissConfig(1000, 5));
  NearMissHandle handle{0};
  tracker.RecordAndFindConflicts(With(At(1, 0x10, 1, OpKind::kWrite, 1), &handle));
  const uint32_t number = handle.load();
  ASSERT_NE(number, 0u);
  // Past the chunk table, inside it but not carved, and a carved but free block.
  const uint32_t bogus[] = {0xffffffffu, number + 32 * 1000, number + 1};
  ThreadId tid = 2;
  for (uint32_t wrong : bogus) {
    SCOPED_TRACE("handle " + std::to_string(wrong));
    handle.store(wrong);
    const auto misses =
        tracker.RecordAndFindConflicts(With(At(tid++, 0x10, 2, OpKind::kRead, 2), &handle));
    ASSERT_EQ(misses.size(), 1u);
    EXPECT_EQ(misses[0].other_op, 1u);
    EXPECT_EQ(handle.load(), number);
  }
  EXPECT_EQ(tracker.TrackedObjects(), 1u);
}

// Accesses with and without a handle share one history per object.
TEST(NearMissHandleTest, AccessesWithAndWithoutAHandleShareTheHistory) {
  NearMissTracker tracker(NearMissConfig(1000, 5));
  NearMissHandle handle{0};
  tracker.RecordAndFindConflicts(At(1, 0x10, 1, OpKind::kWrite, 1));
  auto misses =
      tracker.RecordAndFindConflicts(With(At(2, 0x10, 2, OpKind::kRead, 2), &handle));
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0].other_op, 1u);
  misses = tracker.RecordAndFindConflicts(At(3, 0x10, 3, OpKind::kWrite, 3));
  ASSERT_EQ(misses.size(), 2u);
  EXPECT_EQ(misses[1].other_op, 2u);
}

}  // namespace
}  // namespace tsvd
