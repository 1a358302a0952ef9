// Multi-thread stress tests for the lock-light OnCall hot paths.
//
// The fast paths (TrapRegistry's armed-count skip, PhaseDetector's per-shard
// rings + epoch aggregation, TrapSet's per-thread pair cache, the thread
// timelines' call counts, the near-miss tracker's lock-free object index) trade
// locks for relaxed/acq-rel atomics; these tests pin down the guarantees that
// must survive that trade and are run under ThreadSanitizer by the
// tsan-delay-engine CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/core/delay_engine.h"
#include "src/core/nearmiss_tracker.h"
#include "src/core/phase_detector.h"
#include "src/core/trap_registry.h"
#include "src/core/trap_set.h"

namespace tsvd {
namespace {

Access MakeAccess(ThreadId tid, ObjectId obj, OpId op, OpKind kind) {
  Access a;
  a.tid = tid;
  a.obj = obj;
  a.op = op;
  a.kind = kind;
  return a;
}

// The core promise of the armed-counter fast path: a trap armed happens-before a
// checker's access is never missed. The armer publishes each round through a
// release store the checkers acquire, mirroring how a real trapped thread is
// already asleep (Set() returned) by the time a racing access happens-after it.
TEST(HotPathStressTest, CheckAndMarkNeverMissesArmedTrap) {
  constexpr int kRounds = 300;
  constexpr int kCheckers = 4;
  TrapRegistry traps;

  std::atomic<int> round_armed{-1};   // round whose trap is currently armed
  std::atomic<int> checks_done{0};
  std::atomic<int> missed{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> checkers;
  for (int c = 0; c < kCheckers; ++c) {
    checkers.emplace_back([&, c] {
      int last_seen = -1;
      while (!stop.load(std::memory_order_acquire)) {
        const int round = round_armed.load(std::memory_order_acquire);
        if (round == last_seen || round < 0) {
          continue;
        }
        last_seen = round;
        const ObjectId obj = 0x1000 + round;
        const auto conflict = traps.CheckAndMark(
            MakeAccess(static_cast<ThreadId>(100 + c), obj, 2, OpKind::kWrite));
        if (!conflict.found) {
          missed.fetch_add(1, std::memory_order_relaxed);
        }
        checks_done.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  for (int round = 0; round < kRounds; ++round) {
    const ObjectId obj = 0x1000 + round;
    auto* trap = traps.Set(MakeAccess(1, obj, 1, OpKind::kWrite), {});
    const int target = (round + 1) * kCheckers;
    round_armed.store(round, std::memory_order_release);
    while (checks_done.load(std::memory_order_acquire) < target) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(traps.Clear(trap)) << "round " << round;
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : checkers) {
    t.join();
  }
  EXPECT_EQ(missed.load(), 0);
  EXPECT_EQ(traps.ArmedCount(), 0u);
}

// Concurrent arm/check/clear churn across overlapping objects: the global armed
// count must return to zero and every cleared trap must report its hit state
// without crashes or TSan findings.
TEST(HotPathStressTest, ConcurrentArmCheckClearChurn) {
  TrapRegistry traps;
  std::vector<std::thread> threads;
  std::atomic<int> conflicts{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&traps, &conflicts, t] {
      for (int i = 0; i < 2000; ++i) {
        const ObjectId obj = 0x100 + (i % 13);
        auto* trap = traps.Set(
            MakeAccess(static_cast<ThreadId>(t + 1), obj, 1, OpKind::kWrite), {});
        if (traps
                .CheckAndMark(
                    MakeAccess(static_cast<ThreadId>(t + 100), obj, 2, OpKind::kWrite))
                .found) {
          conflicts.fetch_add(1, std::memory_order_relaxed);
        }
        traps.Clear(trap);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(traps.ArmedCount(), 0u);
  EXPECT_GT(conflicts.load(), 0);
}

// The epoch-sampled distinct-thread aggregate must never drift: after an
// arbitrary multi-thread interleaving, a single remaining thread must read
// "sequential" again once the other threads' entries age past the epoch horizon.
TEST(HotPathStressTest, PhaseDetectorCounterDoesNotDriftUnderContention) {
  PhaseDetector phase(16);
  std::atomic<int> concurrent_seen{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&phase, &concurrent_seen, t] {
      for (int i = 0; i < 50'000; ++i) {
        if (phase.RecordAndCheck(static_cast<ThreadId>(t + 1))) {
          concurrent_seen.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_GT(concurrent_seen.load(), 0);
  // Joins synchronize. Only thread 9 stays active: once its entries have been
  // refreshed across two explicit epoch advances, every stale id 1..4 has aged
  // out and the answer must be stably sequential from then on.
  phase.RecordAndCheck(9);
  phase.SweepNow();
  phase.RecordAndCheck(9);
  phase.SweepNow();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(phase.RecordAndCheck(9)) << "distinct-thread count drifted";
  }
}

// 32 threads hammering the per-shard rings — one thread per shard at this count,
// so every shard's write path and the shared published snapshot get concurrent
// coverage. Run under TSan by the tsan-delay-engine CI job: the contention-free
// claim of the sharded design is only credible if this is race-free.
TEST(HotPathStressTest, PhaseDetectorThirtyTwoThreadShardStress) {
  PhaseDetector phase(16);
  constexpr int kThreads = 32;
  std::atomic<uint64_t> concurrent_seen{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&phase, &concurrent_seen, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      uint64_t seen = 0;
      for (int i = 0; i < 20'000; ++i) {
        seen += phase.RecordAndCheck(static_cast<ThreadId>(t + 1)) ? 1 : 0;
      }
      concurrent_seen.fetch_add(seen, std::memory_order_relaxed);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) {
    thread.join();
  }
  // Every thread but the very first to ever record must have observed the
  // concurrent phase on the bulk of its calls.
  EXPECT_GT(concurrent_seen.load(), static_cast<uint64_t>(kThreads));
  // Drain back to one thread: the aggregate converges to exactly 1.
  phase.RecordAndCheck(1);
  phase.SweepNow();
  phase.RecordAndCheck(1);
  phase.SweepNow();
  EXPECT_EQ(phase.DistinctThreads(), 1u);
  EXPECT_FALSE(phase.RecordAndCheck(1));
}

// Pair-cache coherence: a pair removed by decay must be re-addable, and the
// per-thread no-op caches must notice the removal (epoch bump) from any thread.
TEST(HotPathStressTest, PairCacheInvalidatedAcrossThreadsAfterRemoval) {
  Config cfg;
  cfg.decay_factor = 0.99;    // one failed delay prunes the pair
  cfg.min_probability = 0.5;
  TrapSet set(cfg);

  ASSERT_TRUE(set.AddPair(1, 2));
  ASSERT_FALSE(set.AddPair(1, 2));  // cached no-op on this thread
  std::thread other([&set] {
    ASSERT_FALSE(set.AddPair(1, 2));  // cached no-op on a second thread
    set.DecayAfterFailedDelay(1);     // prunes the pair, bumps the epoch
  });
  other.join();
  EXPECT_EQ(set.PairCount(), 0u);
  // This thread's cache still holds (1,2) as a no-op from the old epoch; the bump
  // must force revalidation so the pair can return to the set.
  EXPECT_TRUE(set.AddPair(1, 2));
  EXPECT_EQ(set.PairCount(), 1u);
}

// Hammering AddPair with a small hot pair population from many threads: exactly one
// thread wins each genuine insert, duplicates are no-ops, and the final pair count
// matches the distinct population.
TEST(HotPathStressTest, AddPairStressCountsEachPairOnce) {
  Config cfg;
  cfg.decay_factor = 0.0;  // no decay: nothing is ever removed
  TrapSet set(cfg);
  constexpr int kDistinct = 32;
  std::atomic<int> genuine{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&set, &genuine] {
      for (int i = 0; i < 20'000; ++i) {
        const OpId a = 10 + (i % kDistinct);
        if (set.AddPair(a, 500)) {
          genuine.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(set.PairCount(), static_cast<uint64_t>(kDistinct));
  EXPECT_EQ(genuine.load(), kDistinct);
}

// Four threads mix private objects, a shared pool and a stream of fresh objects.
// The fresh stream forces index growth and sweeps, so blocks are recycled while
// other threads may still hold index entries that point at them. A private or
// fresh object is only ever touched by one thread, so any conflict reported on
// one means two objects' histories got mixed up; conflicts on the shared pool
// must only name shared-pool operations. Every access is stamped with the next
// tick of one shared logical clock instead of the wall clock, so time runs
// without gaps across threads: a thread that starts late, or is descheduled for
// a while, stamps its accesses right after the last ones recorded. Shared-pool
// conflicts then form wherever the threads interleave or hand over the CPU, not
// only when they happen to start within one window of each other.
TEST(HotPathStressTest, NearMissIndexGrowthAndRecyclingNeverMixObjects) {
  Config cfg;
  cfg.nearmiss_window_us = 50;  // fresh objects go stale 400 ticks on
  cfg.nearmiss_history = 5;
  NearMissTracker tracker(cfg);
  constexpr int kThreads = 4;
  constexpr int kIters = 40'000;
  constexpr OpId kSharedOps = 4;
  std::atomic<int> mixed{0};
  std::atomic<int> shared_conflicts{0};
  std::atomic<Micros> clock{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const ThreadId tid = static_cast<ThreadId>(t + 1);
      const ObjectId own = (static_cast<ObjectId>(t) + 1) << 40;
      ObjectId fresh = own | (ObjectId{1} << 32);
      NearMissTracker::ConflictBuffer out;
      for (int i = 0; i < kIters; ++i) {
        Access access;
        access.tid = tid;
        access.kind = ((i / 4) & 1) != 0 ? OpKind::kWrite : OpKind::kRead;
        access.time = clock.fetch_add(1, std::memory_order_relaxed);
        bool shared = false;
        switch (i % 4) {
          case 0:
            access.obj = 0x5000 + (i / 4) % 8;
            access.op = static_cast<OpId>(1 + i % kSharedOps);
            shared = true;
            break;
          case 1:
            access.obj = ++fresh;
            access.op = 200 + tid;
            break;
          default:
            access.obj = own + (i / 4) % 64;
            access.op = 100 + tid;
            break;
        }
        out.clear();
        tracker.RecordAndFindConflicts(access, out);
        for (const NearMissTracker::NearMiss& miss : out) {
          if (!shared || miss.other_op < 1 || miss.other_op > kSharedOps) {
            mixed.fetch_add(1, std::memory_order_relaxed);
          } else {
            shared_conflicts.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mixed.load(), 0);
  EXPECT_GT(shared_conflicts.load(), 0);
  // 40'000 fresh objects went in; sweeps must have returned most of them.
  EXPECT_LT(tracker.TrackedObjects(), static_cast<size_t>(kThreads * kIters / 4));
}

TEST(HotPathStressTest, TimelineCallCountAggregatesAcrossThreads) {
  Config cfg;
  cfg.stall_grace_us = 0;
  DelayEngine engine(cfg);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&engine, t] {
      for (int i = 0; i < 10'000; ++i) {
        engine.NoteProgress(static_cast<ThreadId>(t + 1), i + 1);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(engine.NotedCalls(), 80'000u);
}

TEST(HotPathStressTest, TimelineCallCountIsExactWithUntimedThreadsInUse) {
  Config cfg;
  cfg.stall_grace_us = 0;
  DelayEngine engine(cfg);
  std::vector<std::thread> threads;
  // Half the threads call under ids past the timeline capacity, so they all share
  // the untimed RMW counter while the others count in their own slots.
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&engine, t] {
      const ThreadId tid = t % 2 == 0 ? static_cast<ThreadId>(t + 1)
                                      : static_cast<ThreadId>(5000 + t);
      for (int i = 0; i < 10'000; ++i) {
        EXPECT_EQ(engine.NoteProgress(tid, i + 1) == nullptr, tid >= 5000);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(engine.NotedCalls(), 80'000u);
}

}  // namespace
}  // namespace tsvd
