// Unit tests for src/common: RNG, the clock, call-site interning, scope stacks,
// per-thread slots, paged tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "src/common/callsite.h"
#include "src/common/clock.h"
#include "src/common/execution_context.h"
#include "src/common/paged_table.h"
#include "src/common/per_thread.h"
#include "src/common/rng.h"
#include "src/common/scope_stack.h"
#include "src/common/thread_id.h"

namespace tsvd {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextInRangeCoversBoundsInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextBoolRespectsProbabilityRoughly) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

// The reference SplitMix64 outputs for state 0; the fault schedules replay their
// seeds through this same function, so it must never change.
TEST(RngTest, SplitMix64MatchesReferenceAndDrivesRng) {
  uint64_t state = 0;
  EXPECT_EQ(SplitMix64(&state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(SplitMix64(&state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(SplitMix64(&state), 0x06c45d188009454fULL);
  Rng rng(42);
  state = 42;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(rng.Next(), SplitMix64(&state));
  }
}

const char* Timebase() { return TscClockActive() ? "tsc" : "steady_clock"; }

// A NowMicros() read paired with the steady_clock time around it, retried until no
// preemption widened the bracket.
std::pair<Micros, Micros> PairedRead() {
  std::pair<Micros, Micros> read;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const Micros before = SteadyNowMicros();
    const Micros now = NowMicros();
    const Micros after = SteadyNowMicros();
    read = {now, before + (after - before) / 2};
    if (after - before <= 20) {
      break;
    }
  }
  return read;
}

// HB gaps, near-miss windows and delay budgets compare NowMicros() differences
// with thresholds in real microseconds.
TEST(ClockTest, TracksSteadyClockWithinOnePercent) {
  const auto [now0, steady0] = PairedRead();
  SleepMicros(250'000);
  const auto [now1, steady1] = PairedRead();
  const Micros elapsed = now1 - now0;
  const Micros steady = steady1 - steady0;
  ASSERT_GE(steady, 200'000);
  const double error = static_cast<double>(elapsed - steady) / static_cast<double>(steady);
  std::printf("[ clock    ] %s: %lld us elapsed against %lld us of steady_clock, error %+.4f%%\n",
              Timebase(), static_cast<long long>(elapsed), static_cast<long long>(steady),
              100.0 * error);
  EXPECT_LT(std::abs(error), 0.01);
}

TEST(ClockTest, ReadsOnOneThreadNeverDecrease) {
  Micros last = NowMicros();
  for (int i = 0; i < 2'000'000; ++i) {
    if (i % 1000 == 0) {
      std::this_thread::yield();  // a chance to migrate to another CPU
    }
    const Micros now = NowMicros();
    ASSERT_GE(now, last) << Timebase() << ", read " << i;
    last = now;
  }
}

// Two threads on different CPUs hand a turn back and forth. The sender reads the
// clock and publishes the read with the turn; the receiver's next read, which
// happens after it, may trail it by at most 1 us (the TSC read is not serializing
// and the counters of two CPUs agree only to within a few ticks).
TEST(ClockTest, ReadAfterHappensBeforeEdgeFromAnotherCpuIsNotEarlier) {
  std::vector<int> cpus;
#ifdef __linux__
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < 2; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        cpus.push_back(cpu);
      }
    }
  }
#endif
  constexpr int kHandoffs = 20'000;
  std::atomic<int> turn{0};
  std::atomic<Micros> sent{NowMicros()};
  Micros worst_lag[2] = {0, 0};
  auto player = [&](int me) {
#ifdef __linux__
    if (cpus.size() == 2) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[me], &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    }
#endif
    for (int i = me; i < kHandoffs; i += 2) {
      while (turn.load(std::memory_order_acquire) != i) {
        std::this_thread::yield();
      }
      const Micros now = NowMicros();
      worst_lag[me] = std::max(worst_lag[me], sent.load(std::memory_order_relaxed) - now);
      sent.store(NowMicros(), std::memory_order_relaxed);
      turn.store(i + 1, std::memory_order_release);
    }
  };
  std::thread a(player, 0);
  std::thread b(player, 1);
  a.join();
  b.join();
  std::printf("[ clock    ] %s, %zu pinned CPUs: worst receiver lag %lld / %lld us\n",
              Timebase(), cpus.size(), static_cast<long long>(worst_lag[0]),
              static_cast<long long>(worst_lag[1]));
  EXPECT_LE(worst_lag[0], 1);
  EXPECT_LE(worst_lag[1], 1);
}

// The fallback every host without a usable TSC runs on, called directly: whole
// microseconds of steady_clock. The TSC timebase is anchored on it, so the two
// agree to well within a millisecond inside one process.
TEST(ClockTest, SteadyFallbackIsSteadyClockInMicroseconds) {
  using std::chrono::duration_cast;
  using std::chrono::microseconds;
  using std::chrono::steady_clock;
  for (int i = 0; i < 1000; ++i) {
    const Micros before =
        duration_cast<microseconds>(steady_clock::now().time_since_epoch()).count();
    const Micros fallback = SteadyNowMicros();
    const Micros after =
        duration_cast<microseconds>(steady_clock::now().time_since_epoch()).count();
    ASSERT_GE(fallback, before);
    ASSERT_LE(fallback, after);
  }
  const auto [now, steady] = PairedRead();
  EXPECT_LE(std::abs(now - steady), 1000) << Timebase();
}

TEST(CallSiteTest, InternIsIdempotent) {
  auto& registry = CallSiteRegistry::Instance();
  const OpId a = registry.InternRaw("file.cc", 10, "Dictionary.Add", OpKind::kWrite);
  const OpId b = registry.InternRaw("file.cc", 10, "Dictionary.Add", OpKind::kWrite);
  EXPECT_EQ(a, b);
}

TEST(CallSiteTest, DistinctSitesGetDistinctIds) {
  auto& registry = CallSiteRegistry::Instance();
  const OpId a = registry.InternRaw("file.cc", 11, "Dictionary.Add", OpKind::kWrite);
  const OpId b = registry.InternRaw("file.cc", 12, "Dictionary.Add", OpKind::kWrite);
  const OpId c = registry.InternRaw("file.cc", 11, "Dictionary.Get", OpKind::kRead);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST(CallSiteTest, SignatureRoundtripsThroughFind) {
  auto& registry = CallSiteRegistry::Instance();
  const OpId id = registry.InternRaw("dir/x.cc", 99, "List.Sort", OpKind::kWrite);
  const std::string sig = registry.Get(id).Signature();
  EXPECT_EQ(registry.FindBySignature(sig), id);
  EXPECT_EQ(sig, "dir/x.cc:99 List.Sort");
}

TEST(CallSiteTest, FindUnknownSignatureReturnsInvalid) {
  EXPECT_EQ(CallSiteRegistry::Instance().FindBySignature("nope:1 X"), kInvalidOp);
}

TEST(CallSiteTest, KindIsPreserved) {
  auto& registry = CallSiteRegistry::Instance();
  const OpId id = registry.InternRaw("k.cc", 5, "Queue.Peek", OpKind::kRead);
  EXPECT_EQ(registry.Get(id).kind, OpKind::kRead);
}

TEST(ScopeStackTest, PushPopSnapshot) {
  ScopeStack& stack = ScopeStack::Current();
  const size_t base = stack.depth();
  {
    ScopedFrame f1("outer");
    EXPECT_EQ(stack.depth(), base + 1);
    {
      ScopedFrame f2("inner");
      const StackTrace snap = stack.Snapshot();
      ASSERT_GE(snap.size(), 2u);
      EXPECT_EQ(snap[snap.size() - 2], "outer");
      EXPECT_EQ(snap.back(), "inner");
    }
    EXPECT_EQ(stack.depth(), base + 1);
  }
  EXPECT_EQ(stack.depth(), base);
}

TEST(ScopeStackTest, InstallReplacesFrames) {
  ScopeStack& stack = ScopeStack::Current();
  const StackTrace saved = stack.Snapshot();
  stack.Install({"a", "b"});
  EXPECT_EQ(stack.depth(), 2u);
  stack.Install(saved);
  EXPECT_EQ(stack.Snapshot(), saved);
}

TEST(ThreadIdTest, StablePerThreadAndDistinctAcrossThreads) {
  const ThreadId mine = CurrentThreadId();
  EXPECT_EQ(mine, CurrentThreadId());
  ThreadId other = 0;
  std::thread t([&] { other = CurrentThreadId(); });
  t.join();
  EXPECT_NE(mine, other);
  EXPECT_NE(other, 0u);
}

TEST(ExecutionContextTest, DefaultsToRootCtxAndScopes) {
  const CtxId root = CurrentCtx();
  EXPECT_TRUE(root & kRootCtxBit);
  {
    ScopedCtx guard(42);
    EXPECT_EQ(CurrentCtx(), 42u);
    {
      ScopedCtx inner(43);
      EXPECT_EQ(CurrentCtx(), 43u);
    }
    EXPECT_EQ(CurrentCtx(), 42u);
  }
  EXPECT_EQ(CurrentCtx(), root);
}

TEST(PerThreadTest, SlotsAreIndependent) {
  PerThread<int> slots;
  *slots.Find(1) = 10;
  *slots.Find(2) = 20;
  EXPECT_EQ(*slots.Find(1), 10);
  EXPECT_EQ(*slots.Find(2), 20);
  EXPECT_EQ(*slots.Find(3), 0);  // value-initialized
}

using SmallTable = PagedTable<uint64_t, 16, 4>;

TEST(PagedTableTest, ConcurrentFirstTouchKeepsOnePageAndEveryWrite) {
  constexpr int kThreads = 8;
  // Many rounds so that several of them really race the page CAS.
  for (int round = 0; round < 200; ++round) {
    SmallTable table;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        // Slots 16..23: every thread first-touches page 1 at once.
        *table.Find(16 + t) = 1000 + t;
      });
    }
    while (ready.load() < kThreads) {
      std::this_thread::yield();
    }
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) {
      thread.join();
    }
    ASSERT_EQ(table.AllocatedPages(), 1u);
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_NE(table.Peek(16 + t), nullptr);
      EXPECT_EQ(*table.Peek(16 + t), static_cast<uint64_t>(1000 + t)) << "round " << round;
    }
  }
}

TEST(PagedTableTest, FindPastCapacityReturnsNull) {
  SmallTable table;
  EXPECT_EQ(SmallTable::kCapacity, 64u);
  EXPECT_NE(table.Find(SmallTable::kCapacity - 1), nullptr);
  EXPECT_EQ(table.Find(SmallTable::kCapacity), nullptr);
  EXPECT_EQ(table.Find(~size_t{0}), nullptr);
  EXPECT_EQ(table.AllocatedPages(), 1u);
}

TEST(PagedTableTest, PeekNeverAllocates) {
  SmallTable table;
  for (size_t i = 0; i <= SmallTable::kCapacity; ++i) {
    EXPECT_EQ(table.Peek(i), nullptr);
  }
  size_t visited = 0;
  table.ForEach([&visited](size_t, const uint64_t&) { ++visited; });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(table.AllocatedPages(), 0u);

  uint64_t* slot = table.Find(37);
  *slot = 7;
  EXPECT_EQ(table.Peek(37), slot);  // stable address, same slot
  EXPECT_EQ(*table.Peek(32), 0u);   // the rest of the page is value-initialized
  EXPECT_EQ(table.Peek(31), nullptr);
  EXPECT_EQ(table.Peek(48), nullptr);
  table.ForEach([&visited](size_t index, const uint64_t& value) {
    EXPECT_TRUE(index >= 32 && index < 48);
    EXPECT_EQ(value, index == 37 ? 7u : 0u);
    ++visited;
  });
  EXPECT_EQ(visited, SmallTable::kPageSlots);
  EXPECT_EQ(table.AllocatedPages(), 1u);
}

}  // namespace
}  // namespace tsvd
