// Unit tests for src/common: RNG, call-site interning, scope stacks, per-thread slots,
// paged tables.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "src/common/callsite.h"
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
