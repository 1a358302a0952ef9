// Unit tests for the trap registry: the conflict rule of Section 3.1 — same object,
// different thread, at least one write.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/core/trap_registry.h"

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

TEST(TrapRegistryTest, ConflictRequiresDifferentThread) {
  TrapRegistry traps;
  auto* trap = traps.Set(MakeAccess(1, 0x10, 1, OpKind::kWrite), {});
  EXPECT_FALSE(traps.CheckAndMark(MakeAccess(1, 0x10, 2, OpKind::kWrite)).found);
  EXPECT_TRUE(traps.CheckAndMark(MakeAccess(2, 0x10, 2, OpKind::kWrite)).found);
  EXPECT_TRUE(traps.Clear(trap));
}

TEST(TrapRegistryTest, ConflictRequiresSameObject) {
  TrapRegistry traps;
  auto* trap = traps.Set(MakeAccess(1, 0x10, 1, OpKind::kWrite), {});
  EXPECT_FALSE(traps.CheckAndMark(MakeAccess(2, 0x20, 2, OpKind::kWrite)).found);
  EXPECT_FALSE(traps.Clear(trap));
}

TEST(TrapRegistryTest, ReadReadDoesNotConflict) {
  TrapRegistry traps;
  auto* trap = traps.Set(MakeAccess(1, 0x10, 1, OpKind::kRead), {});
  EXPECT_FALSE(traps.CheckAndMark(MakeAccess(2, 0x10, 2, OpKind::kRead)).found);
  EXPECT_FALSE(traps.Clear(trap));
}

TEST(TrapRegistryTest, ReadTrapCaughtByWrite) {
  TrapRegistry traps;
  auto* trap = traps.Set(MakeAccess(1, 0x10, 1, OpKind::kRead), {});
  EXPECT_TRUE(traps.CheckAndMark(MakeAccess(2, 0x10, 2, OpKind::kWrite)).found);
  EXPECT_TRUE(traps.Clear(trap));
}

TEST(TrapRegistryTest, WriteTrapCaughtByRead) {
  TrapRegistry traps;
  auto* trap = traps.Set(MakeAccess(1, 0x10, 1, OpKind::kWrite), {});
  EXPECT_TRUE(traps.CheckAndMark(MakeAccess(2, 0x10, 2, OpKind::kRead)).found);
  EXPECT_TRUE(traps.Clear(trap));
}

TEST(TrapRegistryTest, ConflictReturnsTrappedDetails) {
  TrapRegistry traps;
  auto* trap = traps.Set(MakeAccess(7, 0x10, 33, OpKind::kWrite), {"frame_a", "frame_b"});
  const auto conflict = traps.CheckAndMark(MakeAccess(8, 0x10, 44, OpKind::kRead));
  ASSERT_TRUE(conflict.found);
  EXPECT_EQ(conflict.trapped_access.tid, 7u);
  EXPECT_EQ(conflict.trapped_access.op, 33u);
  ASSERT_EQ(conflict.trapped_stack.size(), 2u);
  EXPECT_EQ(conflict.trapped_stack[1], "frame_b");
  traps.Clear(trap);
}

// Two threads that both passed CheckAndMark before either armed: the second to arm
// catches the first, and a trap armed beside a non-conflicting one catches nothing.
TEST(TrapRegistryTest, ArmingBesideAConflictingTrapCatchesIt) {
  TrapRegistry traps;
  TrapRegistry::Conflict none;
  auto* first = traps.Set(MakeAccess(1, 0x10, 5, OpKind::kWrite), {"first"}, &none);
  EXPECT_FALSE(none.found);

  TrapRegistry::Conflict elsewhere;
  auto* other_object = traps.Set(MakeAccess(3, 0x20, 5, OpKind::kWrite), {}, &elsewhere);
  EXPECT_FALSE(elsewhere.found);

  TrapRegistry::Conflict caught;
  auto* second = traps.Set(MakeAccess(2, 0x10, 5, OpKind::kWrite), {"second"}, &caught);
  ASSERT_TRUE(caught.found);
  EXPECT_EQ(caught.trapped_access.tid, 1u);
  EXPECT_EQ(caught.trapped_stack, (StackTrace{"first"}));

  // Only the trap that was caught reports a hit; the catcher's own trap is clean.
  EXPECT_FALSE(traps.Clear(second));
  EXPECT_TRUE(traps.Clear(first));
  EXPECT_FALSE(traps.Clear(other_object));
}

TEST(TrapRegistryTest, ArmingBesideANonConflictingTrapCatchesNothing) {
  TrapRegistry traps;
  auto* reader = traps.Set(MakeAccess(1, 0x10, 5, OpKind::kRead), {});
  TrapRegistry::Conflict conflict;
  auto* same_thread = traps.Set(MakeAccess(1, 0x10, 6, OpKind::kWrite), {}, &conflict);
  EXPECT_FALSE(conflict.found);
  EXPECT_FALSE(traps.Clear(same_thread));
  auto* other_reader = traps.Set(MakeAccess(2, 0x10, 5, OpKind::kRead), {}, &conflict);
  EXPECT_FALSE(conflict.found);
  EXPECT_FALSE(traps.Clear(other_reader));
  EXPECT_FALSE(traps.Clear(reader));
}

TEST(TrapRegistryTest, ClearReportsWhetherTrapWasHit) {
  TrapRegistry traps;
  auto* hit_trap = traps.Set(MakeAccess(1, 0x10, 1, OpKind::kWrite), {});
  auto* quiet_trap = traps.Set(MakeAccess(1, 0x20, 1, OpKind::kWrite), {});
  traps.CheckAndMark(MakeAccess(2, 0x10, 2, OpKind::kWrite));
  EXPECT_TRUE(traps.Clear(hit_trap));
  EXPECT_FALSE(traps.Clear(quiet_trap));
}

TEST(TrapRegistryTest, MultipleTrapsOnDifferentObjects) {
  TrapRegistry traps;
  std::vector<TrapRegistry::Trap*> armed;
  for (ObjectId obj = 1; obj <= 100; ++obj) {
    armed.push_back(traps.Set(MakeAccess(1, obj, 1, OpKind::kWrite), {}));
  }
  EXPECT_EQ(traps.ArmedCount(), 100u);
  EXPECT_TRUE(traps.CheckAndMark(MakeAccess(2, 50, 2, OpKind::kRead)).found);
  for (auto* trap : armed) {
    traps.Clear(trap);
  }
  EXPECT_EQ(traps.ArmedCount(), 0u);
}

TEST(TrapRegistryTest, ConcurrentSetCheckClearIsSafe) {
  TrapRegistry traps;
  std::vector<std::thread> threads;
  std::atomic<int> conflicts{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&traps, &conflicts, t] {
      for (int i = 0; i < 500; ++i) {
        const ObjectId obj = 0x100 + (i % 7);
        auto* trap = traps.Set(
            MakeAccess(static_cast<ThreadId>(t + 1), obj, 1, OpKind::kWrite), {});
        if (traps.CheckAndMark(
                    MakeAccess(static_cast<ThreadId>(t + 100), obj, 2, OpKind::kWrite))
                .found) {
          conflicts.fetch_add(1);
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

}  // namespace
}  // namespace tsvd
