// The global table of armed traps (Section 3.1).
//
// A trap is the triple (thread, object, operation) of a thread currently sleeping
// inside OnCall. Every other thread entering OnCall checks for a conflicting trap:
// same object, different thread, at least one write. Sharded by a mixed hash of the
// object so the check — which is on the hot path of every instrumented call — stays
// cheap.
//
// Hot-path design: traps are rare (at most a handful of threads sleep at once), so
// each shard carries a relaxed-atomic count of its armed traps, and MayHoldTrap
// answers from that count alone: one acquire load, no lock, nothing built. Only a
// nonzero count sends the caller to CheckAndMarkLocked, the one place a Conflict
// (an Access plus a stack) is copied out. The counter is incremented with release
// ordering inside Set() before the arming thread proceeds to sleep, and read with
// acquire ordering by checkers, so any trap armed before a checker's access (in the
// happens-before sense) is never missed: the fast path can only skip shards whose
// traps are still concurrently being armed, which is indistinguishable from the
// checker arriving first.
//
// ArmedCount() sums the per-shard counters instead of maintaining a global one:
// the global counter was one more cache line every Set()/Clear() dirtied for all
// cores, and the sum (64 acquire loads of read-mostly lines) only runs on the
// serialize_delays admission path and in diagnostics — never in the per-call
// steady state.
#ifndef SRC_CORE_TRAP_REGISTRY_H_
#define SRC_CORE_TRAP_REGISTRY_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/padded.h"
#include "src/common/scope_stack.h"
#include "src/core/access.h"

namespace tsvd {

class TrapRegistry {
 public:
  struct Trap {
    Access access;
    StackTrace stack;
    // Set, under the shard lock, when a racing thread conflicts with this trap;
    // the trapped thread's park reads it without the lock.
    std::atomic<bool> hit{false};
    // Index of this trap within its shard's vector, maintained by swap-and-pop so
    // Clear() is O(1) instead of a linear find.
    size_t slot = 0;
  };

  // An armed trap that an access conflicts with, copied out under the shard lock.
  struct Conflict {
    bool found = false;
    Access trapped_access;
    StackTrace trapped_stack;
  };

  // A thread arms a trap before sleeping. The returned handle stays valid until
  // Clear(); traps are heap-allocated and owned by the registry.
  //
  // With `conflict` non-null, arming also checks, under the same shard lock, for a
  // conflicting trap already armed, exactly as CheckAndMark does. Two threads that
  // pass CheckAndMark at the same instant and then both decide to sleep would
  // otherwise sleep side by side inside conflicting calls on one object without
  // either noticing the other: whichever arms second catches the first.
  Trap* Set(const Access& access, StackTrace stack, Conflict* conflict = nullptr);

  // Disarms a trap; returns whether any conflict was caught while it was set.
  bool Clear(Trap* trap);

  // The inline fast path of the trap check: may an armed trap in the object's shard
  // conflict with an access to it? One acquire load and out, no call, no lock (see
  // the file comment for why acquire here pairs with the release increment in Set()).
  bool MayHoldTrap(ObjectId obj) {
    return ShardFor(obj).armed.load(std::memory_order_acquire) != 0;
  }

  // Finds the first armed trap conflicting with `access` under its shard lock, marks
  // it hit and copies it to `conflict`; returns whether one was found. The caller
  // builds the bug report while the trapped thread still sleeps — both threads are
  // "caught red handed". The trap is copied out under the lock, so the trapped
  // thread clearing it concurrently is harmless.
  bool CheckAndMarkLocked(const Access& access, Conflict* conflict);

  // Both steps at once, for callers off the per-call path.
  Conflict CheckAndMark(const Access& access) {
    Conflict conflict;
    if (MayHoldTrap(access.obj)) {
      CheckAndMarkLocked(access, &conflict);
    }
    return conflict;
  }

  // Number of currently armed traps: the sum of the per-shard counters. O(kShards)
  // acquire loads of read-mostly lines; monotone-consistent rather than a locked
  // snapshot, which is all the admission check and diagnostics need. Off the
  // per-call fast path (only serialize_delays admission and tests call it), so a
  // shard scan here buys Set()/Clear() freedom from any globally shared write.
  size_t ArmedCount() const {
    size_t n = 0;
    for (const Shard& shard : shards_) {
      n += shard.armed.load(std::memory_order_acquire);
    }
    return n;
  }

 private:
  static constexpr size_t kShards = 64;
  struct alignas(kCacheLineSize) Shard {
    mutable std::mutex mu;
    std::vector<std::unique_ptr<Trap>> traps;
    // Armed traps in this shard; nonzero forces checkers through the mutex.
    std::atomic<uint32_t> armed{0};
  };
  static_assert(sizeof(Shard) % kCacheLineSize == 0 &&
                    alignof(Shard) == kCacheLineSize,
                "trap shards must not straddle a neighbor's cache line");

  Shard& ShardFor(ObjectId obj) { return shards_[Mix64(obj) % kShards]; }
  static Conflict FindConflictLocked(Shard& shard, const Access& access);

  Shard shards_[kShards];
};

}  // namespace tsvd

#endif  // SRC_CORE_TRAP_REGISTRY_H_
