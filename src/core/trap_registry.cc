#include "src/core/trap_registry.h"

namespace tsvd {

TrapRegistry::Trap* TrapRegistry::Set(const Access& access, StackTrace stack,
                                      Conflict* conflict) {
  auto trap = std::make_unique<Trap>();
  trap->access = access;
  trap->stack = std::move(stack);
  Trap* raw = trap.get();
  Shard& shard = ShardFor(access.obj);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (conflict != nullptr) {
    *conflict = FindConflictLocked(shard, access);
  }
  raw->slot = shard.traps.size();
  shard.traps.push_back(std::move(trap));
  // Release: a checker that (acquire-)reads a nonzero count sees the trap already in
  // the vector once it takes the lock; ordered before Set() returns, so a trap armed
  // happens-before a racing access is always visible to its fast-path check.
  shard.armed.fetch_add(1, std::memory_order_release);
  return raw;
}

bool TrapRegistry::Clear(Trap* trap) {
  Shard& shard = ShardFor(trap->access.obj);
  std::lock_guard<std::mutex> lock(shard.mu);
  const bool hit = trap->hit.load(std::memory_order_relaxed);
  // Swap-and-pop using the maintained slot index: O(1) regardless of how many traps
  // the shard holds.
  const size_t slot = trap->slot;
  auto& traps = shard.traps;
  if (slot + 1 < traps.size()) {
    std::swap(traps[slot], traps.back());
    traps[slot]->slot = slot;
  }
  traps.pop_back();
  shard.armed.fetch_sub(1, std::memory_order_release);
  return hit;
}

bool TrapRegistry::CheckAndMarkLocked(const Access& access, Conflict* conflict) {
  Shard& shard = ShardFor(access.obj);
  std::lock_guard<std::mutex> lock(shard.mu);
  *conflict = FindConflictLocked(shard, access);
  return conflict->found;
}

TrapRegistry::Conflict TrapRegistry::FindConflictLocked(Shard& shard,
                                                        const Access& access) {
  for (const auto& trap : shard.traps) {
    const Access& t = trap->access;
    if (t.obj == access.obj && t.tid != access.tid && KindsConflict(t.kind, access.kind)) {
      trap->hit.store(true, std::memory_order_release);
      return Conflict{true, t, trap->stack};
    }
  }
  return Conflict{};
}

}  // namespace tsvd
