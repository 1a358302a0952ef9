// Per-thread state slots, indexed by dense ThreadId.
//
// Per-run per-thread state (RNG streams, pair caches, thread timelines) cannot
// live in thread_local storage because runtimes and detectors are created and torn
// down per test module while pool threads persist. Instead each of them owns a
// PerThread<T>: a paged table indexed by ThreadId where each slot is only ever
// touched by its owning thread, so no locking is needed. Pages of 64 slots are
// allocated on a thread's first touch, so a run pays for the threads it has, not
// for the capacity.
//
// Dense ThreadIds are never reused, so the capacity-th thread a process ever creates
// has no slot. Hot-path callers use Find() and take a fallback for it (skip the
// per-thread state, or use a thread_local) instead of writing past the table.
#ifndef SRC_COMMON_PER_THREAD_H_
#define SRC_COMMON_PER_THREAD_H_

#include <atomic>
#include <cstdint>

#include "src/common/ids.h"
#include "src/common/padded.h"
#include "src/common/paged_table.h"
#include "src/common/rng.h"

namespace tsvd {

inline constexpr size_t kMaxThreads = 4096;
template <typename T>
using PerThread = PagedTable<T, 64, kMaxThreads / 64>;

// One RNG stream per thread for a detector's sampling draws: thread `tid` draws from
// Rng(base + tid), seeded on its first draw, so a run's decisions are a function
// of the seed. Slots are line-aligned: the state advances on every draw, and dense
// ThreadIds would otherwise pack 2-3 threads' slots onto one cache line.
class PerThreadRng {
 public:
  explicit PerThreadRng(uint64_t base)
      : base_(base), id_(next_id_.fetch_add(1, std::memory_order_relaxed)) {}

  Rng& For(ThreadId tid) {
    Slot* slot = slots_.Find(tid);
    if (slot == nullptr) {
      return Overflow(tid);
    }
    if (!slot->initialized) {
      slot->rng = Rng(base_ + tid);
      slot->initialized = true;
    }
    return slot->rng;
  }

 private:
  struct alignas(kCacheLineSize) Slot {
    Rng rng{0};
    bool initialized = false;
  };
  static_assert(sizeof(Slot) == kCacheLineSize && alignof(Slot) == kCacheLineSize,
                "RNG slots must own exactly one cache line");

  // A thread without a slot draws from a thread_local stream, reseeded whenever
  // the thread moves on to another generator. Generators are told apart by a
  // process-unique id, not by address, which a later generator may reuse.
  Rng& Overflow(ThreadId tid) {
    thread_local uint64_t owner = 0;
    thread_local Rng rng;
    if (owner != id_) {
      owner = id_;
      rng = Rng(base_ + tid);
    }
    return rng;
  }

  inline static std::atomic<uint64_t> next_id_{1};
  uint64_t base_;
  uint64_t id_;
  PerThread<Slot> slots_;
};

}  // namespace tsvd

#endif  // SRC_COMMON_PER_THREAD_H_
