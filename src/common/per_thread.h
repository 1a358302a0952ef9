// Fixed-capacity per-thread state slots, indexed by dense ThreadId.
//
// Detector-local per-thread state (RNG streams, last-access times, HB-inference
// credits) cannot live in thread_local storage because detectors are created and torn
// down per test module while pool threads persist. Instead each detector owns a
// PerThread<T>: a preallocated array indexed by ThreadId where each slot is only ever
// touched by its owning thread, so no locking is needed.
//
// Dense ThreadIds are never reused, so the capacity-th thread a process ever creates
// has no slot. Hot-path callers use Find() and take a fallback for it (skip the
// per-thread state, or use a thread_local) instead of writing past the array.
#ifndef SRC_COMMON_PER_THREAD_H_
#define SRC_COMMON_PER_THREAD_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>

#include "src/common/ids.h"
#include "src/common/padded.h"
#include "src/common/rng.h"

namespace tsvd {

template <typename T>
class PerThread {
 public:
  explicit PerThread(size_t capacity = kDefaultCapacity)
      : capacity_(capacity), slots_(std::make_unique<T[]>(capacity)) {}

  T& Get(ThreadId tid) {
    assert(tid < capacity_ && "ThreadId exceeds PerThread capacity");
    return slots_[tid];
  }

  const T& Get(ThreadId tid) const {
    assert(tid < capacity_);
    return slots_[tid];
  }

  // The slot of `tid`, or nullptr when `tid` is at or past the capacity.
  T* Find(ThreadId tid) { return tid < capacity_ ? &slots_[tid] : nullptr; }

  size_t capacity() const { return capacity_; }

  // Iteration for end-of-run aggregation only (not thread-safe against writers).
  T* begin() { return slots_.get(); }
  T* end() { return slots_.get() + capacity_; }

  static constexpr size_t kDefaultCapacity = 4096;

 private:
  size_t capacity_;
  std::unique_ptr<T[]> slots_;
};

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
