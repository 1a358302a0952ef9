// Concurrent-phase inference (Section 3.4.3), rebuilt for flat thread scaling.
//
// The paper's detector is a global ring buffer of the most recently executed TSVD
// points; the execution is in a concurrent phase iff the buffer holds points from
// more than one thread. A TSVD point inside a sequential phase (initialization,
// clean-up, join-after-fork) can never race, so near misses seen there are not
// dangerous.
//
// No call writes a globally shared line in the steady state:
//
//   * Per-shard phase rings. Threads hash (dense ThreadId, identity-folded) onto
//     64 cache-line-isolated shards; a call appends a packed (tid, epoch) entry to
//     its own shard's tiny ring. With up to 64 live threads no two threads share a
//     shard, so ring writes are contention-free; beyond that, only aliased threads
//     share a line, and the ring (rather than a single slot) keeps all of them
//     visible to aggregation. In the steady state of a phase the shard's `last`
//     entry already holds (tid, current epoch) and the call writes nothing at all.
//
//   * Epoch-sampled aggregation. The ">1 distinct thread executing?" answer is not
//     recomputed per call. A sweeper — piggybacked on ordinary calls, no extra
//     thread — periodically advances a global epoch and folds per-shard ring
//     occupancy (entries stamped with the current or previous epoch are "recent")
//     into one published distinct-thread count. The fast path answers from a
//     single load-acquire of that read-mostly snapshot. One transition is handled
//     eagerly so detection latency matches the old detector: while the published
//     answer is still "one thread", the first record by a *different* thread
//     sweeps inline, so the second thread's very first call flips the answer.
//
//   * Bounded sweeps. A sweep reads only the shards whose bit is set in the
//     snapshot's used-shard mask (set on a shard's first write), not all 64;
//     never-written shards hold no entry, so every result is unchanged.
//
// The shared mutable state is thus: the snapshot + epoch line (written once per
// sweep period and once per shard's first write, read-only otherwise, so it stays
// resident in every core's cache) and the sweep lock (one CAS per sweep period).
// Everything else a call touches is shard-private.
//
// Invariant: ThreadId 0 is the "slot never filled" sentinel. CurrentThreadId()
// hands out ids starting at 1 and never reuses 0 (see thread_id.h); RecordAndCheck
// asserts this so a future id scheme cannot silently alias the sentinel and make a
// real thread invisible to phase detection.
#ifndef SRC_CORE_PHASE_DETECTOR_H_
#define SRC_CORE_PHASE_DETECTOR_H_

#include <atomic>
#include <bit>
#include <cassert>
#include <cstring>

#include "src/common/ids.h"
#include "src/common/padded.h"

namespace tsvd {

class PhaseDetector {
 public:
  static constexpr int kMaxBuffer = 64;

  // `buffer_size` is the paper's phase-buffer knob. It no longer sizes a global
  // ring; it scales the sweep period (how many shard-local calls make one epoch),
  // preserving its role as "how much recent history keeps a thread in the phase".
  explicit PhaseDetector(int buffer_size) {
    assert(buffer_size >= 1 && buffer_size <= kMaxBuffer);
    period_ = static_cast<uint32_t>(buffer_size) * 16;
    if (period_ < 64) {
      period_ = 64;
    }
  }

  // Records that `tid` executed a TSVD point and returns whether the execution is
  // currently in a concurrent phase. Relaxed atomics throughout the ring: the
  // buffer is a heuristic; torn interleavings only perturb which accesses count as
  // concurrent, never correctness.
  bool RecordAndCheck(ThreadId tid) {
    assert(tid != 0 && "ThreadId 0 is reserved as the empty-slot sentinel");
    Shard& shard = ShardFor(tid);
    const uint32_t epoch = snapshot_.epoch.load(std::memory_order_relaxed);
    const uint64_t packed = Pack(tid, epoch);
    const uint64_t prev = shard.last.load(std::memory_order_relaxed);
    if (prev != packed) {
      if (prev == 0) {  // the shard's first write: sweeps scan it from now on
        snapshot_.used.fetch_or(uint64_t{1} << ShardIndex(tid),
                                std::memory_order_release);
      }
      // First record of (tid, epoch) in this shard: append to the shard ring.
      // The cursor RMW is shard-private — contended only by threads aliased onto
      // this shard, i.e. never with <= 64 live threads.
      const uint32_t slot =
          shard.cursor.fetch_add(1, std::memory_order_relaxed) & (kRingDepth - 1);
      shard.ring[slot].store(packed, std::memory_order_relaxed);
      shard.last.store(packed, std::memory_order_relaxed);
      // Eager 1 -> >1 transition: the old global ring flipped the answer on the
      // second thread's first call, and trap decisions downstream depend on that
      // latency. Sweep inline only when a *different* thread appears while the
      // published answer still says "one thread" — a lone thread refreshing its
      // epoch stamp (TidOf(prev) == tid) never pays this.
      if (TidOf(prev) != tid &&
          snapshot_.distinct.load(std::memory_order_acquire) <= 1) {
        Sweep(/*advance_epoch=*/false);
      }
    }
    // Epoch clock, piggybacked on ordinary calls: every `period_` calls into this
    // shard, advance the epoch and re-aggregate. The counter is shard-private and
    // wraps at period_ (a compare, not a division); a lost increment under
    // aliasing only stretches the period, never corrupts it.
    const uint32_t calls = shard.calls.load(std::memory_order_relaxed) + 1;
    if (calls == period_) [[unlikely]] {
      shard.calls.store(0, std::memory_order_relaxed);
      Sweep(/*advance_epoch=*/true);
    } else {
      shard.calls.store(calls, std::memory_order_relaxed);
    }
    return snapshot_.distinct.load(std::memory_order_acquire) > 1;
  }

  // The published distinct-thread count of the last sweep. With stable phases and
  // fewer than kFoldSlots dense live threads this converges to the exact number of
  // distinct recording threads (see the determinism test).
  uint32_t DistinctThreads() const {
    return snapshot_.distinct.load(std::memory_order_acquire);
  }

  // Forces one epoch advance + aggregation, as the piggybacked clock would after
  // `period_` calls. Deterministic from a single thread; tests and diagnostics use
  // it instead of spinning out period-sized call loops.
  void SweepNow() { Sweep(/*advance_epoch=*/true); }

  // Shard-local calls per epoch advance (diagnostics; derived from buffer_size).
  uint32_t SweepPeriod() const { return period_; }

 private:
  static constexpr uint32_t kShards = 64;
  static constexpr uint32_t kRingDepth = 4;  // packed (tid, epoch) entries per shard

  // Occupancy is folded so the sweep bitmap stays a fixed 512B even if the process
  // churns through unbounded thread ids. Two threads folding together can only
  // under-report concurrency (they look like one thread), mirroring the
  // conservative direction of the paper's heuristic; with < 4096 live threads the
  // fold is the identity.
  static constexpr uint32_t kFoldSlots = 4096;

  static uint64_t Pack(ThreadId tid, uint32_t epoch) {
    return (static_cast<uint64_t>(tid) << 32) | epoch;
  }
  static ThreadId TidOf(uint64_t packed) {
    return static_cast<ThreadId>(packed >> 32);
  }
  static uint32_t EpochOf(uint64_t packed) {
    return static_cast<uint32_t>(packed);
  }

  struct alignas(kCacheLineSize) Shard {
    // Most recent (tid, epoch) written here: the steady-state write-skip check.
    std::atomic<uint64_t> last{0};
    std::atomic<uint32_t> cursor{0};
    std::atomic<uint32_t> calls{0};
    std::atomic<uint64_t> ring[kRingDepth] = {};
  };
  static_assert(sizeof(Shard) == kCacheLineSize,
                "a phase shard must own exactly one cache line");
  static_assert(alignof(Shard) == kCacheLineSize);

  // Dense ThreadIds start at 1, so the fold is a perfect 1:1 shard assignment for
  // up to kShards live threads — the hardware-conscious placement: each thread's
  // phase line is private to (and stays in the cache of) the core running it.
  static uint32_t ShardIndex(ThreadId tid) { return (tid - 1) & (kShards - 1); }
  Shard& ShardFor(ThreadId tid) { return shards_[ShardIndex(tid)]; }

  // Folds per-shard occupancy into the published snapshot. An entry is "recent" if
  // it is stamped with the current or the previous epoch, so a thread stays in the
  // phase for one full period after its last call and ages out on the next sweep —
  // the same role the old ring's eviction horizon played. Guarded by a try-lock:
  // losing the race means a concurrent sweep is already folding a fresher view.
  void Sweep(bool advance_epoch) {
    uint32_t expected = 0;
    if (!sweep_lock_.compare_exchange_strong(expected, 1, std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {
      return;
    }
    uint32_t epoch = snapshot_.epoch.load(std::memory_order_relaxed);
    if (advance_epoch) {
      ++epoch;
      snapshot_.epoch.store(epoch, std::memory_order_relaxed);
    }
    uint64_t seen[kFoldSlots / 64];
    std::memset(seen, 0, sizeof(seen));
    uint32_t distinct = 0;
    for (uint64_t used = snapshot_.used.load(std::memory_order_acquire); used != 0;
         used &= used - 1) {
      const Shard& shard = shards_[std::countr_zero(used)];
      for (const std::atomic<uint64_t>& entry : shard.ring) {
        const uint64_t packed = entry.load(std::memory_order_relaxed);
        const ThreadId tid = TidOf(packed);
        // `epoch - EpochOf(...) <= 1` is wrap-safe: both live on the same modular
        // clock, and a genuinely stale entry can only alias as recent once every
        // 2^32 epochs.
        if (tid == 0 || epoch - EpochOf(packed) > 1) {
          continue;
        }
        const uint32_t fold = (tid - 1) & (kFoldSlots - 1);
        uint64_t& word = seen[fold >> 6];
        const uint64_t bit = uint64_t{1} << (fold & 63);
        if ((word & bit) == 0) {
          word |= bit;
          ++distinct;
        }
      }
    }
    snapshot_.distinct.store(distinct, std::memory_order_release);
    sweep_lock_.store(0, std::memory_order_release);
  }

  uint32_t period_;
  Shard shards_[kShards];
  // Read-mostly snapshot line: every call loads it, only sweeps store it. Epochs
  // start at 1 so epoch 0 doubles as the rings' "never written" sentinel.
  struct alignas(kCacheLineSize) Snapshot {
    std::atomic<uint32_t> epoch{1};
    std::atomic<uint32_t> distinct{0};
    std::atomic<uint64_t> used{0};  // bit i: shard i has been written
  };
  static_assert(sizeof(Snapshot) == kCacheLineSize);
  Snapshot snapshot_{};
  // The only cross-shard RMW left, hit once per sweep — not per call.
  alignas(kCacheLineSize) std::atomic<uint32_t> sweep_lock_{0};
};

}  // namespace tsvd

#endif  // SRC_CORE_PHASE_DETECTOR_H_
