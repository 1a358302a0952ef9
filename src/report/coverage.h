// Coverage statistics for instrumented points (Section 5.2, "Actionable Reports"):
// which TSVD points were hit at all, and which were hit in a concurrent context. One
// Microsoft team used exactly these statistics to find blind spots in their testing.
//
// Record() runs on every OnCall, so it takes no lock and, for most threads, no
// locked RMW either: counts live in dense paged tables of relaxed atomics indexed by
// OpId (ids are interned densely; the table caps at kMaxOps, like every
// OpId-indexed table), one table per lane. OpIds name *static* program locations, so
// the same hot call sites recur across every thread; a single table made each hot
// cell a cache line all cores RMW on every call. Instead each thread claims a lane of
// its own on its first call and keeps the lane's number in a cell the caller owns
// (the runtime uses the thread's timeline slot, so a thread claims once per
// Runtime). A lane with one writer is updated with a relaxed load and store. Threads
// that come after the exclusive lanes are gone spread over the shared lanes in claim
// order, and callers without a cell use the last one; shared lanes keep the
// fetch_add. With one shared lane, the threads past the sixteenth of a 64-thread
// run all hit the same hot cells (oncall_hotpath no_trap at 64 threads: 59 ns per
// call, against 42 ns with the ThreadId-folded lanes). Lanes are claimed in order
// of first call, not by ThreadId: ids are process-wide and never reused, so in a
// long process they would soon all fall past any fixed range of exclusive lanes.
// Pages are allocated per (lane, range) on first
// touch, so an idle runtime costs a few pointers and lanes only materialize for
// threads that actually run. Queries take no lock either — they sum the lanes'
// atomics and are monotone rather than snapshot-consistent, which is all the
// end-of-run reporting needs.
#ifndef SRC_REPORT_COVERAGE_H_
#define SRC_REPORT_COVERAGE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/paged_table.h"

namespace tsvd {

class CoverageTracker {
 public:
  // Counts one hit of `op`. `lane` is the calling thread's lane cell, which only
  // that thread reads and writes (0: no lane claimed yet), or null for a caller
  // without one, which counts on the last shared lane.
  void Record(OpId op, uint32_t* lane, bool concurrent_phase) {
    if (lane != nullptr && *lane == 0) [[unlikely]] {
      *lane = ClaimLane();
    }
    const size_t index = lane == nullptr ? kLanes - 1 : *lane - 1;
    Cell* cell = lanes_[index].Find(op);
    if (cell == nullptr) {
      return;  // uninterned / synthetic id beyond the dense range
    }
    // Both counters ride one update: total hits in the low half, concurrent hits in
    // the high half. A point would need 2^32 hits to carry between the halves —
    // far past any run this diagnostic serves.
    const uint64_t add = 1 + (static_cast<uint64_t>(concurrent_phase) << 32);
    if (index >= kExclusiveLanes) {
      cell->packed.fetch_add(add, std::memory_order_relaxed);
    } else {
      // One writer: a load+store pair is exact and cheaper than a locked RMW.
      cell->packed.store(cell->packed.load(std::memory_order_relaxed) + add,
                         std::memory_order_relaxed);
    }
  }

  struct Entry {
    uint64_t hits = 0;
    uint64_t concurrent_hits = 0;
  };

  // Points hit at least once / hit at least once concurrently.
  size_t PointsHit() const;
  size_t PointsHitConcurrently() const;
  // Points that were only ever exercised sequentially: testing blind spots.
  std::vector<OpId> SequentialOnlyPoints() const;
  Entry Lookup(OpId op) const;

  std::string Render() const;

 private:
  // hits = low 32 bits, concurrent_hits = high 32 bits (see Record).
  struct Cell {
    std::atomic<uint64_t> packed{0};
  };
  // Cells are deliberately unpadded: the table is dense by OpId, and padding every
  // op to a line would multiply each 32KB page by 8. Cross-thread isolation comes
  // from the lanes, not from per-cell padding.
  static_assert(sizeof(Cell) == 8);
  static uint64_t HitsOf(uint64_t packed) { return packed & 0xffffffffu; }
  static uint64_t ConcurrentOf(uint64_t packed) { return packed >> 32; }

  // Lanes below kExclusiveLanes go one to a thread; the rest are shared.
  static constexpr size_t kExclusiveLanes = 16;
  static constexpr size_t kLanes = 32;
  using Lane = PerOp<Cell>;

  // The next exclusive lane, or once those are gone a shared one in turn, as the
  // value of a lane cell (lane number plus one).
  uint32_t ClaimLane() {
    const size_t claimed = next_lane_.fetch_add(1, std::memory_order_relaxed);
    const size_t lane =
        claimed < kExclusiveLanes
            ? claimed
            : kExclusiveLanes + (claimed - kExclusiveLanes) % (kLanes - kExclusiveLanes);
    return static_cast<uint32_t>(lane + 1);
  }

  // Visits every op with a nonzero hit count, with lane-summed totals.
  template <typename Fn>
  void ForEachHit(Fn&& fn) const {
    for (size_t start = 0; start < Lane::kCapacity; start += Lane::kPageSlots) {
      const Cell* pages[kLanes];
      bool any = false;
      for (size_t lane = 0; lane < kLanes; ++lane) {
        pages[lane] = lanes_[lane].Peek(start);
        any = any || pages[lane] != nullptr;
      }
      if (!any) {
        continue;
      }
      for (size_t i = 0; i < Lane::kPageSlots; ++i) {
        uint64_t hits = 0;
        uint64_t concurrent = 0;
        for (const Cell* page : pages) {
          if (page == nullptr) {
            continue;
          }
          const uint64_t packed = page[i].packed.load(std::memory_order_relaxed);
          hits += HitsOf(packed);
          concurrent += ConcurrentOf(packed);
        }
        if (hits != 0) {
          fn(static_cast<OpId>(start + i), hits, concurrent);
        }
      }
    }
  }

  Lane lanes_[kLanes];
  std::atomic<size_t> next_lane_{0};
};

}  // namespace tsvd

#endif  // SRC_REPORT_COVERAGE_H_
