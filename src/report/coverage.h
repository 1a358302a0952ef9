// Coverage statistics for instrumented points (Section 5.2, "Actionable Reports"):
// which TSVD points were hit at all, and which were hit in a concurrent context. One
// Microsoft team used exactly these statistics to find blind spots in their testing.
//
// Record() runs on every OnCall, so it is lock-free: counts live in dense paged
// tables of relaxed atomics indexed by OpId (ids are interned densely; the table
// caps at kMaxOps, like every OpId-indexed table). The tables are lane-sharded by
// the caller's thread id: OpIds name *static* program locations, so the same hot
// call sites recur across every thread, and a single table made each hot cell a
// cache line all cores RMW on every call. With kLanes lanes a cell line is
// contended only by the (tid mod kLanes)-congruent subset of threads — at 64
// threads, 4 instead of 64 writers per line. Pages are allocated per (lane, range)
// on first touch, so an idle runtime costs a few pointers and lanes only
// materialize for thread ids that actually run. Queries take no lock either — they
// sum the lanes' atomics and are monotone rather than snapshot-consistent, which is
// all the end-of-run reporting needs.
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
  void Record(OpId op, ThreadId tid, bool concurrent_phase) {
    Cell* cell = lanes_[LaneFor(tid)].Find(op);
    if (cell == nullptr) {
      return;  // uninterned / synthetic id beyond the dense range
    }
    // Both counters ride one RMW: total hits in the low half, concurrent hits in
    // the high half. A point would need 2^32 hits to carry between the halves —
    // far past any run this diagnostic serves — so one fetch_add replaces two.
    cell->packed.fetch_add(1 + (static_cast<uint64_t>(concurrent_phase) << 32),
                           std::memory_order_relaxed);
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

  static constexpr size_t kLanes = 16;
  using Lane = PerOp<Cell>;

  // Dense ThreadIds start at 1; keep the fold aligned with the phase detector's
  // shard placement so a thread's hot lines stay with its core.
  static size_t LaneFor(ThreadId tid) { return (tid - 1) & (kLanes - 1); }

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
};

}  // namespace tsvd

#endif  // SRC_REPORT_COVERAGE_H_
