// A cache-line-sharded event counter for write-heavy, read-rarely statistics.
//
// Runtime::OnCall increments a couple of counters on every instrumented call; a
// single std::atomic makes every core bounce the same cache line. ShardedCounter
// spreads increments over per-cell padded atomics indexed by the caller's dense
// ThreadId and only pays the gather cost in Total(), which runs once per summary.
// Total() is monotone but not a linearizable snapshot — identical to the guarantee
// the single relaxed atomic gave. Cells live in a paged table, so a counter costs a
// page per 64 thread ids that actually count, not its full capacity.
#ifndef SRC_COMMON_SHARDED_COUNTER_H_
#define SRC_COMMON_SHARDED_COUNTER_H_

#include <atomic>
#include <cstdint>

#include "src/common/ids.h"
#include "src/common/padded.h"
#include "src/common/paged_table.h"

namespace tsvd {

class ShardedCounter {
 public:
  void Add(ThreadId tid, uint64_t n = 1) {
    if (Cell* cell = cells_.Find(tid)) {
      // Dense ThreadIds are issued once per OS thread and never reused, so
      // cell `tid` has exactly one writer: a relaxed load+store pair is exact and
      // cheaper than the lock-prefixed RMW.
      std::atomic<uint64_t>& value = cell->value;
      value.store(value.load(std::memory_order_relaxed) + n,
                  std::memory_order_relaxed);
    } else {
      // Ids past the capacity share one RMW cell — index 0 is free for that
      // because tid 0 is never issued (see thread_id.h).
      cells_.Find(0)->value.fetch_add(n, std::memory_order_relaxed);
    }
  }

  uint64_t Total() const {
    uint64_t sum = 0;
    cells_.ForEach([&sum](size_t, const Cell& cell) {
      sum += cell.value.load(std::memory_order_relaxed);
    });
    return sum;
  }

 private:
  // Sized past any realistic live-thread count (64-thread scaling benches spawn
  // fresh threads per mode × thread-count combination, and dense ThreadIds are
  // never reused, so ids well beyond the peak thread count stay on the exact
  // single-writer path instead of colliding on the shared fallback cell).
  static constexpr size_t kCells = 1024;
  struct alignas(kCacheLineSize) Cell {
    std::atomic<uint64_t> value{0};
  };
  static_assert(sizeof(Cell) == kCacheLineSize && alignof(Cell) == kCacheLineSize,
                "each counter cell must own exactly one cache line");
  PagedTable<Cell, 64, kCells / 64> cells_;
};

}  // namespace tsvd

#endif  // SRC_COMMON_SHARDED_COUNTER_H_
