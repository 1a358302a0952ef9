// The one per-thread slot Runtime::OnCall writes. Every call records "this thread
// entered OnCall at `now`" once, for three readers: the delay engine's sentinel
// (is a thread active outside a park?), HB inference (how long did the thread stall
// since its previous call?) and the run's call count. It also keeps the thread's
// coverage lane (coverage.h). The owner writes the slot; the sentinel and
// Runtime::Summary read `last_call` and `calls` from other threads.
#ifndef SRC_CORE_THREAD_TIMELINE_H_
#define SRC_CORE_THREAD_TIMELINE_H_

#include <atomic>
#include <cstdint>

#include "src/common/clock.h"
#include "src/common/ids.h"
#include "src/common/padded.h"
#include "src/common/per_thread.h"

namespace tsvd {

struct alignas(kCacheLineSize) ThreadTimeline {
  std::atomic<Micros> last_call{0};  // entry time of the latest call (0: none)
  Micros prev_call = 0;              // entry time of the call before it
  // End of the thread's own latest delay: HB's gap starts at the later of this
  // and prev_call, so the thread's own sleep is never read as a causal stall.
  Micros delay_end = 0;
  // HB transitivity window: the next `credit_left` calls happen after credit_src.
  OpId credit_src = kInvalidOp;
  int credit_left = 0;
  std::atomic<uint64_t> calls{0};
  // The CoverageTracker lane this thread claimed in this Runtime (0: none yet).
  uint32_t coverage_lane = 0;

  void Enter(Micros now) {
    prev_call = last_call.load(std::memory_order_relaxed);
    last_call.store(now, std::memory_order_relaxed);
    // Single writer: a load+store pair is exact and cheaper than a locked RMW.
    calls.store(calls.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
};
static_assert(sizeof(ThreadTimeline) == kCacheLineSize &&
                  alignof(ThreadTimeline) == kCacheLineSize,
              "a thread timeline must own exactly one cache line");

using ThreadTimelines = PerThread<ThreadTimeline>;

}  // namespace tsvd

#endif  // SRC_CORE_THREAD_TIMELINE_H_
