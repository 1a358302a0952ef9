// Access and synchronization events flowing into detectors.
#ifndef SRC_CORE_ACCESS_H_
#define SRC_CORE_ACCESS_H_

#include <atomic>
#include <cstdint>

#include "src/common/clock.h"
#include "src/common/ids.h"

namespace tsvd {

struct ThreadTimeline;

// An instrumented object's handle to its near-miss history (nearmiss_tracker.h):
// the number of the history block that last held the object's accesses, plus one;
// 0 names no block. The object owns the handle and the tracker rewrites it, so it is
// a hint, never a pointer: a number that names a block of another tracker, or a
// block since handed to another object, fails the tracker's ownership check and the
// access falls back to the object index.
using NearMissHandle = std::atomic<uint32_t>;

// One dynamic execution of a TSVD point: the (thread, object, operation) triple of the
// paper's OnCall, plus a timestamp, the operation's read/write classification, the
// executing context (for TSVDHB only), and whether the global execution was in a
// concurrent phase at the time (computed by the runtime, consumed by core TSVD).
// `timeline` is the calling thread's slot (thread_timeline.h), filled by the
// runtime; without one (past the slot capacity, or outside a runtime) HB inference
// infers nothing. `handle` is the object's near-miss handle when its caller has
// one (instrumented containers do), else null.
//
// Field order packs the struct into seven words. A 56-byte Access once cost about
// 5 ns per OnCall (bench/oncall_hotpath no_trap, 1 thread) because the trap check
// returned a copy of an Access on every call; the check now copies nothing unless
// the object's shard holds an armed trap (trap_registry.h), so the size no longer
// reaches the fast path.
struct Access {
  ThreadId tid = 0;
  OpId op = kInvalidOp;
  ObjectId obj = 0;
  Micros time = 0;
  CtxId ctx = kInvalidCtx;
  ThreadTimeline* timeline = nullptr;
  NearMissHandle* handle = nullptr;
  OpKind kind = OpKind::kRead;
  bool concurrent_phase = false;
};
static_assert(sizeof(Access) == 56, "Access must stay seven words; see above");

// Two operations violate a thread-safety contract iff at least one is a write
// (Section 2.2).
inline bool KindsConflict(OpKind a, OpKind b) {
  return a == OpKind::kWrite || b == OpKind::kWrite;
}

// Synchronization events. Published by the task runtime ONLY when the installed
// detector asks for them (TSVDHB). Core TSVD never sees these — that is the point of
// the paper (Section 3.4: "no synchronization modeling or happens-before analysis").
enum class SyncEventType {
  kTaskCreate,   // ctx = child task, other = parent context
  kTaskStart,    // ctx = task now beginning execution on some thread
  kTaskFinish,   // ctx = task that completed
  kTaskJoin,     // ctx = joining context, other = joined (finished) task
  kLockAcquire,  // ctx = acquiring context, lock = lock identity
  kLockRelease,  // ctx = releasing context, lock = lock identity
};

struct SyncEvent {
  SyncEventType type;
  CtxId ctx = kInvalidCtx;
  CtxId other = kInvalidCtx;
  ObjectId lock = 0;
};

}  // namespace tsvd

#endif  // SRC_CORE_ACCESS_H_
