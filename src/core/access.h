// Access and synchronization events flowing into detectors.
#ifndef SRC_CORE_ACCESS_H_
#define SRC_CORE_ACCESS_H_

#include "src/common/clock.h"
#include "src/common/ids.h"

namespace tsvd {

struct ThreadTimeline;

// One dynamic execution of a TSVD point: the (thread, object, operation) triple of the
// paper's OnCall, plus a timestamp, the operation's read/write classification, the
// executing context (for TSVDHB only), and whether the global execution was in a
// concurrent phase at the time (computed by the runtime, consumed by core TSVD).
// `timeline` is the calling thread's slot (thread_timeline.h), filled by the
// runtime; without one (past the slot capacity, or outside a runtime) HB inference
// infers nothing. Field order packs the struct into six words: the padded 56-byte
// layout cost about 5 ns per OnCall (bench/oncall_hotpath no_trap, 1 thread).
struct Access {
  ThreadId tid = 0;
  OpId op = kInvalidOp;
  ObjectId obj = 0;
  Micros time = 0;
  CtxId ctx = kInvalidCtx;
  ThreadTimeline* timeline = nullptr;
  OpKind kind = OpKind::kRead;
  bool concurrent_phase = false;
};
static_assert(sizeof(Access) == 48, "Access must stay six words; see above");

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
