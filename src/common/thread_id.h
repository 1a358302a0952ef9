// Dense per-OS-thread identifiers (the thread_id of the paper's OnCall triple).
#ifndef SRC_COMMON_THREAD_ID_H_
#define SRC_COMMON_THREAD_ID_H_

#include <atomic>

#include "src/common/ids.h"

namespace tsvd {

namespace internal {
inline std::atomic<ThreadId> next_thread_id{1};
// Constant-initialized (0: not assigned yet), so a read is a plain TLS load with
// no init-guard check on the hot path.
inline thread_local ThreadId tls_thread_id = 0;

[[gnu::noinline, gnu::cold]] inline ThreadId AssignThreadId() {
  return tls_thread_id = next_thread_id.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace internal

// Returns a small, dense id unique to the calling OS thread, assigned on first use.
//
// Invariant: the returned id is never 0. Ids start at 1 and only grow; 0 is reserved
// process-wide as an "empty / never filled" sentinel (PhaseDetector's ring slots rely
// on this to distinguish unwritten slots from real threads — see phase_detector.h).
inline ThreadId CurrentThreadId() {
  const ThreadId id = internal::tls_thread_id;
  return id != 0 ? id : internal::AssignThreadId();
}

}  // namespace tsvd

#endif  // SRC_COMMON_THREAD_ID_H_
