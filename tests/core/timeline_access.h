// Test helper for driving HB inference without a Runtime.
#ifndef TESTS_CORE_TIMELINE_ACCESS_H_
#define TESTS_CORE_TIMELINE_ACCESS_H_

#include "src/core/access.h"
#include "src/core/thread_timeline.h"

namespace tsvd {

// Gives `access` its thread's timeline slot and enters the slot at access.time, as
// Runtime::OnCallImpl does before the detector sees a call. A thread id past the
// table's capacity gets no slot, as in the runtime.
inline Access Entered(ThreadTimelines& timelines, Access access) {
  access.timeline = timelines.Find(access.tid);
  if (access.timeline != nullptr) {
    access.timeline->Enter(access.time);
  }
  return access;
}

}  // namespace tsvd

#endif  // TESTS_CORE_TIMELINE_ACCESS_H_
