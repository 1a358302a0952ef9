// Property test: NearMissTracker agrees with a naive reference model over random
// access streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/nearmiss_tracker.h"

namespace tsvd {
namespace {

struct RefRecord {
  ThreadId tid;
  OpId op;
  OpKind kind;
  Micros time;
  bool concurrent = false;
};

class NearMissProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NearMissProperty, MatchesNaiveModel) {
  Config cfg;
  cfg.nearmiss_window_us = 500;
  cfg.nearmiss_history = 4;
  NearMissTracker tracker(cfg);

  std::map<ObjectId, std::deque<RefRecord>> model;
  Rng rng(GetParam());
  Micros now = 0;

  for (int step = 0; step < 3000; ++step) {
    now += static_cast<Micros>(rng.NextBelow(300));
    Access access;
    access.tid = static_cast<ThreadId>(1 + rng.NextBelow(3));
    access.obj = 0x1000 + rng.NextBelow(4) * 1024;  // few objects, same shard domain
    access.op = static_cast<OpId>(rng.NextBelow(16));
    access.kind = rng.NextBool(0.4) ? OpKind::kWrite : OpKind::kRead;
    access.time = now;
    access.concurrent_phase = rng.NextBool(0.5);

    // Reference: scan the object's (bounded) history with the same rule.
    std::multiset<OpId> expected;
    auto& history = model[access.obj];
    for (const RefRecord& rec : history) {
      if (rec.tid != access.tid && KindsConflict(rec.kind, access.kind) &&
          access.time - rec.time <= cfg.nearmiss_window_us) {
        expected.insert(rec.op);
      }
    }
    history.push_back(RefRecord{access.tid, access.op, access.kind, access.time});
    if (static_cast<int>(history.size()) > cfg.nearmiss_history) {
      history.pop_front();
    }

    std::multiset<OpId> actual;
    for (const auto& miss : tracker.RecordAndFindConflicts(access)) {
      actual.insert(miss.other_op);
    }
    ASSERT_EQ(actual, expected) << "step " << step;
  }
}

// Many objects and time jumps past 8x the window: sweeps return stale objects'
// blocks to the pool, later objects (and swept objects that come back) reuse
// them, and the index grows several times. Runs of one thread on one object, some
// longer than the ring and some one short of it, drive the same-thread path that
// skips the scan, including on recycled blocks. The reference model keeps every
// history forever; a sweep may only drop records that can never again be within
// the window, so the reported conflicts must still match it exactly, in order.
TEST_P(NearMissProperty, MatchesNaiveModelThroughSweepsAndGrowth) {
  Config cfg;
  cfg.nearmiss_window_us = 500;
  cfg.nearmiss_history = 3;
  NearMissTracker tracker(cfg);

  std::map<ObjectId, std::deque<RefRecord>> model;
  Rng rng(GetParam());
  Micros now = 0;
  size_t peak_tracked = 0;
  int run_left = 0;  // accesses left in the current single-thread run
  Access run;

  for (int step = 0; step < 100'000; ++step) {
    now += static_cast<Micros>(rng.NextBelow(40));
    if (rng.NextBelow(2000) == 0) {
      now += 9 * cfg.nearmiss_window_us;  // everything recorded so far goes stale
    }
    Access access;
    access.tid = static_cast<ThreadId>(1 + rng.NextBelow(3));
    // A hot pool that keeps forming near misses; a warm pool whose objects are
    // touched about once per window, so a sweep finds some of them with their
    // newest record just inside the window; and a wide range of objects touched a
    // few times each, which go stale, are swept and come back later.
    const uint64_t pick = rng.NextBelow(10);
    access.obj = pick < 3   ? 0x1000 + rng.NextBelow(6) * 64
                 : pick < 6 ? 0x2000 + rng.NextBelow(8) * 64
                            : 0x100000 + rng.NextBelow(20'000) * 64;
    if (run_left > 0) {
      --run_left;
      access.tid = run.tid;
      access.obj = run.obj;
    } else if (rng.NextBelow(40) == 0) {
      run_left = static_cast<int>(rng.NextBelow(3 * cfg.nearmiss_history + 2));
      run = access;
    }
    access.op = static_cast<OpId>(rng.NextBelow(16));
    access.kind = rng.NextBool(0.4) ? OpKind::kWrite : OpKind::kRead;
    access.time = now;
    access.concurrent_phase = rng.NextBool(0.5);

    std::vector<std::pair<OpId, bool>> expected;
    auto& history = model[access.obj];
    for (const RefRecord& rec : history) {
      if (rec.tid != access.tid && KindsConflict(rec.kind, access.kind) &&
          access.time - rec.time <= cfg.nearmiss_window_us) {
        expected.emplace_back(rec.op, rec.concurrent);
      }
    }
    history.push_back(RefRecord{access.tid, access.op, access.kind, access.time,
                                access.concurrent_phase});
    if (static_cast<int>(history.size()) > cfg.nearmiss_history) {
      history.pop_front();
    }

    std::vector<std::pair<OpId, bool>> actual;
    for (const auto& miss : tracker.RecordAndFindConflicts(access)) {
      actual.emplace_back(miss.other_op, miss.other_concurrent);
    }
    ASSERT_EQ(actual, expected) << "step " << step;
    peak_tracked = std::max(peak_tracked, tracker.TrackedObjects());
  }
  // The index grew far past its initial size, and sweeps released objects.
  EXPECT_GT(peak_tracked, 1000u);
  EXPECT_LT(tracker.TrackedObjects(), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NearMissProperty, ::testing::Values(3, 17, 2029, 777));

}  // namespace
}  // namespace tsvd
