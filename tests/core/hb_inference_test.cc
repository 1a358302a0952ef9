// Unit tests for HB inference (Section 3.4.4): a delay at loc1 causing a
// proportional, overlapping stall before loc2 infers loc1 -> loc2.
#include <gtest/gtest.h>

#include "src/core/hb_inference.h"
#include "tests/core/timeline_access.h"

namespace tsvd {
namespace {

Config HbConfig(double threshold = 0.5, int window = 5) {
  Config cfg;
  cfg.delay_us = 1000;
  cfg.hb_blocking_threshold = threshold;
  cfg.hb_inference_window = window;
  return cfg;
}

// Each access enters its thread's timeline at its time, as the runtime's OnCall
// does; the delaying access passed to OnDelayFinished is the call that armed it.
class Timelines {
 protected:
  Access At(ThreadId tid, OpId op, Micros t) {
    Access a;
    a.tid = tid;
    a.obj = 0x10;
    a.op = op;
    a.kind = OpKind::kWrite;
    a.time = t;
    return Entered(timelines_, a);
  }

 private:
  ThreadTimelines timelines_;
};

class HbInferenceTest : public ::testing::Test, protected Timelines {};

// Thread 1 delays at op 1 during [1000, 2000]; thread 2, whose previous access was at
// t=900, accesses op 2 at t=2100 — a 1200us stall overlapping the delay.
TEST_F(HbInferenceTest, StallOverlappingDelayInfersEdge) {
  const Config cfg = HbConfig();
  TrapSet traps(cfg);
  traps.AddPair(1, 2);
  HbInference hb(cfg, traps);

  hb.OnAccess(At(2, 2, 900));
  hb.OnDelayFinished(At(1, 1, 1000), DelayOutcome{1000, 2000, false});
  hb.OnAccess(At(2, 2, 2100));

  EXPECT_EQ(hb.InferredEdges(), 1u);
  EXPECT_TRUE(traps.WasHbPruned(1, 2));
  EXPECT_EQ(traps.PairCount(), 0u);
}

// A ThreadId past the per-thread slot capacity (4096) has no timeline: its own
// stalls infer nothing, but the delays it injects still explain other threads'
// stalls. The id is passed in directly instead of creating thousands of threads.
TEST_F(HbInferenceTest, ThreadIdPastSlotCapacityIsSkippedNotOverrun) {
  constexpr ThreadId kFar = 5000;
  const Config cfg = HbConfig();
  TrapSet traps(cfg);
  traps.AddPair(1, 3);
  traps.AddPair(4, 2);
  HbInference hb(cfg, traps);

  hb.OnAccess(At(kFar, 3, 900));
  hb.OnAccess(At(2, 2, 900));
  hb.OnDelayFinished(At(1, 1, 1000), DelayOutcome{1000, 2000, false});
  hb.OnAccess(At(kFar, 3, 2100));  // would infer 1 -> 3 with a timeline
  EXPECT_EQ(hb.InferredEdges(), 0u);
  EXPECT_FALSE(traps.WasHbPruned(1, 3));

  hb.OnDelayFinished(At(kFar, 4, 2200), DelayOutcome{2200, 3200, false});
  hb.OnAccess(At(2, 2, 3300));  // the latest delay in the gap is kFar's
  EXPECT_EQ(hb.InferredEdges(), 1u);
  EXPECT_TRUE(traps.WasHbPruned(4, 2));
}

TEST_F(HbInferenceTest, ShortGapDoesNotInfer) {
  const Config cfg = HbConfig(0.5);  // threshold 500us
  TrapSet traps(cfg);
  traps.AddPair(1, 2);
  HbInference hb(cfg, traps);

  hb.OnAccess(At(2, 2, 1900));
  hb.OnDelayFinished(At(1, 1, 1000), DelayOutcome{1000, 2000, false});
  hb.OnAccess(At(2, 2, 2200));  // gap 300 < 500

  EXPECT_EQ(hb.InferredEdges(), 0u);
  EXPECT_EQ(traps.PairCount(), 1u);
}

TEST_F(HbInferenceTest, GapNotOverlappingDelayDoesNotInfer) {
  const Config cfg = HbConfig();
  TrapSet traps(cfg);
  traps.AddPair(1, 2);
  HbInference hb(cfg, traps);

  hb.OnDelayFinished(At(1, 1, 0), DelayOutcome{0, 1000, false});
  hb.OnAccess(At(2, 2, 1500));  // first access: establishes the timeline
  hb.OnAccess(At(2, 2, 3000));  // gap 1500, but the delay ended before it began

  EXPECT_EQ(hb.InferredEdges(), 0u);
}

TEST_F(HbInferenceTest, OwnDelayIsNotACausalStall) {
  const Config cfg = HbConfig();
  TrapSet traps(cfg);
  traps.AddPair(1, 2);
  HbInference hb(cfg, traps);

  // Thread 2 itself was delayed; its next access must not self-infer.
  hb.OnAccess(At(2, 2, 900));
  hb.OnDelayFinished(At(2, 1, 1000), DelayOutcome{1000, 2000, false});
  hb.OnAccess(At(2, 2, 2100));

  EXPECT_EQ(hb.InferredEdges(), 0u);
  EXPECT_EQ(traps.PairCount(), 1u);
}

// Thread 2 sleeps through its own delay [1000, 2000] while thread 1's delay ends
// inside it. Thread 2's next gap starts at its own delay's end, so the sleep is
// not read as a stall caused by thread 1.
TEST_F(HbInferenceTest, OwnSleepHidesAPeerDelayEndingInsideIt) {
  const Config cfg = HbConfig();
  TrapSet traps(cfg);
  traps.AddPair(1, 2);
  HbInference hb(cfg, traps);

  const Access armed = At(2, 3, 1000);  // the call that arms thread 2's delay
  hb.OnAccess(armed);
  hb.OnDelayFinished(At(1, 1, 1100), DelayOutcome{1100, 1500, false});
  hb.OnDelayFinished(armed, DelayOutcome{1000, 2000, false});
  hb.OnAccess(At(2, 2, 2100));  // 100us after its own delay: no stall

  EXPECT_EQ(hb.InferredEdges(), 0u);
  EXPECT_EQ(traps.PairCount(), 1u);
}

// An old delay of thread 2 does not stretch a later gap back: the gap starts at
// its previous call when that came after the delay's end.
TEST_F(HbInferenceTest, GapStartsAtPreviousCallAfterAnOldOwnDelay) {
  const Config cfg = HbConfig();
  TrapSet traps(cfg);
  traps.AddPair(1, 2);
  HbInference hb(cfg, traps);

  const Access armed = At(2, 3, 1000);
  hb.OnAccess(armed);
  hb.OnDelayFinished(armed, DelayOutcome{1000, 2000, false});
  hb.OnAccess(At(2, 3, 3000));
  hb.OnDelayFinished(At(1, 1, 2200), DelayOutcome{2200, 2500, false});
  hb.OnAccess(At(2, 2, 4200));  // thread 1's delay ended before the gap [3000, 4200]

  EXPECT_EQ(hb.InferredEdges(), 0u);
  EXPECT_EQ(traps.PairCount(), 1u);
}

TEST_F(HbInferenceTest, TransitivityCreditsPruneFollowingAccesses) {
  const Config cfg = HbConfig(0.5, /*window=*/2);
  TrapSet traps(cfg);
  traps.AddPair(1, 2);
  traps.AddPair(1, 3);
  traps.AddPair(1, 4);
  traps.AddPair(1, 5);
  HbInference hb(cfg, traps);

  hb.OnAccess(At(2, 2, 900));
  hb.OnDelayFinished(At(1, 1, 1000), DelayOutcome{1000, 2000, false});
  hb.OnAccess(At(2, 2, 2100));  // inference: prunes (1,2), grants 2 credits
  hb.OnAccess(At(2, 3, 2150));  // credit 1: prunes (1,3)
  hb.OnAccess(At(2, 4, 2200));  // credit 2: prunes (1,4)
  hb.OnAccess(At(2, 5, 2250));  // credits exhausted: (1,5) survives

  EXPECT_TRUE(traps.WasHbPruned(1, 2));
  EXPECT_TRUE(traps.WasHbPruned(1, 3));
  EXPECT_TRUE(traps.WasHbPruned(1, 4));
  EXPECT_FALSE(traps.WasHbPruned(1, 5));
  EXPECT_EQ(traps.PairCount(), 1u);
}

TEST_F(HbInferenceTest, MostRecentlyFinishedDelayWins) {
  const Config cfg = HbConfig();
  TrapSet traps(cfg);
  traps.AddPair(1, 9);
  traps.AddPair(7, 9);
  HbInference hb(cfg, traps);

  hb.OnAccess(At(2, 9, 900));
  hb.OnDelayFinished(At(1, 1, 950), DelayOutcome{950, 1500, false});
  hb.OnDelayFinished(At(3, 7, 1000), DelayOutcome{1000, 1900, false});
  hb.OnAccess(At(2, 9, 2100));

  // Both delays overlap the gap; the later-finishing one (op 7) gets the credit.
  EXPECT_TRUE(traps.WasHbPruned(7, 9));
  EXPECT_FALSE(traps.WasHbPruned(1, 9));
}

class HbThresholds : public ::testing::TestWithParam<double>, protected Timelines {};

TEST_P(HbThresholds, GapMustExceedThresholdTimesDelay) {
  const double threshold = GetParam();
  const Config cfg = HbConfig(threshold);
  TrapSet traps(cfg);
  traps.AddPair(1, 2);
  HbInference hb(cfg, traps);

  const Micros gap = 600;  // fixed stall of 600us against delay_us = 1000
  hb.OnAccess(At(2, 2, 1400));
  hb.OnDelayFinished(At(1, 1, 1000), DelayOutcome{1000, 2000, false});
  hb.OnAccess(At(2, 2, 1400 + gap));

  const bool expect_inferred = threshold > 0 && gap >= threshold * cfg.delay_us;
  EXPECT_EQ(hb.InferredEdges() == 1, expect_inferred) << "threshold=" << threshold;
}

INSTANTIATE_TEST_SUITE_P(Sweep, HbThresholds, ::testing::Values(0.1, 0.3, 0.5, 0.8));

}  // namespace
}  // namespace tsvd
