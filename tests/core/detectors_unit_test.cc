// Unit tests driving detectors directly with synthetic access streams (no Runtime,
// no actual sleeping: decisions only).
#include <gtest/gtest.h>

#include <vector>

#include "src/common/callsite.h"
#include "src/core/random_detectors.h"
#include "src/core/tsvd_detector.h"
#include "tests/core/timeline_access.h"

namespace tsvd {
namespace {

Access At(ThreadId tid, ObjectId obj, OpId op, OpKind kind, Micros t,
          bool concurrent = true) {
  Access a;
  a.tid = tid;
  a.obj = obj;
  a.op = op;
  a.kind = kind;
  a.time = t;
  a.ctx = tid;
  a.concurrent_phase = concurrent;
  return a;
}

Config UnitConfig() {
  Config cfg;
  cfg.delay_us = 1000;
  cfg.nearmiss_window_us = 1000;
  cfg.seed = 3;
  return cfg;
}

TEST(TsvdDetectorTest, NearMissArmsPairAndDelaysNextOccurrence) {
  TsvdDetector detector(UnitConfig());
  EXPECT_FALSE(detector.OnCall(At(1, 0x10, 1, OpKind::kWrite, 0)).inject);
  // Conflicting near miss from another thread arms the pair {1, 2}.
  detector.OnCall(At(2, 0x10, 2, OpKind::kWrite, 500));
  EXPECT_EQ(detector.TrapSetSize(), 1u);
  // With P=1, the next occurrence of either location must inject.
  EXPECT_TRUE(detector.OnCall(At(1, 0x10, 1, OpKind::kWrite, 1000)).inject);
}

TEST(TsvdDetectorTest, SequentialPhaseNearMissDoesNotArm) {
  TsvdDetector detector(UnitConfig());
  detector.OnCall(At(1, 0x10, 1, OpKind::kWrite, 0, /*concurrent=*/false));
  detector.OnCall(At(2, 0x10, 2, OpKind::kWrite, 500, /*concurrent=*/false));
  EXPECT_EQ(detector.TrapSetSize(), 0u);
}

TEST(TsvdDetectorTest, EitherEndpointConcurrentSuffices) {
  TsvdDetector detector(UnitConfig());
  detector.OnCall(At(1, 0x10, 1, OpKind::kWrite, 0, /*concurrent=*/false));
  detector.OnCall(At(2, 0x10, 2, OpKind::kWrite, 500, /*concurrent=*/true));
  EXPECT_EQ(detector.TrapSetSize(), 1u);
}

TEST(TsvdDetectorTest, PhaseAblationTreatsEverythingConcurrent) {
  Config cfg = UnitConfig();
  cfg.disable_phase_detection = true;
  TsvdDetector detector(cfg);
  detector.OnCall(At(1, 0x10, 1, OpKind::kWrite, 0, false));
  detector.OnCall(At(2, 0x10, 2, OpKind::kWrite, 500, false));
  EXPECT_EQ(detector.TrapSetSize(), 1u);
}

TEST(TsvdDetectorTest, ViolationPrunesThePair) {
  TsvdDetector detector(UnitConfig());
  detector.OnCall(At(1, 0x10, 1, OpKind::kWrite, 0));
  detector.OnCall(At(2, 0x10, 2, OpKind::kWrite, 500));
  detector.OnViolation(At(1, 0x10, 1, OpKind::kWrite, 1000),
                       At(2, 0x10, 2, OpKind::kWrite, 1001));
  EXPECT_EQ(detector.TrapSetSize(), 0u);
  EXPECT_FALSE(detector.OnCall(At(1, 0x10, 1, OpKind::kWrite, 2000)).inject);
}

TEST(TsvdDetectorTest, FailedDelaysDecayUntilLocationDrops) {
  Config cfg = UnitConfig();
  cfg.decay_factor = 0.7;
  cfg.min_probability = 0.2;
  TsvdDetector detector(cfg);
  detector.OnCall(At(1, 0x10, 1, OpKind::kWrite, 0));
  detector.OnCall(At(2, 0x10, 2, OpKind::kWrite, 500));
  ASSERT_EQ(detector.TrapSetSize(), 1u);
  // Two failures: 1.0 -> 0.3 -> 0.09 < 0.2 -> pair leaves the trap set.
  detector.OnDelayFinished(At(1, 0x10, 1, OpKind::kWrite, 1000),
                           DelayOutcome{1000, 2000, false});
  detector.OnDelayFinished(At(1, 0x10, 1, OpKind::kWrite, 3000),
                           DelayOutcome{3000, 4000, false});
  EXPECT_EQ(detector.TrapSetSize(), 0u);
}

TEST(TsvdDetectorTest, SuccessfulDelayDoesNotDecay) {
  TsvdDetector detector(UnitConfig());
  detector.OnCall(At(1, 0x10, 1, OpKind::kWrite, 0));
  detector.OnCall(At(2, 0x10, 2, OpKind::kWrite, 500));
  detector.OnDelayFinished(At(1, 0x10, 1, OpKind::kWrite, 1000),
                           DelayOutcome{1000, 2000, true});
  EXPECT_EQ(detector.TrapSetSize(), 1u);
  EXPECT_TRUE(detector.OnCall(At(1, 0x10, 1, OpKind::kWrite, 3000)).inject);
}

TEST(TsvdDetectorTest, TrapFilePreArmsFirstOccurrence) {
  auto& registry = CallSiteRegistry::Instance();
  const OpId op_a = registry.InternRaw("du.cc", 1, "Dictionary.Set", OpKind::kWrite);
  const OpId op_b = registry.InternRaw("du.cc", 2, "Dictionary.Set", OpKind::kWrite);

  // Run 1: discover the pair.
  TsvdDetector first(UnitConfig());
  first.OnCall(At(1, 0x10, op_a, OpKind::kWrite, 0));
  first.OnCall(At(2, 0x10, op_b, OpKind::kWrite, 500));
  const TrapFile file = first.ExportTrapFile();
  ASSERT_FALSE(file.empty());

  // Run 2: the very first occurrence is already eligible.
  TsvdDetector second(UnitConfig());
  second.ImportTrapFile(file);
  EXPECT_TRUE(second.OnCall(At(1, 0x99, op_a, OpKind::kWrite, 0)).inject);
}

TEST(TsvdDetectorTest, HbInferencePreventsArming) {
  TsvdDetector detector(UnitConfig());
  // HB inference reads each thread's timeline, which the runtime provides.
  ThreadTimelines timelines;
  // Arm then fail a delay so the delay is on record.
  detector.OnCall(Entered(timelines, At(1, 0x10, 1, OpKind::kWrite, 0)));
  detector.OnCall(Entered(timelines, At(2, 0x10, 2, OpKind::kWrite, 100)));
  detector.OnDelayFinished(Entered(timelines, At(1, 0x10, 1, OpKind::kWrite, 1000)),
                           DelayOutcome{1000, 2000, false});
  // Thread 2 stalls across that delay and then touches op 2: edge inferred, pair gone.
  detector.OnCall(Entered(timelines, At(2, 0x10, 2, OpKind::kWrite, 2100)));
  EXPECT_EQ(detector.InferredHbEdges(), 1u);
  EXPECT_EQ(detector.TrapSetSize(), 0u);
}

// ThreadIds are dense and never reused, so the 4096th thread a process creates has
// no per-thread slot. Such a thread must still get decisions (from a fallback RNG
// stream, deterministic per seed) and HB bookkeeping must skip it; the id is
// passed in directly instead of creating thousands of threads.
TEST(TsvdDetectorTest, ThreadIdPastSlotCapacityStillDecides) {
  constexpr ThreadId kFar = 5000;
  auto run = [] {
    TsvdDetector detector(UnitConfig());
    detector.OnCall(At(kFar, 0x10, 1, OpKind::kWrite, 0));
    detector.OnCall(At(kFar + 1, 0x10, 2, OpKind::kWrite, 500));
    EXPECT_EQ(detector.TrapSetSize(), 1u);
    std::vector<bool> decisions;
    Micros t = 1000;
    for (int i = 0; i < 20; ++i, t += 3000) {
      const Access access = At(kFar, 0x10, 1, OpKind::kWrite, t);
      const DelayDecision decision = detector.OnCall(access);
      decisions.push_back(decision.inject);
      if (decision.inject) {
        detector.OnDelayFinished(access, DelayOutcome{t, t + 1000, false});
      }
    }
    return decisions;
  };
  const std::vector<bool> first = run();
  EXPECT_TRUE(first[0]);  // P = 1 right after the pair is armed
  EXPECT_EQ(run(), first);
}

TEST(DynamicRandomTest, FiresAtConfiguredRate) {
  Config cfg = UnitConfig();
  cfg.dynamic_random_probability = 0.1;
  DynamicRandomDetector detector(cfg);
  int fired = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (detector.OnCall(At(1, 0x10, 1, OpKind::kWrite, i)).inject) {
      ++fired;
    }
  }
  EXPECT_NEAR(static_cast<double>(fired) / n, 0.1, 0.02);
}

TEST(DynamicRandomTest, DelayLengthWithinBounds) {
  Config cfg = UnitConfig();
  cfg.dynamic_random_probability = 1.0;
  DynamicRandomDetector detector(cfg);
  for (int i = 0; i < 200; ++i) {
    const DelayDecision d = detector.OnCall(At(1, 0x10, 1, OpKind::kWrite, i));
    ASSERT_TRUE(d.inject);
    EXPECT_GE(d.duration_us, 1);
    EXPECT_LE(d.duration_us, cfg.delay_us);
  }
}

TEST(StaticRandomTest, UnsampledSitesNeverFire) {
  Config cfg = UnitConfig();
  cfg.static_random_site_prob = 0.0;
  StaticRandomDetector detector(cfg);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(detector.OnCall(At(1, 0x10, static_cast<OpId>(i % 8), OpKind::kWrite, i))
                     .inject);
  }
}

TEST(StaticRandomTest, SampledSiteFiringDecaysWithHitCount) {
  Config cfg = UnitConfig();
  cfg.static_random_site_prob = 1.0;  // every site sampled
  cfg.static_random_quota = 2.0;
  StaticRandomDetector detector(cfg);
  // First two hits fire with probability 1 (quota/h >= 1).
  EXPECT_TRUE(detector.OnCall(At(1, 0x10, 5, OpKind::kWrite, 0)).inject);
  EXPECT_TRUE(detector.OnCall(At(1, 0x10, 5, OpKind::kWrite, 1)).inject);
  // Later hits fire with diminishing probability: count over many hits.
  int fired = 0;
  for (int i = 0; i < 5000; ++i) {
    fired += detector.OnCall(At(1, 0x10, 5, OpKind::kWrite, i + 2)).inject ? 1 : 0;
  }
  // Expected about quota * ln(5000/2) ~ 15; far below 5000 (hot site not oversampled).
  EXPECT_LT(fired, 100);
  EXPECT_GT(fired, 2);
}

TEST(StaticRandomTest, SamplingIsDeterministicPerSeedAndSite) {
  Config cfg = UnitConfig();
  cfg.static_random_site_prob = 0.5;
  StaticRandomDetector a(cfg);
  StaticRandomDetector b(cfg);
  for (OpId op = 0; op < 32; ++op) {
    const bool fa = a.OnCall(At(1, 0x10, op, OpKind::kWrite, op)).inject;
    const bool fb = b.OnCall(At(1, 0x10, op, OpKind::kWrite, op)).inject;
    EXPECT_EQ(fa, fb) << "site " << op;
  }
}

}  // namespace
}  // namespace tsvd
