// Edge-case and paper-parameter tests.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/common/config.h"
#include "src/core/hb_inference.h"
#include "src/core/phase_detector.h"
#include "src/core/tsvd_detector.h"
#include "tests/core/timeline_access.h"

namespace tsvd {
namespace {

// The defaults of Config are the paper's deployed settings (Section 5.4): changing
// them accidentally would silently re-tune every experiment.
TEST(ConfigDefaultsTest, MatchPaperSection54) {
  const Config cfg;
  EXPECT_EQ(cfg.nearmiss_history, 5);           // N_nm
  EXPECT_EQ(cfg.nearmiss_window_us, 100'000);   // T_nm = 100ms
  EXPECT_EQ(cfg.phase_buffer_size, 16);         // global history buffer
  EXPECT_DOUBLE_EQ(cfg.hb_blocking_threshold, 0.5);  // delta_hb
  EXPECT_EQ(cfg.hb_inference_window, 5);        // k_hb
  EXPECT_EQ(cfg.delay_us, 100'000);             // 100ms delay
  EXPECT_DOUBLE_EQ(cfg.dynamic_random_probability, 0.05);
  EXPECT_FALSE(cfg.disable_hb_inference);
  EXPECT_FALSE(cfg.disable_nearmiss_window);
  EXPECT_FALSE(cfg.disable_phase_detection);
  EXPECT_FALSE(cfg.serialize_delays);
}

Access At(ThreadTimelines& timelines, ThreadId tid, OpId op, Micros t) {
  Access a;
  a.tid = tid;
  a.obj = 0x10;
  a.op = op;
  a.kind = OpKind::kWrite;
  a.time = t;
  a.concurrent_phase = true;
  return Entered(timelines, a);
}

// The finished-delay ring holds 128 entries; ancient delays must stop matching after
// being overwritten.
TEST(HbInferenceEdgeTest, DelayRingOverwritesOldEntries) {
  Config cfg;
  cfg.delay_us = 1000;
  TrapSet traps(cfg);
  traps.AddPair(1, 2);
  HbInference hb(cfg, traps);
  ThreadTimelines timelines;

  hb.OnAccess(At(timelines, 2, 2, 900));
  // The interesting delay at op 1...
  hb.OnDelayFinished(At(timelines, 1, 1, 1000), DelayOutcome{1000, 2000, false});
  // ...then 200 more delays from thread 3 at op 7, flushing the ring. None of them
  // overlaps thread 2's gap window [900, 2100].
  for (int i = 0; i < 200; ++i) {
    const Micros t = 10'000 + i * 10;
    hb.OnDelayFinished(At(timelines, 3, 7, t), DelayOutcome{t, t + 5, false});
  }
  hb.OnAccess(At(timelines, 2, 2, 2100));
  EXPECT_EQ(hb.InferredEdges(), 0u);  // the op-1 delay record is gone
  EXPECT_EQ(traps.PairCount(), 1u);
}

TEST(HbInferenceEdgeTest, ZeroThresholdInfersAggressively) {
  // delta_hb = 0 means every gap overlapping a delay infers HB — the paper's
  // Fig. 9(d) pathology ("a value too small like 0 infers many non-existing HB
  // relationships, and hence misses many bugs").
  Config cfg;
  cfg.delay_us = 1000;
  cfg.hb_blocking_threshold = 0.0;
  TrapSet traps(cfg);
  traps.AddPair(1, 2);
  HbInference hb(cfg, traps);
  ThreadTimelines timelines;
  hb.OnAccess(At(timelines, 2, 2, 900));
  hb.OnDelayFinished(At(timelines, 1, 1, 950), DelayOutcome{950, 1000, false});
  // Tiny gap, but it overlaps the delay: inferred.
  hb.OnAccess(At(timelines, 2, 2, 1050));
  EXPECT_EQ(hb.InferredEdges(), 1u);
}

TEST(PhaseDetectorStressTest, ConcurrentRecordingIsSafeAndDetects) {
  PhaseDetector phase(16);
  std::atomic<int> concurrent_seen{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&phase, &concurrent_seen, t] {
      for (int i = 0; i < 10'000; ++i) {
        if (phase.RecordAndCheck(static_cast<ThreadId>(t + 1))) {
          concurrent_seen.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_GT(concurrent_seen.load(), 0);
}

// Concurrent OnCall stress on a full TsvdDetector: decisions under contention must
// neither crash nor corrupt the trap set.
TEST(TsvdDetectorStressTest, ConcurrentOnCallsAreSafe) {
  Config cfg;
  cfg.delay_us = 0;  // decisions only
  cfg.nearmiss_window_us = 1'000'000;
  TsvdDetector detector(cfg);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&detector, t] {
      for (int i = 0; i < 5'000; ++i) {
        Access a;
        a.tid = static_cast<ThreadId>(t + 1);
        a.obj = 0x100 + (i % 8);
        a.op = static_cast<OpId>(i % 32);
        a.kind = i % 3 == 0 ? OpKind::kWrite : OpKind::kRead;
        a.time = NowMicros();
        a.concurrent_phase = true;
        (void)detector.OnCall(a);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  // The trap set holds *some* pairs (conflicts certainly occurred) and the export is
  // internally consistent.
  EXPECT_GT(detector.TrapSetSize(), 0u);
}

}  // namespace
}  // namespace tsvd
