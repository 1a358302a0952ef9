// Tests for per-request delay budgets and request-context propagation (Section 4,
// runtime feature (2): "limit the maximum delay per thread or request"), plus
// property tests for the delay governor: across randomized schedules, injected
// delay per thread never exceeds the configured budget and never exceeds
// max_overhead_pct of wall time.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/request_context.h"
#include "src/core/delay_engine.h"
#include "src/core/runtime.h"
#include "src/tasks/task.h"

namespace tsvd {
namespace {

class AlwaysDelayDetector : public Detector {
 public:
  explicit AlwaysDelayDetector(Micros delay) : delay_(delay) {}
  std::string name() const override { return "always-delay"; }
  DelayDecision OnCall(const Access&) override { return DelayDecision{true, delay_}; }

 private:
  Micros delay_;
};

TEST(RequestContextTest, ScopesNestAndRestore) {
  EXPECT_EQ(CurrentRequest(), kNoRequest);
  {
    RequestScope outer;
    EXPECT_EQ(CurrentRequest(), outer.id());
    {
      RequestScope inner;
      EXPECT_EQ(CurrentRequest(), inner.id());
      EXPECT_NE(inner.id(), outer.id());
    }
    EXPECT_EQ(CurrentRequest(), outer.id());
  }
  EXPECT_EQ(CurrentRequest(), kNoRequest);
}

TEST(RequestContextTest, TasksInheritTheCreatingRequest) {
  RequestScope request;
  tasks::Task<RequestId> inherited =
      tasks::Run([] { return CurrentRequest(); });
  EXPECT_EQ(inherited.Result(), request.id());
  // Continuations inherit too.
  tasks::Task<RequestId> cont = inherited.ContinueWith(
      [](const RequestId&) { return CurrentRequest(); });
  EXPECT_EQ(cont.Result(), request.id());
}

TEST(RequestContextTest, TasksOutsideARequestCarryNone) {
  tasks::Task<RequestId> none = tasks::Run([] { return CurrentRequest(); });
  EXPECT_EQ(none.Result(), kNoRequest);
}

TEST(RequestBudgetTest, CapsDelayAcrossThreadsOfOneRequest) {
  Config cfg;
  cfg.max_delay_per_request_us = 5000;
  Runtime runtime(cfg, std::make_unique<AlwaysDelayDetector>(3000));

  RequestScope request;
  // Two sequential calls on behalf of the same request, from *different* threads:
  // the first 3ms delay fits; the second (3+3 > 5) must be skipped even though each
  // thread individually is under any per-thread cap.
  std::thread first([&, id = request.id()] {
    ScopedRequest scope(id);
    runtime.OnCall(0x10, 1, OpKind::kWrite);
  });
  first.join();
  std::thread second([&, id = request.id()] {
    ScopedRequest scope(id);
    runtime.OnCall(0x10, 1, OpKind::kWrite);
  });
  second.join();

  EXPECT_EQ(runtime.Summary().delays_injected, 1u);
}

TEST(RequestBudgetTest, ConcurrentThreadsOfOneRequestAreHeldToTheCap) {
  // Four threads of one request delay at the same moment on distinct objects: the
  // first 3 ms reservation fits under 5 ms, the other three must be refused at
  // admission, not after the first park has ended.
  constexpr int kThreads = 4;
  for (int trial = 0; trial < 5; ++trial) {
    Config cfg;
    cfg.stall_grace_us = 0;
    cfg.max_delay_per_request_us = 5000;
    Runtime runtime(cfg, std::make_unique<AlwaysDelayDetector>(3000));
    RequestScope request;
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t, id = request.id()] {
        ScopedRequest scope(id);
        ++ready;
        while (ready.load() < kThreads) {
        }
        runtime.OnCall(0x100 + t, static_cast<OpId>(t), OpKind::kWrite);
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    const RunSummary summary = runtime.Summary();
    EXPECT_EQ(summary.delays_injected, 1u) << "trial " << trial;
    EXPECT_EQ(summary.delays_skipped_budget, static_cast<uint64_t>(kThreads - 1))
        << "trial " << trial;
  }
}

TEST(RequestBudgetTest, EarlyWakeRefundsTheUnsleptTail) {
  // A 3 ms reservation woken at once leaves room for a second 3 ms delay of the
  // same request under a 5 ms cap.
  Config cfg;
  cfg.stall_grace_us = 0;
  cfg.max_delay_per_request_us = 5000;
  DelayEngine engine(cfg);
  const RequestId request = NewRequestId();
  ASSERT_TRUE(engine.Admit(1, 3000, request));
  std::atomic<bool> caught{true};  // the catch landed before the park began
  EXPECT_EQ(engine.Park(1, 7, 3000, &caught, request).reason, WakeReason::kCatchWake);
  EXPECT_TRUE(engine.Admit(2, 3000, request));
  engine.Park(2, 7, 3000, nullptr, request);
  EXPECT_FALSE(engine.Admit(3, 3000, request));
  EXPECT_TRUE(engine.Admit(3, 3000, NewRequestId()));  // another request: its own cap
  engine.Park(3, 7, 3000);
}

TEST(RequestBudgetTest, IndependentRequestsHaveIndependentBudgets) {
  Config cfg;
  cfg.max_delay_per_request_us = 4000;
  Runtime runtime(cfg, std::make_unique<AlwaysDelayDetector>(3000));
  for (int r = 0; r < 3; ++r) {
    RequestScope request;
    runtime.OnCall(0x10, 1, OpKind::kWrite);
  }
  EXPECT_EQ(runtime.Summary().delays_injected, 3u);
}

TEST(RequestBudgetTest, NoRequestMeansNoRequestCap) {
  Config cfg;
  cfg.max_delay_per_request_us = 1000;
  Runtime runtime(cfg, std::make_unique<AlwaysDelayDetector>(800));
  runtime.OnCall(0x10, 1, OpKind::kWrite);
  runtime.OnCall(0x10, 1, OpKind::kWrite);  // outside any request: uncapped
  EXPECT_EQ(runtime.Summary().delays_injected, 2u);
}

// ---------------------------------------------------------------------------
// Governor property tests (delay engine admission control)
// ---------------------------------------------------------------------------

// Across randomized schedules, no thread's admitted delay ever exceeds the
// per-thread budget. The governor reserves the *requested* duration at admission,
// so the invariant is exact in requested time: at most
// floor(budget / delay) injections per thread, regardless of interleaving.
TEST(DelayBudgetPropertyTest, PerThreadBudgetHoldsAcrossRandomSchedules) {
  constexpr Micros kDelay = 2'000;
  constexpr Micros kBudget = 9'000;  // 4 delays fit, the 5th must not
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 12;

  for (uint64_t round = 0; round < 3; ++round) {
    Config cfg;
    cfg.stall_grace_us = 0;
    cfg.max_delay_per_thread_us = kBudget;
    Runtime runtime(cfg, std::make_unique<AlwaysDelayDetector>(kDelay));

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937 rng(round * 100 + static_cast<uint64_t>(t));
        std::uniform_int_distribution<int> jitter(0, 500);
        for (int i = 0; i < kCallsPerThread; ++i) {
          SleepMicros(jitter(rng));
          runtime.OnCall(0x10 + t, static_cast<OpId>(t), OpKind::kWrite);
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }

    const RunSummary summary = runtime.Summary();
    // Each thread injects exactly floor(9ms / 2ms) = 4 delays; its remaining 8
    // calls are skipped. Requested-time accounting makes this deterministic.
    EXPECT_EQ(summary.delays_injected, static_cast<uint64_t>(kThreads * 4))
        << "round " << round;
    EXPECT_EQ(summary.delays_skipped_budget,
              static_cast<uint64_t>(kThreads * (kCallsPerThread - 4)))
        << "round " << round;
  }
}

// Across randomized schedules, admitted delay never exceeds max_overhead_pct of
// elapsed wall time. The admission invariant is
//   spent + reserved + d <= pct% * (elapsed + d)
// checked under the governor lock, so concurrent admissions cannot jointly
// overshoot; the slack in the assertion covers sleep overshoot (the OS may sleep
// longer than requested, and overshoot is real delay the governor only learns
// about at settle time).
TEST(DelayBudgetPropertyTest, OverheadCapBoundsInjectedDelayFraction) {
  constexpr Micros kDelay = 3'000;
  constexpr double kPct = 25.0;
  constexpr int kThreads = 3;
  constexpr int kCallsPerThread = 30;

  for (uint64_t round = 0; round < 2; ++round) {
    Config cfg;
    cfg.stall_grace_us = 0;
    cfg.max_overhead_pct = kPct;
    const Micros start = NowMicros();
    Runtime runtime(cfg, std::make_unique<AlwaysDelayDetector>(kDelay));

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::mt19937 rng(round * 100 + static_cast<uint64_t>(t) + 7);
        std::uniform_int_distribution<int> work(200, 1'500);
        for (int i = 0; i < kCallsPerThread; ++i) {
          SleepMicros(work(rng));  // "real" work between instrumented calls
          runtime.OnCall(0x10 + t, static_cast<OpId>(t), OpKind::kWrite);
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    const Micros wall = NowMicros() - start;

    const RunSummary summary = runtime.Summary();
    // The cap bit: a meaningful share of calls was refused.
    EXPECT_GT(summary.delays_skipped_budget, 0u) << "round " << round;
    EXPECT_GT(summary.delays_injected, 0u) << "round " << round;
    // Requested-time bound from the admission invariant: at most pct% of final
    // wall time, plus one in-flight delay per thread admitted against a wall
    // clock that kept running while it slept.
    const double requested =
        static_cast<double>(summary.delays_injected) * kDelay;
    EXPECT_LE(requested, kPct / 100.0 * static_cast<double>(wall) +
                             static_cast<double>(kThreads * kDelay))
        << "round " << round;
  }
}

}  // namespace
}  // namespace tsvd
