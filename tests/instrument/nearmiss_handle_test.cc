// Instrumented containers carry a near-miss handle that outlives any one Runtime.
// Under a later Runtime the number it holds names nothing, or a block of some other
// object; either way the container must form the same near misses as a fresh one.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/runtime.h"
#include "src/core/tsvd_detector.h"
#include "src/instrument/dictionary.h"
#include "src/instrument/list.h"

namespace tsvd {
namespace {

// One Runtime's run over `list`: each of two threads adds to it, one after the
// other, inside one near-miss window. With `decoy` set, another container is
// touched first, so it takes the tracker's first block. Returns the dangerous pairs
// the run found.
uint64_t PairsFromTwoWriters(List<int>& list, bool decoy) {
  Config cfg;
  cfg.delay_us = 0;                    // decide, never park
  cfg.nearmiss_window_us = 60'000'000;  // thread start-up never leaves the window
  auto owned = std::make_unique<TsvdDetector>(cfg);
  TsvdDetector* detector = owned.get();
  Runtime runtime(cfg, std::move(owned));
  Runtime::Installation install(runtime);
  Dictionary<int, int> other;
  if (decoy) {
    other.Set(1, 1);
  }
  std::thread([&list] { list.Add(1); }).join();
  std::thread([&list] { list.Add(2); }).join();
  return detector->trap_set().PairCount();
}

TEST(NearMissHandleRuntimeTest, ContainerOutlivingItsRuntimeFormsTheSameNearMisses) {
  for (bool decoy : {false, true}) {
    SCOPED_TRACE(std::string("decoy ") + (decoy ? "first" : "absent"));
    List<int> fresh;
    const uint64_t expected = PairsFromTwoWriters(fresh, decoy);
    ASSERT_EQ(expected, 1u);

    List<int> reused;
    PairsFromTwoWriters(reused, false);  // Runtime 1, destroyed on return
    EXPECT_EQ(PairsFromTwoWriters(reused, decoy), expected);
    EXPECT_EQ(PairsFromTwoWriters(reused, decoy), expected);
    EXPECT_EQ(reused.Count(), 6u);
  }
}

// Handles are read and rewritten by racing container calls: four threads on shared
// lists, each also touching its own stream of lists twice, half a stream apart.
// By the second touch, sweeps (a 1 us window makes every list stale at once) have
// freed most of those lists' blocks and handed them to newer lists, so the second
// touch goes through a stale handle. Meant for TSan; the counts check that no call
// was lost.
TEST(NearMissHandleRuntimeTest, RacingCallsThroughStaleAndSharedHandlesStaySound) {
  Config cfg;
  cfg.delay_us = 0;
  cfg.nearmiss_window_us = 1;
  Runtime runtime(cfg, std::make_unique<TsvdDetector>(cfg));
  Runtime::Installation install(runtime);
  constexpr int kThreads = 4;
  constexpr int kCalls = 6000;
  List<int> shared[4];
  std::atomic<int> wrong_counts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &wrong_counts] {
      std::unique_ptr<List<int>[]> lists(new List<int>[kCalls]);
      for (int i = 0; i < kCalls; ++i) {
        shared[i % 4].Add(i);
        lists[i].Add(i);
        lists[(i + kCalls / 2) % kCalls].Add(i);
      }
      for (int i = 0; i < kCalls; ++i) {
        wrong_counts.fetch_add(lists[i].Count() != 2 ? 1 : 0);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  size_t total = 0;
  for (List<int>& list : shared) {
    total += list.Count();
  }
  EXPECT_EQ(total, size_t{kThreads} * kCalls);
  EXPECT_EQ(wrong_counts.load(), 0);
}

}  // namespace
}  // namespace tsvd
