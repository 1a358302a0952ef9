// Call-site interning consistency across threads: every thread's per-thread memo must
// resolve the same static call site to the same OpId, or near-miss pairing and trap
// files would silently fragment.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/common/callsite.h"
#include "src/core/runtime.h"
#include "src/instrument/dictionary.h"
#include "src/instrument/instrument.h"
#include "src/tasks/task.h"
#include "src/tasks/task_runtime.h"

namespace tsvd {
namespace {

class OpCollector : public Detector {
 public:
  std::string name() const override { return "op-collector"; }
  DelayDecision OnCall(const Access& access) override {
    std::lock_guard<std::mutex> lock(mu_);
    ops_.insert(access.op);
    return DelayDecision{};
  }
  std::set<OpId> ops() {
    std::lock_guard<std::mutex> lock(mu_);
    return ops_;
  }

 private:
  std::mutex mu_;
  std::set<OpId> ops_;
};

TEST(InternTest, SameCallSiteSameOpIdAcrossThreads) {
  Config cfg;
  auto collector = std::make_unique<OpCollector>();
  OpCollector* raw = collector.get();
  Runtime runtime(cfg, std::move(collector));
  Runtime::Installation install(runtime);
  tasks::SetForceAsync(true);

  Dictionary<int, int> dict;
  auto touch = [&](int base) {
    for (int i = 0; i < 10; ++i) {
      dict.Set(base + i, i);  // exactly one static call site for all threads
    }
  };
  std::vector<tasks::Task<void>> tasks_list;
  for (int t = 0; t < 4; ++t) {
    tasks_list.push_back(tasks::Run([&touch, t] { touch(t * 100); }));
  }
  tasks::WaitAll(tasks_list);
  tasks::SetForceAsync(false);

  EXPECT_EQ(raw->ops().size(), 1u);  // four threads, one OpId
}

TEST(InternTest, SignatureStableAcrossRuntimes) {
  // Two separate runtimes in the same process see the same OpId for the same site —
  // the property trap-file import relies on within a test session.
  std::set<OpId> first_ops;
  std::set<OpId> second_ops;
  for (std::set<OpId>* target : {&first_ops, &second_ops}) {
    Config cfg;
    auto collector = std::make_unique<OpCollector>();
    OpCollector* raw = collector.get();
    Runtime runtime(cfg, std::move(collector));
    Runtime::Installation install(runtime);
    Dictionary<int, int> dict;
    dict.Set(1, 1);  // one fixed call site
    *target = raw->ops();
  }
  EXPECT_EQ(first_ops, second_ops);
}

TEST(InternTest, RecentSiteCacheCollisionsFallThroughToTheMemo) {
  // 512 distinct sites (one source location, 512 API names) against the 256-slot
  // direct-mapped cache: slots collide and evict each other, and every lookup,
  // first or repeated, must still return the OpId the registry interned.
  // The memo keys on the api pointer, so the names live as long as the process,
  // as real callers' literals do: names freed between --gtest_repeat passes would
  // come back at the same addresses with other text.
  const std::source_location loc = std::source_location::current();
  static const std::vector<std::string> apis = [] {
    std::vector<std::string> names;
    for (int i = 0; i < 512; ++i) {
      names.push_back("Intern.CollisionProbe#" + std::to_string(i));
    }
    return names;
  }();
  std::vector<OpId> first;
  for (const std::string& api : apis) {
    first.push_back(internal::InternCached(loc, api.c_str(), OpKind::kRead));
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < apis.size(); ++i) {
      EXPECT_EQ(internal::InternCached(loc, apis[i].c_str(), OpKind::kRead), first[i]);
    }
  }
  EXPECT_EQ(std::set<OpId>(first.begin(), first.end()).size(), apis.size());
  EXPECT_EQ(CallSiteRegistry::Instance().Get(first[7]).api, apis[7]);
}

}  // namespace
}  // namespace tsvd
