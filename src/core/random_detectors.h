// Baseline variants occupying the top-left corner of the design space (Fig. 2):
// little analysis, many delays.
//
// DynamicRandom (Section 3.2): every TSVD point is eligible; each dynamic instance
// delays with a small fixed probability, for a random duration.
//
// StaticRandom (Section 3.3) emulates DataCollider's static sampling: static call
// sites are sampled uniformly irrespective of how often they execute, so hot paths do
// not drown out cold ones. The h-th dynamic hit of a site fires with probability
// min(1, quota / h) — each site's expected firings grow only logarithmically with its
// execution count.
#ifndef SRC_CORE_RANDOM_DETECTORS_H_
#define SRC_CORE_RANDOM_DETECTORS_H_

#include <atomic>
#include <string>

#include "src/common/config.h"
#include "src/common/paged_table.h"
#include "src/common/per_thread.h"
#include "src/common/rng.h"
#include "src/core/detector.h"

namespace tsvd {

namespace internal {
// Shared per-thread RNG plumbing for the stateless baselines.
class RandomBase : public Detector {
 protected:
  explicit RandomBase(const Config& config)
      : config_(config), rngs_(config.seed * 0xd1b54a32d192ed03ULL) {}

  Rng& RngFor(ThreadId tid) { return rngs_.For(tid); }

  Config config_;

 private:
  PerThreadRng rngs_;
};
}  // namespace internal

class DynamicRandomDetector : public internal::RandomBase {
 public:
  explicit DynamicRandomDetector(const Config& config) : RandomBase(config) {}

  std::string name() const override { return "DynamicRandom"; }

  DelayDecision OnCall(const Access& access) override {
    Rng& rng = RngFor(access.tid);
    if (rng.NextBool(config_.dynamic_random_probability)) {
      return DelayDecision{true, rng.NextInRange(1, config_.delay_us)};
    }
    return DelayDecision{};
  }
};

class StaticRandomDetector : public internal::RandomBase {
 public:
  explicit StaticRandomDetector(const Config& config) : RandomBase(config) {}

  std::string name() const override { return "DataCollider"; }

  DelayDecision OnCall(const Access& access) override {
    // Uniform static sampling: whether this site is in the sampled set is a pure
    // function of (seed, site), decided independently of how hot the site is.
    Rng site_rng(config_.seed * 0x2545f4914f6cdd1dULL + access.op);
    if (!site_rng.NextBool(config_.static_random_site_prob)) {
      return DelayDecision{};
    }
    std::atomic<uint64_t>* hits = hits_.Find(access.op);
    if (hits == nullptr) {
      return DelayDecision{};  // past the dense call-site range
    }
    const uint64_t h = hits->fetch_add(1, std::memory_order_relaxed) + 1;
    Rng& rng = RngFor(access.tid);
    const double p = config_.static_random_quota / static_cast<double>(h);
    if (rng.NextBool(p < 1.0 ? p : 1.0)) {
      return DelayDecision{true, rng.NextInRange(1, config_.delay_us)};
    }
    return DelayDecision{};
  }

 private:
  // Dynamic hits per sampled site; pages appear only for sampled sites' ranges.
  PerOp<std::atomic<uint64_t>> hits_;
};

}  // namespace tsvd

#endif  // SRC_CORE_RANDOM_DETECTORS_H_
