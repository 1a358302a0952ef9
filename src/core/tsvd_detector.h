// TSVD (Section 3.4): the paper's contribution.
//
// Where to inject delays: at locations belonging to the dynamically maintained trap
// set of dangerous pairs — near misses that ran in a concurrent phase, minus pairs
// pruned by HB inference or already-caught violations.
// When: in the same run the pair was discovered (plus subsequent runs via the trap
// file), with per-location probability P_loc that starts at 1 and decays on every
// unproductive delay.
#ifndef SRC_CORE_TSVD_DETECTOR_H_
#define SRC_CORE_TSVD_DETECTOR_H_

#include <memory>
#include <string>

#include "src/common/config.h"
#include "src/common/per_thread.h"
#include "src/core/detector.h"
#include "src/core/hb_inference.h"
#include "src/core/nearmiss_tracker.h"
#include "src/core/trap_set.h"

namespace tsvd {

class TsvdDetector : public Detector {
 public:
  explicit TsvdDetector(const Config& config);

  std::string name() const override { return "TSVD"; }

  DelayDecision OnCall(const Access& access) override;
  void OnDelayFinished(const Access& access, const DelayOutcome& outcome) override;
  void OnViolation(const Access& trapped, const Access& racing) override;

  TrapFile ExportTrapFile() const override { return trap_set_.Export(); }
  void ImportTrapFile(const TrapFile& file) override { trap_set_.Import(file); }
  uint64_t TrapSetSize() const override { return trap_set_.PairCount(); }

  // Introspection for tests and ablation benches.
  const TrapSet& trap_set() const { return trap_set_; }
  uint64_t InferredHbEdges() const { return hb_.InferredEdges(); }

 private:
  Config config_;
  TrapSet trap_set_;
  NearMissTracker nearmiss_;
  HbInference hb_;
  PerThreadRng rngs_;
};

}  // namespace tsvd

#endif  // SRC_CORE_TSVD_DETECTOR_H_
