// TSVDHB (Section 3.5): the RaceFuzzer-style variant that computes happens-before
// exactly, using vector clocks fed by synchronization events from the task runtime.
//
// Where to inject: pairs of conflicting accesses to one object that are NOT ordered by
// the computed happens-before relation. When: same run, probabilistically with decay,
// persisting the surviving trap set to the next run — the same injection machinery as
// TSVD, so the two differ only in how dangerous pairs are identified (HB analysis vs.
// near-miss + HB inference), which is exactly the comparison Table 2 makes.
#ifndef SRC_HB_TSVD_HB_DETECTOR_H_
#define SRC_HB_TSVD_HB_DETECTOR_H_

#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/config.h"
#include "src/common/per_thread.h"
#include "src/core/detector.h"
#include "src/core/trap_set.h"
#include "src/hb/vector_clock.h"

namespace tsvd {

class TsvdHbDetector : public Detector {
 public:
  explicit TsvdHbDetector(const Config& config);

  std::string name() const override { return "TSVDHB"; }
  bool WantsSyncEvents() const override { return true; }

  DelayDecision OnCall(const Access& access) override;
  void OnDelayFinished(const Access& access, const DelayOutcome& outcome) override;
  void OnViolation(const Access& trapped, const Access& racing) override;
  void OnSync(const SyncEvent& event) override;

  TrapFile ExportTrapFile() const override { return trap_set_.Export(); }
  void ImportTrapFile(const TrapFile& file) override { trap_set_.Import(file); }
  uint64_t TrapSetSize() const override { return trap_set_.PairCount(); }

  // Introspection for tests.
  VectorClock ClockOf(CtxId ctx) const;
  const TrapSet& trap_set() const { return trap_set_; }

 private:
  struct CtxState {
    VectorClock clock;
    uint64_t local = 0;  // this context's own component (epoch counter)
  };

  struct EpochRecord {
    CtxId ctx = kInvalidCtx;
    uint64_t epoch = 0;
    OpId op = kInvalidOp;
    OpKind kind = OpKind::kRead;
  };

  static constexpr size_t kCtxShards = 16;
  static constexpr size_t kObjShards = 64;

  struct CtxShard {
    mutable std::mutex mu;
    std::unordered_map<CtxId, CtxState> states;
  };
  struct ObjShard {
    mutable std::mutex mu;
    std::unordered_map<ObjectId, std::vector<EpochRecord>> histories;
  };
  struct LockShard {
    mutable std::mutex mu;
    std::unordered_map<ObjectId, VectorClock> clocks;
  };

  CtxShard& CtxShardFor(CtxId ctx) { return ctx_shards_[ctx % kCtxShards]; }
  ObjShard& ObjShardFor(ObjectId obj) { return obj_shards_[(obj >> 4) % kObjShards]; }
  LockShard& LockShardFor(ObjectId lock) { return lock_shards_[(lock >> 4) % kCtxShards]; }

  // Snapshot of a context's state under its shard lock.
  CtxState GetState(CtxId ctx) const;
  void MergeInto(CtxId ctx, const VectorClock& other);

  Config config_;
  TrapSet trap_set_;

  CtxShard ctx_shards_[kCtxShards];
  ObjShard obj_shards_[kObjShards];
  LockShard lock_shards_[kCtxShards];

  PerThreadRng rngs_;
};

}  // namespace tsvd

#endif  // SRC_HB_TSVD_HB_DETECTOR_H_
