#include "src/hb/tsvd_hb_detector.h"

namespace tsvd {

TsvdHbDetector::TsvdHbDetector(const Config& config)
    : config_(config),
      trap_set_(config),
      rngs_(config.seed * 0xbf58476d1ce4e5b9ULL) {}

TsvdHbDetector::CtxState TsvdHbDetector::GetState(CtxId ctx) const {
  const CtxShard& shard = const_cast<TsvdHbDetector*>(this)->CtxShardFor(ctx);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.states.find(ctx);
  return it == shard.states.end() ? CtxState{} : it->second;
}

void TsvdHbDetector::MergeInto(CtxId ctx, const VectorClock& other) {
  CtxShard& shard = CtxShardFor(ctx);
  std::lock_guard<std::mutex> lock(shard.mu);
  CtxState& state = shard.states[ctx];
  state.clock = VectorClock::Merge(state.clock, other);
}

DelayDecision TsvdHbDetector::OnCall(const Access& access) {
  // Read (and bump) this context's clock.
  VectorClock my_clock;
  uint64_t my_epoch = 0;
  {
    CtxShard& shard = CtxShardFor(access.ctx);
    std::lock_guard<std::mutex> lock(shard.mu);
    CtxState& state = shard.states[access.ctx];
    // Optimization 1: increment the local component at TSVD points only.
    ++state.local;
    state.clock = state.clock.WithComponent(access.ctx, state.local);
    my_clock = state.clock;
    my_epoch = state.local;
  }

  // Conflict check against the object's recent accesses: a pair is dangerous iff the
  // operations conflict and the recorded epoch does NOT happen-before us.
  {
    ObjShard& shard = ObjShardFor(access.obj);
    std::lock_guard<std::mutex> lock(shard.mu);
    std::vector<EpochRecord>& history = shard.histories[access.obj];
    for (const EpochRecord& rec : history) {
      if (rec.ctx == access.ctx || !KindsConflict(rec.kind, access.kind)) {
        continue;
      }
      if (!my_clock.HappensAfterEpoch(rec.ctx, rec.epoch)) {
        trap_set_.AddPair(access.op, rec.op);
      }
    }
    history.push_back(EpochRecord{access.ctx, my_epoch, access.op, access.kind});
    if (static_cast<int>(history.size()) > config_.hb_history) {
      history.erase(history.begin());
    }
  }

  const double p = trap_set_.Prob(access.op);
  if (p > 0.0 && rngs_.For(access.tid).NextBool(p)) {
    return DelayDecision{true, config_.delay_us};
  }
  return DelayDecision{};
}

void TsvdHbDetector::OnDelayFinished(const Access& access, const DelayOutcome& outcome) {
  if (!outcome.conflict_found) {
    trap_set_.DecayAfterFailedDelay(access.op);
  }
}

void TsvdHbDetector::OnViolation(const Access& trapped, const Access& racing) {
  trap_set_.MarkFound(trapped.op, racing.op);
}

void TsvdHbDetector::OnSync(const SyncEvent& event) {
  switch (event.type) {
    case SyncEventType::kTaskCreate: {
      // Child inherits the parent's clock: an O(1) reference copy (optimization 2).
      const CtxState parent = GetState(event.other);
      CtxShard& shard = CtxShardFor(event.ctx);
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.states[event.ctx].clock = parent.clock;
      break;
    }
    case SyncEventType::kTaskStart:
      break;  // clock installed at creation
    case SyncEventType::kTaskFinish:
      break;  // final clock stays in the state map for joiners
    case SyncEventType::kTaskJoin: {
      const CtxState joinee = GetState(event.other);
      // Optimization 3: Merge() short-circuits on reference equality, the common case
      // when a task forked and joined without passing any TSVD point.
      MergeInto(event.ctx, joinee.clock);
      break;
    }
    case SyncEventType::kLockAcquire: {
      VectorClock lock_clock;
      {
        LockShard& shard = LockShardFor(event.lock);
        std::lock_guard<std::mutex> lock(shard.mu);
        lock_clock = shard.clocks[event.lock];
      }
      MergeInto(event.ctx, lock_clock);
      break;
    }
    case SyncEventType::kLockRelease: {
      const CtxState state = GetState(event.ctx);
      LockShard& shard = LockShardFor(event.lock);
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.clocks[event.lock] = state.clock;  // O(1) reference copy
      break;
    }
  }
}

VectorClock TsvdHbDetector::ClockOf(CtxId ctx) const {
  return GetState(ctx).clock;
}

}  // namespace tsvd
