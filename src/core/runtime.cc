#include "src/core/runtime.h"

#include <cassert>

#include "src/common/thread_id.h"

namespace tsvd {

std::atomic<Runtime*> Runtime::current_{nullptr};

Runtime::Runtime(const Config& config, std::unique_ptr<Detector> detector)
    : config_(config),
      detector_(std::move(detector)),
      wants_sync_(detector_->WantsSyncEvents()),
      phase_(config.phase_buffer_size),
      engine_(config) {}

Runtime::~Runtime() {
  // Guard against a runtime being destroyed while still installed.
  Runtime* expected = this;
  current_.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel);
}

void Runtime::Install(Runtime* rt) {
  Runtime* expected = nullptr;
  const bool ok = current_.compare_exchange_strong(expected, rt, std::memory_order_acq_rel);
  assert(ok && "another Runtime is already installed");
  (void)ok;
}

void Runtime::Uninstall(Runtime* rt) {
  Runtime* expected = rt;
  current_.compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel);
}

void Runtime::OnCall(ObjectId obj, OpId op, OpKind kind, NearMissHandle* handle) noexcept {
  if (disabled_.load(std::memory_order_relaxed)) {
    return;  // fail-open: the host test runs on, uninstrumented
  }
  try {
    OnCallImpl(obj, op, kind, handle);
  } catch (...) {
    RecordInternalError();
  }
}

void Runtime::OnCallImpl(ObjectId obj, OpId op, OpKind kind, NearMissHandle* handle) {
  const ThreadId tid = CurrentThreadId();
  const Micros now = NowMicros();

  Access access;
  access.tid = tid;
  access.obj = obj;
  access.op = op;
  access.kind = kind;
  access.time = now;
  access.handle = handle;
  // The call's one per-thread lookup: stamps progress and counts the call.
  access.timeline = engine_.NoteProgress(tid, now);
  access.ctx = CurrentCtx();
  access.concurrent_phase = phase_.RecordAndCheck(tid);

  coverage_.Record(op, access.timeline != nullptr ? &access.timeline->coverage_lane : nullptr,
                   access.concurrent_phase);

  // check_for_trap: catch a conflicting sleeper red-handed. Nothing is built unless
  // the object's shard holds an armed trap.
  bool caught = false;
  if (traps_.MayHoldTrap(obj)) [[unlikely]] {
    caught = CatchIfTrapped(access);
  }

  // should_delay + admission control.
  const DelayDecision decision = detector_->OnCall(access);
  if (!decision.inject || decision.duration_us <= 0) {
    return;
  }
  if (config_.serialize_delays && traps_.ArmedCount() > 0) {
    // Ablation: strictly avoid overlapping delays (Section 3.4.6 discusses and
    // rejects this design).
    return;
  }
  const RequestId request = CurrentRequest();
  if (!engine_.Admit(tid, decision.duration_us, request)) {
    return;  // a thread, request or aggregate budget or the overhead cap; counted
  }

  // Arming rechecks for a trap armed since the check above, unless that check
  // already caught one.
  TrapRegistry::Conflict armed_beside;
  TrapRegistry::Trap* trap = traps_.Set(access, ScopeStack::Current().Snapshot(),
                                        caught ? nullptr : &armed_beside);
  if (armed_beside.found) {
    CatchTrapped(armed_beside, access);
  }
  if (trap_arm_observer_) {
    trap_arm_observer_(op);
  }
  const ParkResult park =
      engine_.Park(tid, op, decision.duration_us, &trap->hit, request);

  const bool hit = traps_.Clear(trap);
  DelayOutcome outcome;
  outcome.start_us = park.start_us;
  outcome.end_us = park.end_us;
  outcome.conflict_found = hit;
  outcome.aborted = park.reason == WakeReason::kStallCancel ||
                    park.reason == WakeReason::kShutdown;
  detector_->OnDelayFinished(access, outcome);
}

void Runtime::OnSync(const SyncEvent& event) noexcept {
  if (!wants_sync_ || disabled_.load(std::memory_order_relaxed)) {
    return;
  }
  try {
    sync_events_.fetch_add(1, std::memory_order_relaxed);
    detector_->OnSync(event);
  } catch (...) {
    RecordInternalError();
  }
}

void Runtime::RecordInternalError() noexcept {
  const uint64_t errors = internal_errors_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (config_.max_internal_errors > 0 &&
      errors >= static_cast<uint64_t>(config_.max_internal_errors)) {
    if (!disabled_.exchange(true, std::memory_order_acq_rel)) {
      // Release anyone still parked; their OnCallImpl frames resume and finish
      // inside their own try blocks.
      engine_.CancelAllParked(WakeReason::kShutdown);
    }
  }
}

bool Runtime::CatchIfTrapped(const Access& racing) {
  TrapRegistry::Conflict conflict;
  if (!traps_.CheckAndMarkLocked(racing, &conflict)) {
    return false;
  }
  CatchTrapped(conflict, racing);
  return true;
}

void Runtime::CatchTrapped(const TrapRegistry::Conflict& conflict, const Access& racing) {
  BugReport report;
  report.object = racing.obj;
  report.trapped.tid = conflict.trapped_access.tid;
  report.trapped.op = conflict.trapped_access.op;
  report.trapped.kind = conflict.trapped_access.kind;
  report.trapped.stack = conflict.trapped_stack;
  report.racing.tid = racing.tid;
  report.racing.op = racing.op;
  report.racing.kind = racing.kind;
  report.racing.stack = ScopeStack::Current().Snapshot();
  report.time_us = racing.time;

  {
    std::lock_guard<std::mutex> lock(reports_mu_);
    reports_.push_back(report);
  }
  if (observer_) {
    observer_(report);
  }
  detector_->OnViolation(conflict.trapped_access, racing);
  if (!config_.disable_early_wake) {
    engine_.WakeThread(conflict.trapped_access.tid, WakeReason::kCatchWake);
  }
}

RunSummary Runtime::Summary() const {
  RunSummary s;
  {
    std::lock_guard<std::mutex> lock(reports_mu_);
    s.reports = reports_;
  }
  for (const BugReport& r : s.reports) {
    s.unique_pairs.insert(r.Pair());
  }
  s.oncall_count = engine_.NotedCalls();
  s.delays_injected = engine_.DelaysInjected();
  s.total_delay_us = engine_.TotalSleptUs();
  s.sync_events = sync_events_.load(std::memory_order_relaxed);
  s.trap_set_size = detector_->TrapSetSize();
  s.delays_early_woken = engine_.EarlyWoken();
  s.delays_aborted_stall = engine_.AbortedStall();
  s.delays_skipped_budget = engine_.SkippedBudget();
  s.early_wake_saved_us = engine_.EarlyWakeSavedUs();
  s.internal_errors = internal_errors_.load(std::memory_order_relaxed);
  s.runtime_disabled = disabled_.load(std::memory_order_relaxed);
  return s;
}

std::vector<BugReport> Runtime::Reports() const {
  std::lock_guard<std::mutex> lock(reports_mu_);
  return reports_;
}

}  // namespace tsvd
