// The TSVD runtime: the mechanism half of the trap framework (Fig. 5).
//
//   OnCall(thread_id, obj_id, op_id):
//     check_for_trap(...)        -> report violation, both threads caught red-handed
//     if (should_delay(op_id)):  -> delegated to the installed Detector
//       set_trap(...); delay(); clear_trap(...)
//
// One Runtime instance exists per instrumented test run (the workload harness creates
// a fresh one per module run, mirroring per-module test isolation at Microsoft). A
// process-wide current-runtime pointer lets instrumented containers reach the runtime
// with a single atomic load; with no runtime installed the instrumentation is a no-op,
// which is the uninstrumented baseline for overhead measurements.
#ifndef SRC_CORE_RUNTIME_H_
#define SRC_CORE_RUNTIME_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/config.h"
#include "src/common/execution_context.h"
#include "src/common/request_context.h"
#include "src/core/delay_engine.h"
#include "src/core/detector.h"
#include "src/core/phase_detector.h"
#include "src/core/trap_registry.h"
#include "src/report/coverage.h"
#include "src/report/run_summary.h"

namespace tsvd {

class Runtime {
 public:
  Runtime(const Config& config, std::unique_ptr<Detector> detector);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Entry point from instrumented container methods. This is the fail-open
  // firewall boundary: an internal fault in the detector, the trap machinery, or
  // the delay engine must never take down the host test. Faults are counted, and
  // past config.max_internal_errors the runtime self-disables — every further
  // OnCall is a no-op and the run completes uninstrumented (flagged
  // runtime_disabled in the summary). `handle` is the object's near-miss handle
  // (access.h), which instrumented containers carry; callers without one pass null
  // and the tracker finds the object's history through its index.
  void OnCall(ObjectId obj, OpId op, OpKind kind,
              NearMissHandle* handle = nullptr) noexcept;

  // Entry point from the task runtime (forwarded only if the detector wants it).
  // Same firewall boundary as OnCall.
  void OnSync(const SyncEvent& event) noexcept;
  bool WantsSyncEvents() const { return wants_sync_; }

  // Finalizes counters into a summary. Callable once the run's tasks are quiescent.
  RunSummary Summary() const;

  Detector& detector() { return *detector_; }
  const Config& config() const { return config_; }
  CoverageTracker& coverage() { return coverage_; }

  // All reports so far (copy).
  std::vector<BugReport> Reports() const;

  // Observer invoked synchronously on every violation, while both threads are still
  // at their conflicting call sites (so object identity is still resolvable). The
  // workload harness uses this to cross-check reports against ground truth.
  void SetReportObserver(std::function<void(const BugReport&)> observer) {
    observer_ = std::move(observer);
  }

  // Observer invoked synchronously whenever a trap is armed (just before the delay
  // sleep), with the trapped location. The sandbox streams the site's signature to
  // its parent process so a crash signature can name the last armed trap. Called
  // from workload threads on the delay path — keep it cheap.
  void SetTrapArmObserver(std::function<void(OpId)> observer) {
    trap_arm_observer_ = std::move(observer);
  }

  // --- installation ---
  //
  // Two routing layers. The classic layer is a process-wide pointer (Install /
  // Uninstall): one instrumented run at a time, the deployment's per-process model.
  // The thread-binding layer overrides it per thread so that several instrumented
  // runs can coexist in one process (campaign mode): a bound thread — and every
  // task-pool thread executing work scheduled from it, see tasks::ExecDomain — sees
  // its run's runtime (or no runtime at all for a baseline run) regardless of the
  // global pointer.
  static Runtime* Current() {
    return internal_tls_bound ? internal_tls_runtime
                              : current_.load(std::memory_order_acquire);
  }
  static void Install(Runtime* rt);
  static void Uninstall(Runtime* rt);

  // RAII thread-scoped routing. `rt` may be null: the thread then behaves as
  // uninstrumented even while a global runtime is installed.
  class ThreadBinding {
   public:
    explicit ThreadBinding(Runtime* rt)
        : prev_runtime_(internal_tls_runtime), prev_bound_(internal_tls_bound) {
      internal_tls_runtime = rt;
      internal_tls_bound = true;
    }
    ~ThreadBinding() {
      internal_tls_runtime = prev_runtime_;
      internal_tls_bound = prev_bound_;
    }
    ThreadBinding(const ThreadBinding&) = delete;
    ThreadBinding& operator=(const ThreadBinding&) = delete;

   private:
    Runtime* prev_runtime_;
    bool prev_bound_;
  };

  // RAII installation for scoped runs.
  class Installation {
   public:
    explicit Installation(Runtime& rt) : rt_(rt) { Install(&rt_); }
    ~Installation() { Uninstall(&rt_); }
    Installation(const Installation&) = delete;
    Installation& operator=(const Installation&) = delete;

   private:
    Runtime& rt_;
  };

 private:
  void OnCallImpl(ObjectId obj, OpId op, OpKind kind, NearMissHandle* handle);
  // The locked half of check_for_trap, for an object whose shard holds an armed
  // trap: catches the first conflicting one, if any, and returns whether it did.
  // Out of line, so the Conflict it copies out never sits in OnCall's frame.
  [[gnu::noinline]] bool CatchIfTrapped(const Access& racing);
  // Records the bug, tells the detector, and wakes the trapped thread: the rest of
  // its sleep is pure overhead now that the bug is on record.
  void CatchTrapped(const TrapRegistry::Conflict& conflict, const Access& racing);
  void RecordInternalError() noexcept;

  Config config_;
  std::unique_ptr<Detector> detector_;
  bool wants_sync_;

  TrapRegistry traps_;
  PhaseDetector phase_;
  CoverageTracker coverage_;
  DelayEngine engine_;

  mutable std::mutex reports_mu_;
  std::vector<BugReport> reports_;
  std::function<void(const BugReport&)> observer_;
  std::function<void(OpId)> trap_arm_observer_;

  std::atomic<uint64_t> sync_events_{0};
  std::atomic<uint64_t> internal_errors_{0};
  std::atomic<bool> disabled_{false};

  static std::atomic<Runtime*> current_;

  // Thread-binding storage (public-access names avoided via internal_ prefix).
  // Defined inline with constant initializers so every translation unit sees that
  // no dynamic initialization exists: Current() then reads the slots directly
  // instead of calling a TLS init wrapper through the GOT on every call.
  static inline thread_local Runtime* internal_tls_runtime = nullptr;
  static inline thread_local bool internal_tls_bound = false;
};

}  // namespace tsvd

#endif  // SRC_CORE_RUNTIME_H_
