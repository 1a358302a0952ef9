// Campaign data model: jobs, per-run outcomes, per-round aggregates.
//
// A campaign executes the corpus in rounds. Round r schedules one run job per module
// across the worker fleet; each job produces a RunOutcome whose observations feed the
// BugReportMgr and whose trap export is merged into the fleet-wide trap store before
// round r+1 starts (Section 3.4.6 scaled up from one module to the corpus).
#ifndef SRC_CAMPAIGN_ROUND_H_
#define SRC_CAMPAIGN_ROUND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/report/delay_counts.h"
#include "src/report/trap_file.h"

namespace tsvd::campaign {

struct RunJob {
  int module_index = 0;
  int round = 0;  // 1-based, as reported to users
  int attempt = 1;
  // Delay-degradation ladder step this attempt runs at. The scheduler raises it when
  // a sandboxed attempt times out, so the retry re-runs with a halved delay_us and a
  // tightened per-thread delay budget (see sandbox::SandboxPolicy).
  int degrade_level = 0;
};

enum class RunStatus {
  kOk,
  kCrashed,   // attempt threw or the sandbox child died on a signal; no run data
  kTimedOut,  // the sandbox watchdog SIGKILLed the attempt at its deadline
  kSkipped,   // still queued when a drain was requested; never dispatched. Skipped
              // runs are excluded from stats, reports, and the campaign journal —
              // a resumed campaign re-executes them from scratch.
};

// One detected violation lifted out of the run, keyed entirely by stable call-site
// signatures so identities survive across runs, rounds, and processes (OpIds do not).
struct BugObservation {
  std::string sig_first;   // canonical: sig_first <= sig_second
  std::string sig_second;
  std::string api_first;
  std::string api_second;
  uint64_t stack_digest = 0;  // hash of both logical stacks (manifestation identity)
  std::string module;
  int round = 0;
  bool read_write = false;
  bool same_location = false;
  bool async_flavor = false;
  bool false_positive = false;

  // The field list (src/campaign/json.h): wire name and member, once.
  template <class V, class... R>
  static void VisitFields(V&& visit, R&... r) {
    visit("sig_first", r.sig_first...);
    visit("sig_second", r.sig_second...);
    visit("api_first", r.api_first...);
    visit("api_second", r.api_second...);
    visit("stack_digest", r.stack_digest...);
    visit("module", r.module...);
    visit("round", r.round...);
    visit("read_write", r.read_write...);
    visit("same_location", r.same_location...);
    visit("async_flavor", r.async_flavor...);
    visit("false_positive", r.false_positive...);
  }
};

// Delay-engine counters (src/core/delay_engine.h) come from the DelayCounts base.
struct RunOutcome : DelayCounts {
  int module_index = -1;
  std::string module;
  int round = 0;
  RunStatus status = RunStatus::kOk;
  int attempts = 1;
  std::string error;  // last failure message when attempts > 1 or status != kOk
  // Every failed attempt's error in attempt order ("attempt N: ..."), not just the
  // last — a flaky module's first-attempt crash stays diagnosable after its retry
  // succeeds.
  std::vector<std::string> attempt_errors;
  // Failure forensics (sandbox mode). killed_by_signal is the fatal signal of the
  // final attempt (0 = none); crash_signature is the rendered sandbox forensics line
  // (signal, last phase marker, last armed trap site).
  int killed_by_signal = 0;
  std::string crash_signature;
  // Degradation ladder step the final attempt ran at (> 0 after timeout retries).
  int degrade_level = 0;
  // True when the job exhausted max_attempts; the campaign excludes the module from
  // subsequent rounds instead of re-running a known-bad job forever.
  bool quarantined = false;
  // Trap pairs recovered from failed attempts' atomically-checkpointed exports (they
  // are already merged into `traps`, so a crash mid-run loses no learned pairs).
  uint64_t salvaged_trap_pairs = 0;

  Micros wall_us = 0;
  uint64_t oncall_count = 0;
  // Fail-open firewall: internal runtime faults absorbed during the run, and whether
  // they crossed max_internal_errors so the run finished uninstrumented.
  uint64_t internal_errors = 0;
  bool runtime_disabled = false;
  uint64_t imported_pairs = 0;  // trap-set size seeded from the merged store
  // Bugs caught this run whose pair was armed from the *imported* store — i.e. the
  // run could trap them on their first occurrence. Nonzero in round 2+ is the
  // fleet-scale carry-over signal the paper's multi-run deployment relies on.
  uint64_t retrapped_imported = 0;
  int false_positives = 0;

  std::vector<BugObservation> observations;
  TrapFile traps;  // canonical surviving-pair export

  // The field list (src/campaign/json.h). status, observations and traps are
  // encoded by hand (src/sandbox/outcome_codec.cc).
  template <class V, class... R>
  static void VisitFields(V&& visit, R&... r) {
    visit("module_index", r.module_index...);
    visit("module", r.module...);
    visit("round", r.round...);
    visit("attempts", r.attempts...);
    visit("error", r.error...);
    visit("attempt_errors", r.attempt_errors...);
    visit("killed_by_signal", r.killed_by_signal...);
    visit("crash_signature", r.crash_signature...);
    visit("degrade_level", r.degrade_level...);
    visit("quarantined", r.quarantined...);
    visit("salvaged_trap_pairs", r.salvaged_trap_pairs...);
    visit("wall_us", r.wall_us...);
    visit("oncall_count", r.oncall_count...);
    DelayCounts::VisitFields(visit, r...);
    visit("internal_errors", r.internal_errors...);
    visit("runtime_disabled", r.runtime_disabled...);
    visit("imported_pairs", r.imported_pairs...);
    visit("retrapped_imported", r.retrapped_imported...);
    visit("false_positives", r.false_positives...);
  }
};

// Delay-engine counters, summed over the round's runs, come from the DelayCounts
// base.
struct RoundStats : DelayCounts {
  int round = 0;
  int runs = 0;
  int crashed = 0;
  int retried = 0;      // runs that needed more than one attempt
  int timed_out = 0;    // runs whose final attempt hit the sandbox watchdog deadline
  int killed_by_signal = 0;  // runs whose final attempt died on a fatal signal
  int quarantined = 0;  // runs that exhausted max_attempts this round
  uint64_t new_unique_bugs = 0;
  uint64_t retrapped_imported = 0;
  size_t trap_pairs_after = 0;  // merged trap-store size after this round
  // A drain signal (SIGINT/SIGTERM) cut the round short: stats cover only the runs
  // that completed before the drain, and the round was not committed to the journal
  // (a resumed campaign finishes it).
  bool interrupted = false;
  int runtime_disabled = 0;  // runs that finished with instrumentation self-disabled
  Micros wall_us = 0;  // wall time of the round (parallel, not summed)

  // The field list (src/campaign/json.h): the journal round record and the
  // campaign JSON rounds array are both this list.
  template <class V, class... R>
  static void VisitFields(V&& visit, R&... r) {
    visit("round", r.round...);
    visit("runs", r.runs...);
    visit("crashed", r.crashed...);
    visit("retried", r.retried...);
    visit("timed_out", r.timed_out...);
    visit("killed_by_signal", r.killed_by_signal...);
    visit("quarantined", r.quarantined...);
    visit("new_unique_bugs", r.new_unique_bugs...);
    visit("retrapped_imported", r.retrapped_imported...);
    visit("trap_pairs_after", r.trap_pairs_after...);
    visit("interrupted", r.interrupted...);
    DelayCounts::VisitFields(visit, r...);
    visit("runtime_disabled", r.runtime_disabled...);
    visit("wall_us", r.wall_us...);
  }
};

}  // namespace tsvd::campaign

#endif  // SRC_CAMPAIGN_ROUND_H_
