// Campaign orchestrator: the fleet-shaped service form of TSVD (PAPER.md Sections
// 2.1, 3.4.6 — a push-button cloud service over ~1,600 projects and 84,795 runs).
//
// RunCampaign schedules the corpus through repeated rounds across a pool of parallel
// workers. Between rounds it merges every run's trap export into one fleet-wide trap
// store (union + dedupe by canonical call-site-pair signature, atomic persistence) so
// round r+1 traps known-dangerous pairs on their first occurrence; every violation
// funnels into a central BugReportMgr that deduplicates across runs and emits unified
// JSON and SARIF 2.1.0 artifacts. A campaign stops early when a round converges
// (no new unique bugs) — the paper's observation that marginal bug yield decays with
// more runs (Fig. 8), turned into a scheduling policy.
#ifndef SRC_CAMPAIGN_CAMPAIGN_H_
#define SRC_CAMPAIGN_CAMPAIGN_H_

#include <functional>
#include <string>
#include <vector>

#include "src/campaign/bug_report_mgr.h"
#include "src/campaign/round.h"
#include "src/sandbox/sandbox.h"
#include "src/tasks/thread_pool.h"

namespace tsvd::campaign {

struct CampaignOptions {
  std::string detector = "TSVD";
  int num_modules = 40;
  int workers = 4;
  int rounds = 3;  // upper bound; convergence can stop the campaign earlier
  bool stop_when_converged = true;
  int max_attempts = 2;  // per-run attempts (1 = no retry of crashed runs)
  double scale = 0.02;
  uint64_t seed = 42;
  double buggy_module_fraction = 0.30;
  int pool_threads_per_worker = tasks::ThreadPool::kDefaultThreads;
  // When non-empty, the campaign persists its artifact trail here (the directory is
  // created if missing): traps.tsvd (merged store, rewritten atomically after every
  // round), campaign.json, campaign.sarif.
  std::string out_dir;
  // Process isolation: when sandbox.enabled and the platform supports fork(), every
  // run executes in a forked child under a watchdog deadline (src/sandbox/). A run
  // that crashes or hangs is retried with exponential backoff and delay degradation,
  // then quarantined — the campaign itself never dies with a run.
  sandbox::SandboxPolicy sandbox;
  // Fault-injection modules appended to the corpus (workload/faults.h): each crash
  // module segfaults, each hang module sleeps past any watchdog deadline, each throw
  // module throws a non-std value. Only sensible with the sandbox enabled (except
  // throw, which the in-process scheduler also survives).
  int fault_crash_modules = 0;
  int fault_hang_modules = 0;
  int fault_throw_modules = 0;
  // Each deadlock module delays while holding a lock a peer needs (§4.2's hazard);
  // the delay engine's progress sentinel must resolve it in-process, so this one is
  // also meaningful without the sandbox.
  int fault_deadlock_modules = 0;

  // Crash consistency (requires out_dir; see src/campaign/journal.h and DESIGN.md
  // §11). `resume` replays out_dir/journal.tsvdj — completed rounds and runs are
  // reconstructed, never re-executed — and continues from the first unfinished run
  // of the interrupted round with the same per-round seeds, so a resumed campaign
  // converges to the same unique-bug set as an uninterrupted one. A missing or
  // empty journal starts fresh (so automation can always pass --resume); a journal
  // whose identity (detector/seed/corpus/scale) disagrees with the options is a
  // hard error reported through CampaignResult::error.
  bool resume = false;
  // BugReportMgr snapshot cadence: at the first round boundary after every N
  // journaled runs, dedup state is snapshotted to out_dir/bugmgr.snap.json so
  // resume replays only the journal tail. 0 disables snapshots.
  int journal_snapshot_every = 64;
  // Graceful-stop poll (the SIGINT/SIGTERM hook; handlers set an atomic flag and
  // this closure reads it). Polled between runs: the first `true` stops
  // dispatching, lets in-flight runs finish, flushes the journal and partial
  // reports (stamped "interrupted": true), and returns. Never called from a signal
  // handler context, so it may take locks.
  std::function<bool()> interrupt;

  // Delay-engine overrides layered onto the scaled config (ScaledConfig already
  // derives stall_grace_us and the per-thread budget from `scale`; these pin
  // individual knobs for experiments and the deadlock e2e test).
  Micros delay_us_override = 0;     // > 0: replace the scaled delay length (the
                                    // per-thread budget is re-derived from it)
  Micros stall_grace_us = -1;       // >= 0: replace the scaled sentinel grace
  double max_overhead_pct = -1.0;   // >= 0: set the adaptive overhead cap
  int max_internal_errors = -1;     // >= 0: set the fail-open firewall threshold

  // The fields a fleet coordinator ships to its agents (src/fleet/protocol.h; field
  // lists: src/campaign/json.h). Process-local fields (workers, out_dir, resume,
  // snapshot cadence, interrupt) are deliberately not listed: each process owns
  // those.
  template <class V, class... R>
  static void VisitFields(V&& visit, R&... r) {
    visit("detector", r.detector...);
    visit("num_modules", r.num_modules...);
    visit("rounds", r.rounds...);
    visit("stop_when_converged", r.stop_when_converged...);
    visit("max_attempts", r.max_attempts...);
    visit("scale", r.scale...);
    visit("seed", r.seed...);
    visit("buggy_module_fraction", r.buggy_module_fraction...);
    visit("pool_threads_per_worker", r.pool_threads_per_worker...);
    visit("sandbox_enabled", r.sandbox.enabled...);
    visit("run_timeout_ms", r.sandbox.run_timeout_ms...);
    visit("backoff_base_ms", r.sandbox.backoff_base_ms...);
    visit("fault_crash_modules", r.fault_crash_modules...);
    visit("fault_hang_modules", r.fault_hang_modules...);
    visit("fault_throw_modules", r.fault_throw_modules...);
    visit("fault_deadlock_modules", r.fault_deadlock_modules...);
    visit("delay_us_override", r.delay_us_override...);
    visit("stall_grace_us", r.stall_grace_us...);
    visit("max_overhead_pct", r.max_overhead_pct...);
    visit("max_internal_errors", r.max_internal_errors...);
  }
};

struct CampaignResult {
  CampaignOptions options;
  std::vector<RoundStats> rounds;
  std::vector<BugReportMgr::UniqueBug> bugs;  // deduplicated, deterministically sorted
  std::vector<RunOutcome> outcomes;           // every run of every round, in order
  TrapFile merged_traps;                      // final fleet-wide trap store
  bool converged = false;
  // A drain (options.interrupt fired) cut the campaign short. The journal holds
  // every completed run; artifacts are partial and stamped "interrupted": true.
  bool interrupted = false;
  // Storage degradation (DESIGN.md §15). disk_full: a durable write failed with
  // ENOSPC, the campaign drained like a signal — in-flight runs finished, a
  // partial report was flushed, and the CLI exits with the distinct disk-full
  // code. journal_degraded: the run ledger failed with a non-ENOSPC error (EIO)
  // and was closed; the campaign kept running journal-less — results are
  // complete but not resumable, and reports are stamped "durability":
  // "degraded".
  bool disk_full = false;
  bool journal_degraded = false;
  int false_positives = 0;
  // Fatal orchestration error (resume identity mismatch, journal I/O failure);
  // when non-empty no rounds were executed.
  std::string error;
  uint64_t resumed_runs = 0;        // run records replayed from the journal
  int resumed_rounds = 0;           // completed rounds replayed from the journal
  int salvaged_checkpoints = 0;     // stale per-run trap checkpoints reaped

  // Artifact paths; empty when out_dir was not set or a write failed.
  std::string trap_path;
  std::string json_path;
  std::string sarif_path;
  std::string journal_path;

  uint64_t UniqueBugCount() const { return bugs.size(); }
  uint64_t RunsExecuted() const { return outcomes.size(); }
};

CampaignResult RunCampaign(const CampaignOptions& options);

}  // namespace tsvd::campaign

#endif  // SRC_CAMPAIGN_CAMPAIGN_H_
