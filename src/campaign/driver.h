// The campaign driver and its execution seam (DESIGN.md §8, §11, §13).
//
// A campaign is rounds of runs over the corpus with a trap store carried between
// rounds and bugs deduplicated in one place (PAPER.md §2.1, §3.4.6). Both front
// ends — the single-process RunCampaign and the distributed FleetCoordinator —
// run that loop through one CampaignDriver. The driver owns every piece of
// round-boundary state: the journal and its resume, the BugReportMgr, the round
// statistics, quarantine, the commit order (trap-store save, round record,
// snapshot), errno-directed storage degradation, and the campaign.json /
// campaign.sarif reports. What differs between the front ends — where a run
// executes and where the trap store lives — sits behind RoundExecutor.
#ifndef SRC_CAMPAIGN_DRIVER_H_
#define SRC_CAMPAIGN_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/campaign/bug_report_mgr.h"
#include "src/campaign/campaign.h"
#include "src/campaign/journal.h"
#include "src/campaign/round.h"
#include "src/campaign/scheduler.h"
#include "src/workload/module.h"

namespace tsvd::campaign {

// What the driver lends an executor for one round.
struct RoundHooks {
  // The journal's commit point. Called once for every job that reaches its
  // final outcome, before ExecuteRound returns; may be called from several
  // threads at once and may block on fsync. Never called for a job a drain
  // skipped or cut short.
  std::function<void(const RunOutcome& outcome)> commit;
  // Operational forensics record for the journal (kind, prose detail).
  std::function<void(const std::string& kind, const std::string& detail)> event;
  // Polled while the round runs; the first true asks for a graceful drain.
  std::function<bool()> interrupt;
};

struct RoundRun {
  // Final outcomes, in any order. Jobs a drain skipped are missing or kSkipped.
  std::vector<RunOutcome> outcomes;
  bool drained = false;  // a drain cut the round short
  // Non-empty when the round cannot finish (every agent died): the driver
  // reports it as the campaign's error and commits nothing more.
  std::string fatal;
};

// Where runs execute and where the trap store lives. Exactly two
// implementations: LocalExecutor (below) and the fleet coordinator's lease
// table (src/fleet/coordinator.h).
class RoundExecutor {
 public:
  RoundExecutor() = default;
  virtual ~RoundExecutor() = default;
  RoundExecutor(const RoundExecutor&) = delete;
  RoundExecutor& operator=(const RoundExecutor&) = delete;

  // Seeds the trap store with the resumed campaign's merged traps and readies
  // the executor. Called once, after the journal opened and before the first
  // round. False (with `error`) ends the campaign.
  virtual bool Restore(TrapFile traps, std::string* error) = 0;
  virtual TrapFile Snapshot() const = 0;
  // Round boundary: merges the round's learned pairs into the store and
  // returns the store's size.
  virtual size_t CommitRound(const TrapFile& round_traps) = 0;

  // Runs `jobs` (one round's, never empty) against the store's current
  // snapshot. Every final outcome goes through hooks.commit before this
  // returns.
  virtual RoundRun ExecuteRound(const std::vector<RunJob>& jobs,
                                const RoundHooks& hooks) = 0;

  // Reported as the campaign's "workers".
  virtual int workers() const = 0;
};

// Runs one campaign to completion (or drain, or fatal error) through an
// executor. Single use.
class CampaignDriver {
 public:
  // `corpus` must outlive the driver.
  CampaignDriver(const CampaignOptions& options,
                 const std::vector<workload::ModuleSpec>& corpus);
  CampaignDriver(const CampaignDriver&) = delete;
  CampaignDriver& operator=(const CampaignDriver&) = delete;

  CampaignResult Run(RoundExecutor* executor);

 private:
  // Opens the journal, first replaying it when options.resume is set. Fills
  // `traps` with the resumed trap store. False when result_.error was set.
  bool Open(TrapFile* traps);
  // Rebuilds a dead campaign's state from its journal: committed rounds are
  // reconstructed, never re-executed; run records of the interrupted round wait
  // in pending_ for the round loop.
  void Resume(JournalReplay replay, TrapFile* traps);
  std::vector<RunJob> Jobs(int round, const std::vector<RunOutcome>& replayed) const;
  void Commit(const RunOutcome& outcome);
  // Folds a finished round's outcomes into the stats, the bug manager,
  // quarantine and `round_traps`, in module order.
  void Ingest(std::vector<RunOutcome> outcomes, RoundStats* stats,
              TrapFile* round_traps);
  // The round's durable commit: trap-store save, then the round record (withheld
  // when the save failed), then a BugReportMgr snapshot when one is due.
  void CommitRound(const RoundStats& stats);
  void FlushReports();
  void Finish();
  // ENOSPC drains like a signal; any other journal errno degrades the journal.
  void ApplyStorageErrno(int err);
  void BackfillModuleName(RunOutcome* outcome) const;

  const CampaignOptions& options_;
  const std::vector<workload::ModuleSpec>& corpus_;
  const int rounds_;
  const bool persist_;
  RoundExecutor* executor_ = nullptr;

  CampaignResult result_;
  BugReportMgr mgr_;
  CampaignJournal journal_;
  std::vector<char> quarantined_;
  std::vector<RunOutcome> pending_;  // replayed runs of the interrupted round
  int start_round_ = 1;
  bool already_done_ = false;  // the journal says the campaign finished
  uint64_t last_snapshot_mark_ = 0;
  std::atomic<bool> storage_drain_{false};
  std::atomic<bool> journal_lost_{false};
  RoundHooks hooks_;
};

// The single-process executor: a Scheduler of options.workers workers, each
// with a private task pool, and the trap store as a plain TrapFile.
class LocalExecutor : public RoundExecutor {
 public:
  using JobFn = std::function<RunOutcome(const RunJob& job, const TrapFile& imported,
                                         tasks::ThreadPool& pool)>;

  // Runs each job through RunExecutor over `corpus`, which must outlive this.
  // In sandbox mode it owns the children's checkpoint directory: Restore reaps
  // the checkpoints a dead campaign left there (their pairs rejoin the store on
  // resume) and the destructor removes the directory.
  LocalExecutor(const CampaignOptions& options,
                const std::vector<workload::ModuleSpec>* corpus);
  // Runs each job through `run` instead (scripted outcomes in tests).
  LocalExecutor(const CampaignOptions& options, JobFn run);
  ~LocalExecutor() override;

  bool Restore(TrapFile traps, std::string* error) override;
  TrapFile Snapshot() const override;
  size_t CommitRound(const TrapFile& round_traps) override;
  RoundRun ExecuteRound(const std::vector<RunJob>& jobs,
                        const RoundHooks& hooks) override;
  int workers() const override { return scheduler_.workers(); }

  int salvaged_checkpoints() const { return salvaged_checkpoints_; }

 private:
  const bool resume_;
  Scheduler scheduler_;
  const RetryPolicy retry_;
  JobFn run_;
  std::string checkpoint_dir_;  // empty unless sandboxed
  bool checkpoint_dir_made_ = false;
  int salvaged_checkpoints_ = 0;
  TrapFile store_;
  // Reaped stale checkpoints, merged after the next round's import snapshot so
  // that snapshot stays identical to the uninterrupted campaign's.
  TrapFile salvage_;
};

}  // namespace tsvd::campaign

#endif  // SRC_CAMPAIGN_DRIVER_H_
