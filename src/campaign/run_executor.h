// Shared run execution core: what the single-process executor (RunCampaign)
// and fleet agents (src/fleet/agent.h) must do IDENTICALLY.
//
// The fleet's convergence contract — a 4-agent campaign with identical per-round
// salts reports the exact same unique-bug set as tsvd_campaign single-process, even
// when an agent is SIGKILLed mid-round — only holds if every process derives the
// corpus, the delay-engine config, the per-round salt, and the per-run execution
// (including the sandbox fork, checkpointing, and delay degradation) from one code
// path. This header is that path; the retry ladder around each job is
// AttemptLadder (scheduler.h) and the round loop around it is CampaignDriver
// (driver.h).
#ifndef SRC_CAMPAIGN_RUN_EXECUTOR_H_
#define SRC_CAMPAIGN_RUN_EXECUTOR_H_

#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/campaign/journal.h"
#include "src/campaign/scheduler.h"
#include "src/common/config.h"
#include "src/workload/module.h"
#include "src/workload/runner.h"

namespace tsvd::tasks {
class ThreadPool;
}  // namespace tsvd::tasks

namespace tsvd::campaign {

// The campaign corpus plus per-module fault tags ("" for generated modules,
// "crash" | "hang" | "throw" | "deadlock" for appended fault-injection modules).
// Fault modules ride at the end so their indices never shift the generated
// modules' seeds — the invariant both builders and the --list-modules inventory
// rely on.
struct CampaignCorpus {
  std::vector<workload::ModuleSpec> modules;
  std::vector<std::string> fault_kinds;  // parallel to `modules`
};

// Deterministic corpus for a campaign identity (seed, num_modules, fractions,
// fault counts). Every process of a fleet builds the same corpus from the same
// options.
CampaignCorpus BuildCampaignCorpus(const CampaignOptions& options);

// The scaled delay-engine config with the options' overrides applied.
Config BuildRunConfig(const CampaignOptions& options);

// The retry ladder's shape (scheduler.h): options.max_attempts attempts, backing
// off from options.sandbox.backoff_base_ms. Campaign workers and fleet agents
// both take it from here.
RetryPolicy RetryPolicyFor(const CampaignOptions& options);

// The per-run workload salt. Depends only on (campaign seed, round): same-seed
// campaigns replay the same randomness per round no matter which worker, agent,
// or process executes the job, or in what order.
uint64_t RoundSalt(uint64_t campaign_seed, int round);

// The journal identity stamp for a campaign over `corpus_size` modules (fault
// modules included). Fleet coordinators write the same header as RunCampaign, so
// either tool can resume the other's journal.
JournalHeader MakeJournalHeader(const CampaignOptions& options, size_t corpus_size);

// Executes one (module, round) attempt exactly as a campaign worker would:
// in-process on the caller's private pool, or — when the options enable the
// sandbox and the platform can fork — in a forked child under the watchdog, with
// atomic trap checkpoints salvaged on crash. Stateless across calls; safe to use
// from any number of threads concurrently.
class RunExecutor {
 public:
  // `corpus` must outlive the executor. `checkpoint_dir` is the scratch directory
  // for sandbox children's atomic trap checkpoints (unused in-process).
  RunExecutor(const CampaignOptions& options,
              const std::vector<workload::ModuleSpec>* corpus,
              std::string checkpoint_dir);

  // True when runs fork: options.sandbox.enabled on a platform with fork().
  bool sandboxed() const { return sandboxed_; }
  const Config& config() const { return config_; }

  // One attempt. `imported` is the round's fleet trap-store snapshot; `pool`
  // routes the in-process run's tasks (null = process-global pool; sandbox mode
  // ignores it — the child builds its own).
  RunOutcome Execute(const RunJob& job, const TrapFile& imported,
                     tasks::ThreadPool* pool) const;

 private:
  RunOutcome ExecuteInProcess(const RunJob& job, const TrapFile& imported,
                              tasks::ThreadPool* pool) const;
  RunOutcome ExecuteForked(const RunJob& job, const TrapFile& imported) const;

  CampaignOptions options_;
  const std::vector<workload::ModuleSpec>* corpus_;
  workload::DetectorFactory factory_;
  Config config_;
  std::string checkpoint_dir_;
  bool sandboxed_;
};

}  // namespace tsvd::campaign

#endif  // SRC_CAMPAIGN_RUN_EXECUTOR_H_
