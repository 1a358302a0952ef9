#include "src/campaign/campaign.h"

#include <filesystem>
#include <memory>
#include <utility>

#include "src/campaign/driver.h"
#include "src/campaign/run_executor.h"
#include "src/sandbox/sandbox.h"

namespace tsvd::campaign {

LocalExecutor::LocalExecutor(const CampaignOptions& options, JobFn run)
    : resume_(options.resume),
      scheduler_(options.workers, options.pool_threads_per_worker),
      retry_(RetryPolicyFor(options)),
      run_(std::move(run)) {}

LocalExecutor::LocalExecutor(const CampaignOptions& options,
                             const std::vector<workload::ModuleSpec>* corpus)
    : LocalExecutor(options, JobFn()) {
  // Sandbox children write atomic trap checkpoints here; the parent salvages
  // them when a child dies mid-run.
  if (options.sandbox.enabled && sandbox::ForkSupported()) {
    checkpoint_dir_ =
        (options.out_dir.empty()
             ? std::filesystem::temp_directory_path() /
                   ("tsvd-sandbox-" +
                    std::to_string(static_cast<uint64_t>(NowMicros())))
             : std::filesystem::path(options.out_dir) / "sandbox")
            .string();
  }
  auto executor = std::make_shared<const RunExecutor>(options, corpus, checkpoint_dir_);
  run_ = [executor](const RunJob& job, const TrapFile& imported,
                    tasks::ThreadPool& pool) {
    return executor->Execute(job, imported, &pool);
  };
}

LocalExecutor::~LocalExecutor() {
  if (checkpoint_dir_made_) {
    std::error_code ec;
    std::filesystem::remove_all(checkpoint_dir_, ec);
  }
}

bool LocalExecutor::Restore(TrapFile traps, std::string* /*error*/) {
  store_ = std::move(traps);
  if (!checkpoint_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(checkpoint_dir_, ec);
    checkpoint_dir_made_ = true;
    // Reap what a dead campaign's children left behind. On resume the salvaged
    // pairs rejoin the store; a fresh campaign only clears the litter so its
    // own crash forensics can never salvage another campaign's checkpoint.
    salvaged_checkpoints_ = ReapStaleCheckpoints(checkpoint_dir_, &salvage_);
    if (!resume_) {
      salvage_ = TrapFile{};
    }
  }
  return true;
}

TrapFile LocalExecutor::Snapshot() const {
  TrapFile snapshot = store_;
  snapshot.Merge(salvage_);  // no round ran yet: keep the reaped learning anyway
  return snapshot;
}

size_t LocalExecutor::CommitRound(const TrapFile& round_traps) {
  store_.Merge(round_traps);
  return store_.size();
}

RoundRun LocalExecutor::ExecuteRound(const std::vector<RunJob>& jobs,
                                     const RoundHooks& hooks) {
  // Workers read the round's snapshot concurrently; the store changes only at
  // CommitRound, after every run of the round completed.
  const TrapFile imported = store_;
  if (!salvage_.empty()) {
    store_.Merge(salvage_);
    salvage_ = TrapFile{};
  }
  const AttemptFn run_job = [&](const RunJob& job, tasks::ThreadPool& pool) {
    return run_(job, imported, pool);
  };
  scheduler_.SetCompletionCallback(hooks.commit);
  RoundRun run;
  run.outcomes = scheduler_.ExecuteRound(jobs, run_job, retry_, hooks.interrupt);
  scheduler_.SetCompletionCallback({});
  run.drained = scheduler_.draining();
  return run;
}

CampaignResult RunCampaign(const CampaignOptions& options) {
  // Corpus, config, and per-run execution come from the shared core
  // (run_executor.h), so fleet agents execute runs bit-identically.
  const std::vector<workload::ModuleSpec> corpus = BuildCampaignCorpus(options).modules;
  LocalExecutor executor(options, &corpus);
  CampaignResult result = CampaignDriver(options, corpus).Run(&executor);
  result.salvaged_checkpoints = executor.salvaged_checkpoints();
  return result;
}

}  // namespace tsvd::campaign
