#include "src/campaign/run_executor.h"

#include <algorithm>
#include <filesystem>
#include <unordered_set>
#include <utility>

#include "src/campaign/sinks.h"
#include "src/common/callsite.h"
#include "src/sandbox/sandbox.h"
#include "src/tasks/thread_pool.h"
#include "src/workload/corpus.h"
#include "src/workload/faults.h"
#include "src/workload/scaling.h"

namespace tsvd::campaign {
namespace {

// Canonical signature pair for one caught location pair.
std::pair<std::string, std::string> SignaturesOf(const LocationPair& pair) {
  const CallSiteRegistry& registry = CallSiteRegistry::Instance();
  std::string a = registry.Get(pair.first).Signature();
  std::string b = registry.Get(pair.second).Signature();
  if (b < a) {
    std::swap(a, b);
  }
  return {std::move(a), std::move(b)};
}

// The delay-degradation ladder (graceful degradation after watchdog timeouts): each
// level multiplies delay_us and the per-thread delay budget by these factors, so a
// retried run injects less total delay and finishes inside the deadline instead of
// thrashing against the watchdog. An unlimited budget is first pinned to
// kDegradeInitialBudgetDelays full-length delays so there is something to tighten;
// neither value falls below kDegradeMinDelayUs.
constexpr double kDegradeDelayFactor = 0.5;
constexpr double kDegradeBudgetFactor = 0.5;
constexpr int kDegradeInitialBudgetDelays = 32;
constexpr Micros kDegradeMinDelayUs = 1'000;

Config DegradeConfig(Config cfg, int level) {
  if (level <= 0) {
    return cfg;
  }
  if (cfg.max_delay_per_thread_us <= 0) {
    cfg.max_delay_per_thread_us = kDegradeInitialBudgetDelays * cfg.delay_us;
  }
  for (int i = 0; i < level; ++i) {
    cfg.delay_us = std::max<Micros>(
        kDegradeMinDelayUs,
        static_cast<Micros>(static_cast<double>(cfg.delay_us) * kDegradeDelayFactor));
    cfg.max_delay_per_thread_us = std::max<Micros>(
        kDegradeMinDelayUs,
        static_cast<Micros>(static_cast<double>(cfg.max_delay_per_thread_us) *
                            kDegradeBudgetFactor));
  }
  return cfg;
}

// One instrumented run on an already-configured runner; lifts run records into the
// campaign data model.
RunOutcome ExecuteJob(const RunJob& job, workload::ModuleRunner& runner,
                      const workload::ModuleSpec& spec,
                      const workload::DetectorFactory& factory,
                      const TrapFile& imported, uint64_t campaign_seed) {
  const uint64_t salt = RoundSalt(campaign_seed, job.round);
  workload::SingleRun single = runner.RunOnce(spec, factory, imported, salt);

  RunOutcome outcome;
  outcome.module_index = job.module_index;
  outcome.module = spec.name;
  outcome.round = job.round;
  outcome.degrade_level = job.degrade_level;
  outcome.wall_us = single.run.wall_us;
  outcome.oncall_count = single.run.summary.oncall_count;
  static_cast<DelayCounts&>(outcome) = single.run.summary;
  outcome.internal_errors = single.run.summary.internal_errors;
  outcome.runtime_disabled = single.run.summary.runtime_disabled;
  outcome.imported_pairs = single.imported_pairs;
  outcome.false_positives = single.run.false_positives;
  outcome.traps = std::move(single.traps);

  std::unordered_set<uint64_t> retrapped_seen;
  outcome.observations.reserve(single.run.records.size());
  for (const workload::ReportRecord& record : single.run.records) {
    auto [sig_a, sig_b] = SignaturesOf(record.pair);
    if (imported.Contains(sig_a, sig_b)) {
      // This pair was armed from the merged store before the run began — it could be
      // (and with probability 1 arming, typically was) trapped on its first dynamic
      // occurrence in this run. Count each pair once per run.
      const uint64_t key = LocationPairHash{}(record.pair);
      if (retrapped_seen.insert(key).second) {
        ++outcome.retrapped_imported;
      }
    }
    BugObservation obs;
    obs.sig_first = std::move(sig_a);
    obs.sig_second = std::move(sig_b);
    // api_first/api_second follow the canonical signature order.
    const auto first_parts = ParseSignature(obs.sig_first);
    const auto second_parts = ParseSignature(obs.sig_second);
    obs.api_first = first_parts.api;
    obs.api_second = second_parts.api;
    obs.stack_digest = record.stack_pair_hash;
    obs.module = spec.name;
    obs.round = job.round;
    obs.read_write = record.read_write;
    obs.same_location = record.same_location;
    obs.async_flavor = record.async_flavor;
    obs.false_positive = record.false_positive;
    outcome.observations.push_back(std::move(obs));
  }
  return outcome;
}

}  // namespace

CampaignCorpus BuildCampaignCorpus(const CampaignOptions& options) {
  workload::CorpusOptions corpus_options;
  corpus_options.num_modules = options.num_modules;
  corpus_options.seed = options.seed;
  corpus_options.buggy_module_fraction = options.buggy_module_fraction;
  corpus_options.params = workload::ScaledParams(options.scale);

  CampaignCorpus corpus;
  corpus.modules = workload::GenerateCorpus(corpus_options);
  corpus.fault_kinds.assign(corpus.modules.size(), "");

  // Fault-injection modules ride at the end of the corpus so their indices do not
  // shift the generated modules' seeds.
  for (int i = 0; i < options.fault_crash_modules; ++i) {
    corpus.modules.push_back(workload::MakeCrashModule(
        "fault_crash_" + std::to_string(i), options.seed ^ (0xc0ffee00ULL + i),
        corpus_options.params));
    corpus.fault_kinds.push_back("crash");
  }
  for (int i = 0; i < options.fault_hang_modules; ++i) {
    corpus.modules.push_back(workload::MakeHangModule(
        "fault_hang_" + std::to_string(i), options.seed ^ (0xbadcafe00ULL + i),
        corpus_options.params));
    corpus.fault_kinds.push_back("hang");
  }
  for (int i = 0; i < options.fault_throw_modules; ++i) {
    corpus.modules.push_back(workload::MakeNonStdThrowModule(
        "fault_throw_" + std::to_string(i), options.seed ^ (0xdeadbea700ULL + i),
        corpus_options.params));
    corpus.fault_kinds.push_back("throw");
  }
  for (int i = 0; i < options.fault_deadlock_modules; ++i) {
    corpus.modules.push_back(workload::MakeDeadlockModule(
        "fault_deadlock_" + std::to_string(i), options.seed ^ (0xdead10c000ULL + i),
        corpus_options.params));
    corpus.fault_kinds.push_back("deadlock");
  }
  return corpus;
}

Config BuildRunConfig(const CampaignOptions& options) {
  Config config = workload::ScaledConfig(options.scale);
  if (options.delay_us_override > 0) {
    config.delay_us = options.delay_us_override;
    // Keep ScaledConfig's budget:delay ratio, otherwise a long override would be
    // skipped by its own per-thread budget.
    config.max_delay_per_thread_us = workload::kBudgetDelaysPerThread * config.delay_us;
  }
  if (options.stall_grace_us >= 0) {
    config.stall_grace_us = options.stall_grace_us;
  }
  if (options.max_overhead_pct >= 0) {
    config.max_overhead_pct = options.max_overhead_pct;
  }
  if (options.max_internal_errors >= 0) {
    config.max_internal_errors = options.max_internal_errors;
  }
  return config;
}

RetryPolicy RetryPolicyFor(const CampaignOptions& options) {
  return RetryPolicy{options.max_attempts, options.sandbox.backoff_base_ms};
}

uint64_t RoundSalt(uint64_t campaign_seed, int round) {
  return campaign_seed * 1000003ULL + static_cast<uint64_t>(round - 1);
}

JournalHeader MakeJournalHeader(const CampaignOptions& options, size_t corpus_size) {
  JournalHeader header;
  header.detector = options.detector;
  header.seed = options.seed;
  header.num_modules = static_cast<int>(corpus_size);
  header.scale = options.scale;
  header.rounds = options.rounds > 0 ? options.rounds : 1;
  return header;
}

RunExecutor::RunExecutor(const CampaignOptions& options,
                         const std::vector<workload::ModuleSpec>* corpus,
                         std::string checkpoint_dir)
    : options_(options),
      corpus_(corpus),
      factory_(workload::FactoryFor(options.detector)),
      config_(BuildRunConfig(options)),
      checkpoint_dir_(std::move(checkpoint_dir)),
      sandboxed_(options.sandbox.enabled && sandbox::ForkSupported()) {}

RunOutcome RunExecutor::Execute(const RunJob& job, const TrapFile& imported,
                                tasks::ThreadPool* pool) const {
  return sandboxed_ ? ExecuteForked(job, imported)
                    : ExecuteInProcess(job, imported, pool);
}

RunOutcome RunExecutor::ExecuteInProcess(const RunJob& job, const TrapFile& imported,
                                         tasks::ThreadPool* pool) const {
  const Config run_cfg = DegradeConfig(config_, job.degrade_level);
  workload::ModuleRunner runner(run_cfg, pool);
  return ExecuteJob(job, runner, (*corpus_)[job.module_index], factory_, imported,
                    options_.seed);
}

RunOutcome RunExecutor::ExecuteForked(const RunJob& job,
                                      const TrapFile& imported) const {
  const workload::ModuleSpec& spec = (*corpus_)[job.module_index];
  const std::string ckpt =
      (std::filesystem::path(checkpoint_dir_) /
       ("ckpt-m" + std::to_string(job.module_index) + "-r" +
        std::to_string(job.round) + ".tsvd"))
          .string();

  sandbox::ForkRun fork_run = sandbox::RunForked(
      [&]() -> RunOutcome {
        // Child side. fork() carried over only this thread: build a fresh task
        // pool, and stream forensics markers so the parent can attribute a
        // crash or SIGKILL even when no outcome ever arrives.
        tasks::ThreadPool child_pool(options_.pool_threads_per_worker);
        const Config run_cfg = DegradeConfig(config_, job.degrade_level);
        workload::ModuleRunner runner(run_cfg, &child_pool);
        runner.set_test_begin_hook([](int index, const std::string& name) {
          sandbox::MarkPhase("test:" + std::to_string(index) + ":" + name);
        });
        runner.set_checkpoint_hook([&ckpt](int, const TrapFile& traps) {
          traps.SaveTo(ckpt);  // atomic: a crash never leaves a torn checkpoint
        });
        runner.set_trap_arm_hook([](const std::string& site) {
          sandbox::MarkTrapSite(site);
        });
        return ExecuteJob(job, runner, spec, factory_, imported, options_.seed);
      },
      options_.sandbox.run_timeout_ms);

  std::error_code ec;
  if (fork_run.status == sandbox::ChildStatus::kOk) {
    std::filesystem::remove(ckpt, ec);
    return std::move(fork_run.outcome);
  }

  // The child died (signal, watchdog, escaped exception): build a forensics
  // outcome and salvage whatever trap pairs its last checkpoint preserved.
  RunOutcome outcome;
  outcome.module_index = job.module_index;
  outcome.module = spec.name;
  outcome.round = job.round;
  outcome.degrade_level = job.degrade_level;
  outcome.status = fork_run.status == sandbox::ChildStatus::kTimedOut
                       ? RunStatus::kTimedOut
                       : RunStatus::kCrashed;
  outcome.error = fork_run.error;
  outcome.killed_by_signal = fork_run.signature.signal;
  outcome.crash_signature = fork_run.signature.Render();
  outcome.wall_us = fork_run.child_wall_us;
  TrapFile salvaged;
  if (TrapFile::SalvageFrom(ckpt, &salvaged)) {
    outcome.salvaged_trap_pairs = salvaged.size();
    outcome.traps = std::move(salvaged);
  }
  std::filesystem::remove(ckpt, ec);
  return outcome;
}

}  // namespace tsvd::campaign
