#include "src/campaign/driver.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "src/campaign/run_executor.h"
#include "src/campaign/sinks.h"
#include "src/io/chaos_fs.h"
#include "src/sandbox/sandbox.h"

namespace tsvd::campaign {

CampaignDriver::CampaignDriver(const CampaignOptions& options,
                               const std::vector<workload::ModuleSpec>& corpus)
    : options_(options),
      corpus_(corpus),
      rounds_(options.rounds > 0 ? options.rounds : 1),
      persist_(!options.out_dir.empty()),
      quarantined_(corpus.size(), 0) {
  result_.options = options;
  hooks_.commit = [this](const RunOutcome& outcome) { Commit(outcome); };
  hooks_.event = [this](const std::string& kind, const std::string& detail) {
    if (journal_.is_open()) {
      journal_.AppendEvent(kind, detail);
    }
  };
  // Disk-full drains exactly like a delivered signal.
  hooks_.interrupt = [this] {
    return storage_drain_.load(std::memory_order_relaxed) ||
           (options_.interrupt && options_.interrupt());
  };
}

CampaignResult CampaignDriver::Run(RoundExecutor* executor) {
  executor_ = executor;
  TrapFile traps;
  if (!Open(&traps)) {
    return std::move(result_);
  }
  std::string error;
  if (!executor_->Restore(std::move(traps), &error)) {
    journal_.Close();
    result_.error = error;
    return std::move(result_);
  }

  for (int round = start_round_; !already_done_ && round <= rounds_; ++round) {
    if (hooks_.interrupt()) {
      // Signal (or disk-full drain) arrived between rounds: stop before
      // dispatching anything.
      result_.interrupted = true;
      break;
    }
    // Runs of this round already committed to the ledger (resume of an
    // interrupted round): reconstructed, not re-executed.
    std::vector<RunOutcome> replayed = std::move(pending_);
    pending_.clear();
    const std::vector<RunJob> jobs = Jobs(round, replayed);
    if (jobs.empty() && replayed.empty()) {
      break;
    }

    const Micros round_start = NowMicros();
    RoundRun run;
    if (!jobs.empty()) {
      run = executor_->ExecuteRound(jobs, hooks_);
    }
    if (!run.fatal.empty()) {
      result_.error = std::move(run.fatal);
      break;
    }
    RoundStats stats;
    stats.round = round;
    stats.wall_us = NowMicros() - round_start;
    stats.interrupted = run.drained;
    for (RunOutcome& o : replayed) {
      run.outcomes.push_back(std::move(o));
    }
    TrapFile round_traps;
    Ingest(std::move(run.outcomes), &stats, &round_traps);
    stats.trap_pairs_after = executor_->CommitRound(round_traps);
    result_.rounds.push_back(stats);

    if (run.drained) {
      // The round is uncommitted: no trap-store save, no round record, no
      // snapshot. The ledger's run records cover exactly the runs that finished
      // before the drain; a resumed campaign executes the rest with the same
      // imported trap snapshot and recomputes this round's stats in full.
      result_.interrupted = true;
      break;
    }
    CommitRound(stats);
    if (options_.stop_when_converged && stats.new_unique_bugs == 0) {
      result_.converged = true;
    }
    FlushReports();
    if (result_.converged) {
      break;
    }
  }
  Finish();
  return std::move(result_);
}

bool CampaignDriver::Open(TrapFile* traps) {
  if (options_.resume && !persist_) {
    result_.error = "resume requires an output directory (out_dir)";
    return false;
  }
  if (!persist_) {
    return true;
  }
  const std::filesystem::path dir(options_.out_dir);
  std::filesystem::create_directories(dir);
  result_.trap_path = (dir / "traps.tsvd").string();
  const std::string journal_path = CampaignJournal::PathIn(options_.out_dir);
  result_.journal_path = journal_path;

  // The journal's identity stamp: resume refuses a ledger written under a
  // different (detector, seed, corpus, scale) — the replayed outcomes would not
  // match what this campaign would have produced.
  const JournalHeader header = MakeJournalHeader(options_, corpus_.size());
  JournalReplay replay;
  std::error_code ec;
  // A missing, unreadable or headerless journal starts fresh, so automation can
  // always pass resume, even after a kill that predated the first append.
  const bool fresh = !options_.resume || !std::filesystem::exists(journal_path, ec) ||
                     !CampaignJournal::Load(journal_path, &replay) ||
                     !replay.has_header;
  if (!fresh) {
    std::string why;
    if (!header.CompatibleWith(replay.header, &why)) {
      result_.error = "resume refused: journal identity mismatch (" + why + ")";
      return false;
    }
    if (replay.torn_tail) {
      // Cut the dangling partial record of the crashed append so this
      // session's records start on a clean line.
      std::filesystem::resize_file(journal_path, replay.valid_bytes, ec);
    }
    Resume(std::move(replay), traps);
  }
  if (!journal_.Open(journal_path, header, /*truncate=*/fresh,
                     /*fsync=*/DurableFileSyncEnabled())) {
    result_.error = "failed to open campaign journal at " + journal_path;
    if (journal_.last_errno() != 0) {
      result_.error += ": " + std::string(std::strerror(journal_.last_errno()));
    }
    return false;
  }
  journal_.set_replayed_run_records(result_.resumed_runs);
  return true;
}

void CampaignDriver::Resume(JournalReplay replay, TrapFile* traps) {
  result_.rounds = replay.completed_rounds;
  result_.resumed_rounds = static_cast<int>(replay.completed_rounds.size());
  result_.resumed_runs = replay.outcomes.size();
  start_round_ = result_.resumed_rounds + 1;

  // Dedup-state fast path: restore the last snapshot, then re-ingest only the
  // ledger tail it does not cover.
  BugMgrSnapshot snap;
  if (LoadBugMgrSnapshot(CampaignJournal::SnapshotPathIn(options_.out_dir), &snap) &&
      snap.watermark <= replay.outcomes.size()) {
    last_snapshot_mark_ = snap.watermark;
    mgr_.Restore(std::move(snap.bugs));
  }

  // Records of committed rounds are reconstructed and never re-executed;
  // records of the interrupted round wait in pending_ for the round loop.
  std::vector<std::pair<uint64_t, RunOutcome>> completed;
  completed.reserve(replay.outcomes.size());
  for (uint64_t i = 0; i < replay.outcomes.size(); ++i) {
    RunOutcome& o = replay.outcomes[i];
    BackfillModuleName(&o);
    if (o.quarantined && o.module_index >= 0 &&
        o.module_index < static_cast<int>(quarantined_.size())) {
      quarantined_[o.module_index] = 1;  // stays benched
    }
    if (o.round >= start_round_) {
      pending_.push_back(std::move(o));
    } else {
      completed.emplace_back(i, std::move(o));
    }
  }
  // The ledger appends in completion order; the live campaign ingests in
  // (round, module) order. Restore that order so resumed artifacts match an
  // uninterrupted campaign's.
  std::sort(completed.begin(), completed.end(), [](const auto& a, const auto& b) {
    if (a.second.round != b.second.round) {
      return a.second.round < b.second.round;
    }
    if (a.second.module_index != b.second.module_index) {
      return a.second.module_index < b.second.module_index;
    }
    return a.first < b.first;
  });
  for (auto& [index, o] : completed) {
    if (index >= last_snapshot_mark_) {
      for (const BugObservation& obs : o.observations) {
        mgr_.Ingest(obs);
      }
    }
    // The store is exactly the union of every processed outcome's trap export,
    // so rebuilding it from the ledger reproduces the store the interrupted
    // round imported — traps.tsvd is not even needed.
    traps->Merge(o.traps);
    result_.false_positives += o.false_positives;
    result_.outcomes.push_back(std::move(o));
  }

  if (replay.complete) {
    already_done_ = true;
    result_.converged = replay.converged;
  } else if (pending_.empty() && options_.stop_when_converged &&
             !result_.rounds.empty() && result_.rounds.back().new_unique_bugs == 0) {
    // Crash between the round record and the complete record: reconstruct the
    // convergence decision the dead campaign was about to commit.
    already_done_ = true;
    result_.converged = true;
  }
}

std::vector<RunJob> CampaignDriver::Jobs(int round,
                                         const std::vector<RunOutcome>& replayed) const {
  std::vector<char> skip = quarantined_;
  for (const RunOutcome& o : replayed) {
    if (o.module_index >= 0 && o.module_index < static_cast<int>(skip.size())) {
      skip[o.module_index] = 1;  // its ledger record already exists this round
    }
  }
  std::vector<RunJob> jobs;
  jobs.reserve(corpus_.size());
  for (size_t m = 0; m < corpus_.size(); ++m) {
    if (!skip[m]) {
      jobs.push_back(RunJob{static_cast<int>(m), round, 1, 0});
    }
  }
  return jobs;
}

void CampaignDriver::Commit(const RunOutcome& outcome) {
  if (!journal_.is_open()) {
    return;
  }
  RunOutcome record = outcome;
  BackfillModuleName(&record);
  if (!journal_.AppendRun(record)) {
    // The journal fail-closed (journal.cc retried once on a fresh handle
    // first). The run itself still counts — only its replay record is gone.
    ApplyStorageErrno(journal_.last_errno());
  }
}

void CampaignDriver::Ingest(std::vector<RunOutcome> outcomes, RoundStats* stats,
                            TrapFile* round_traps) {
  // Replayed ledger records and freshly executed runs are processed uniformly,
  // in module order — the same order as an uninterrupted round, so every
  // artifact is deterministic for a given seed regardless of which worker or
  // agent ran which job, or where a crash split the round.
  std::stable_sort(outcomes.begin(), outcomes.end(),
                   [](const RunOutcome& a, const RunOutcome& b) {
                     return a.module_index < b.module_index;
                   });
  for (RunOutcome& outcome : outcomes) {
    if (outcome.status == RunStatus::kSkipped) {
      // Never dispatched (drain). Not a run: no stats, no ledger record, no
      // report entry — the resumed campaign executes it from scratch.
      continue;
    }
    ++stats->runs;
    BackfillModuleName(&outcome);
    if (outcome.status == RunStatus::kCrashed) {
      ++stats->crashed;
      if (outcome.killed_by_signal != 0) {
        ++stats->killed_by_signal;
      }
    }
    if (outcome.status == RunStatus::kTimedOut) {
      ++stats->timed_out;
    }
    if (outcome.attempts > 1) {
      ++stats->retried;
    }
    if (outcome.quarantined) {
      ++stats->quarantined;
      if (outcome.module_index >= 0 &&
          outcome.module_index < static_cast<int>(quarantined_.size())) {
        quarantined_[outcome.module_index] = 1;
      }
    }
    stats->DelayCounts::Add(outcome);
    if (outcome.runtime_disabled) {
      ++stats->runtime_disabled;
    }
    stats->retrapped_imported += outcome.retrapped_imported;
    result_.false_positives += outcome.false_positives;
    for (const BugObservation& obs : outcome.observations) {
      if (mgr_.Ingest(obs)) {
        ++stats->new_unique_bugs;
      }
    }
    round_traps->Merge(outcome.traps);
    result_.outcomes.push_back(std::move(outcome));
  }
}

void CampaignDriver::CommitRound(const RoundStats& stats) {
  if (!persist_) {
    return;
  }
  const std::string trap_path =
      (std::filesystem::path(options_.out_dir) / "traps.tsvd").string();
  int save_err = 0;
  if (!executor_->Snapshot().SaveTo(trap_path, &save_err)) {
    result_.trap_path.clear();
    if (save_err == ENOSPC) {
      storage_drain_.store(true, std::memory_order_relaxed);
    }
    // Round record withheld: "a round record implies traps.tsvd reflects the
    // round" survives storage faults; resume re-executes the round instead.
    return;
  }
  result_.trap_path = trap_path;
  if (!journal_.is_open()) {
    return;
  }
  if (!journal_.AppendRoundComplete(stats, mgr_.UniqueBugCount())) {
    ApplyStorageErrno(journal_.last_errno());
  }
  if (journal_.is_open() && options_.journal_snapshot_every > 0 &&
      journal_.run_records() - last_snapshot_mark_ >=
          static_cast<uint64_t>(options_.journal_snapshot_every)) {
    int snap_err = 0;
    if (SaveBugMgrSnapshot(CampaignJournal::SnapshotPathIn(options_.out_dir), mgr_,
                           journal_.run_records(), DurableFileSyncEnabled(),
                           &snap_err)) {
      last_snapshot_mark_ = journal_.run_records();
    } else if (snap_err == ENOSPC) {
      storage_drain_.store(true, std::memory_order_relaxed);
    }
  }
}

// Flushed after every committed round and once at the end: campaign.json and
// campaign.sarif always reflect the last committed state, stamped
// "interrupted": true when a drain cut the campaign short.
void CampaignDriver::FlushReports() {
  if (!persist_) {
    return;
  }
  CampaignMeta meta;
  meta.detector = options_.detector;
  meta.num_modules = static_cast<int>(corpus_.size());
  meta.workers = executor_->workers();
  meta.rounds_requested = rounds_;
  meta.rounds_executed = static_cast<int>(result_.rounds.size());
  meta.converged = result_.converged;
  meta.interrupted = result_.interrupted;
  meta.sandbox = options_.sandbox.enabled && sandbox::ForkSupported();
  meta.scale = options_.scale;
  meta.seed = options_.seed;
  meta.durability = journal_lost_.load(std::memory_order_relaxed) ? "degraded" : "ok";
  if (const io::ChaosFs* chaos = io::InstalledChaosFs()) {
    meta.storage_faults = chaos->stats().Classes();
  }
  const std::filesystem::path dir(options_.out_dir);
  const std::string json_path = (dir / "campaign.json").string();
  const std::string sarif_path = (dir / "campaign.sarif").string();
  const std::vector<BugReportMgr::UniqueBug> bugs = mgr_.Bugs();
  int sink_err = 0;
  if (WriteFileAtomic(json_path, RenderJson(meta, result_.rounds, bugs, result_.outcomes),
                      &sink_err)) {
    result_.json_path = json_path;
  } else if (sink_err == ENOSPC) {
    storage_drain_.store(true, std::memory_order_relaxed);
  }
  if (WriteFileAtomic(sarif_path, RenderSarif(meta, bugs, result_.outcomes), &sink_err)) {
    result_.sarif_path = sarif_path;
  } else if (sink_err == ENOSPC) {
    storage_drain_.store(true, std::memory_order_relaxed);
  }
}

void CampaignDriver::Finish() {
  result_.bugs = mgr_.Bugs();
  result_.merged_traps = executor_->Snapshot();
  if (storage_drain_.load(std::memory_order_relaxed)) {
    // Disk-full drain: cut short like a signal drain, plus the distinct
    // disk_full marker the CLIs map to their own exit code.
    result_.disk_full = true;
    result_.interrupted = true;
  }
  if (journal_.is_open() && !result_.interrupted && result_.error.empty() &&
      !already_done_ && !journal_.AppendCampaignComplete(result_.converged)) {
    ApplyStorageErrno(journal_.last_errno());
    result_.disk_full = storage_drain_.load(std::memory_order_relaxed);
  }
  result_.journal_degraded = journal_lost_.load(std::memory_order_relaxed);
  journal_.Close();
  FlushReports();
}

void CampaignDriver::ApplyStorageErrno(int err) {
  if (err == ENOSPC) {
    storage_drain_.store(true, std::memory_order_relaxed);
  } else {
    journal_lost_.store(true, std::memory_order_relaxed);
  }
}

void CampaignDriver::BackfillModuleName(RunOutcome* outcome) const {
  // An attempt that threw produces a synthesized outcome with no module name
  // (the scheduler only knows indices); backfill it for the artifact trail.
  if (outcome->module.empty() && outcome->module_index >= 0 &&
      outcome->module_index < static_cast<int>(corpus_.size())) {
    outcome->module = corpus_[outcome->module_index].name;
  }
}

}  // namespace tsvd::campaign
