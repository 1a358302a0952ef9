// The part of tsvd_campaign and tsvd_fleet that is one tool: the campaign
// flags, the graceful-stop signal hook, and the printed result with its exit
// code. Each flag here has one name, range and default on both tools.
#ifndef TOOLS_CAMPAIGN_CLI_H_
#define TOOLS_CAMPAIGN_CLI_H_

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>

#include "src/campaign/campaign.h"
#include "tools/flag_parser.h"

namespace tsvd::tools {

// Graceful-stop contract: the handler only records the signal; the campaign's
// interrupt poll observes it between runs, drains in-flight work, flushes the
// journal and partial artifacts, and returns normally. A second signal while
// draining falls through to the default disposition (immediate death) — the
// journal is fsync'd per run, so even that loses nothing committed.
inline std::atomic<int> g_stop_signal{0};

inline void HandleStopSignal(int signal) {
  g_stop_signal.store(signal, std::memory_order_relaxed);
  std::signal(signal, SIG_DFL);
}

inline void InstallStopHandlers() {
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
}

inline bool StopRequested() {
  return g_stop_signal.load(std::memory_order_relaxed) != 0;
}

// The campaign shape, execution policy and persistence flags. `out_default` is
// the tool's artifact directory; `max_attempts_default` lets tsvd_campaign keep
// --retries as an alias of --max_attempts.
inline campaign::CampaignOptions ParseCampaignFlags(FlagParser& flags,
                                                    const std::string& out_default,
                                                    int64_t max_attempts_default = 2) {
  campaign::CampaignOptions options;
  options.rounds = static_cast<int>(flags.GetInt("rounds", 3, 1, 1000));
  options.num_modules = static_cast<int>(flags.GetInt("modules", 40, 1, 100000));
  options.detector = flags.GetString("detector", "TSVD");
  options.scale = flags.GetDouble("scale", 0.02, 1e-6, 1.0);
  options.seed = static_cast<uint64_t>(
      flags.GetInt("seed", 42, 0, std::numeric_limits<int64_t>::max()));
  options.max_attempts =
      static_cast<int>(flags.GetInt("max_attempts", max_attempts_default, 1, 10));
  options.stop_when_converged = !flags.GetBool("no-converge", false);
  options.out_dir = flags.GetString("out", out_default);
  options.resume = flags.GetBool("resume", false);
  options.journal_snapshot_every =
      static_cast<int>(flags.GetInt("journal_snapshot_every", 64, 0, 1000000));
  options.sandbox.enabled = flags.GetBool("sandbox", false);
  options.sandbox.run_timeout_ms =
      static_cast<int>(flags.GetInt("run_timeout_ms", 30000, 0, 86400000));
  options.sandbox.backoff_base_ms =
      static_cast<int>(flags.GetInt("backoff_ms", 50, 0, 60000));
  options.fault_crash_modules = static_cast<int>(flags.GetInt("fault-crash", 0, 0, 100));
  options.fault_hang_modules = static_cast<int>(flags.GetInt("fault-hang", 0, 0, 100));
  options.fault_throw_modules = static_cast<int>(flags.GetInt("fault-throw", 0, 0, 100));
  options.fault_deadlock_modules =
      static_cast<int>(flags.GetInt("fault-deadlock", 0, 0, 100));
  options.delay_us_override = 1000 * flags.GetInt("delay_ms", 0, 0, 3600000);
  options.stall_grace_us = 1000 * flags.GetInt("stall_grace_ms", -1, -1, 3600000);
  options.max_overhead_pct = flags.GetDouble("max_overhead_pct", -1.0, -1.0, 100.0);
  options.max_internal_errors =
      static_cast<int>(flags.GetInt("max_internal_errors", -1, -1, 1000000));
  options.interrupt = StopRequested;
  return options;
}

// Prints a finished campaign — round table, totals, `extra` (the tool's own
// lines), bug list, failure forensics, artifacts — and returns the exit code:
// 2 when the campaign failed, 5 after a disk-full drain, otherwise 0 (a
// graceful signal drain included).
inline int ReportCampaign(const char* tool, const campaign::CampaignResult& result,
                          const std::function<void()>& extra = {}) {
  if (!result.error.empty()) {
    std::fprintf(stderr, "%s: %s\n", tool, result.error.c_str());
    return 2;
  }
  if (result.resumed_runs > 0) {
    std::printf(
        " resumed: %llu run record(s) across %d completed round(s) replayed from "
        "the journal%s\n",
        static_cast<unsigned long long>(result.resumed_runs), result.resumed_rounds,
        result.salvaged_checkpoints > 0 ? ", stale checkpoints salvaged" : "");
  }

  // `skipped` counts delays the budgets refused (delays_skipped_budget), per round
  // so that a round that ran short on delays can be told from one that found less.
  std::printf(
      "\n round  runs  crash  t/out  signal  retry  quar  new-bugs  retrapped  "
      "traps  skipped  wall\n");
  DelayCounts delays;
  int disabled = 0;
  for (const campaign::RoundStats& stats : result.rounds) {
    std::printf(" %5d %5d %6d %6d %7d %6d %5d %9llu %10llu %6zu %8llu  %.2fs\n",
                stats.round, stats.runs, stats.crashed, stats.timed_out,
                stats.killed_by_signal, stats.retried, stats.quarantined,
                static_cast<unsigned long long>(stats.new_unique_bugs),
                static_cast<unsigned long long>(stats.retrapped_imported),
                stats.trap_pairs_after,
                static_cast<unsigned long long>(stats.delays_skipped_budget),
                static_cast<double>(stats.wall_us) / 1e6);
    delays.Add(stats);
    disabled += stats.runtime_disabled;
  }
  if (result.converged) {
    std::printf(" converged after %zu round(s)\n", result.rounds.size());
  }

  std::printf("\nunique bugs: %llu   runs executed: %llu   false positives: %d\n",
              static_cast<unsigned long long>(result.UniqueBugCount()),
              static_cast<unsigned long long>(result.RunsExecuted()),
              result.false_positives);
  if (extra) {
    extra();
  }
  if (delays.delays_early_woken + delays.delays_aborted_stall +
          delays.delays_skipped_budget + disabled > 0) {
    std::printf(
        "delay engine: %llu early-woken, %llu aborted by sentinel, "
        "%llu skipped by budget, %d run(s) fail-open disabled\n",
        static_cast<unsigned long long>(delays.delays_early_woken),
        static_cast<unsigned long long>(delays.delays_aborted_stall),
        static_cast<unsigned long long>(delays.delays_skipped_budget), disabled);
  }

  int printed = 0;
  for (const auto& bug : result.bugs) {
    if (printed++ == 8) {
      std::printf("  ... and %zu more\n", result.bugs.size() - 8);
      break;
    }
    std::printf("  [round %d, %llux] %s  <->  %s\n", bug.first_round,
                static_cast<unsigned long long>(bug.occurrences),
                bug.sig_first.c_str(), bug.sig_second.c_str());
  }

  // Failure forensics: every run that crashed, timed out, or needed a retry.
  printed = 0;
  for (const campaign::RunOutcome& outcome : result.outcomes) {
    if (outcome.status == campaign::RunStatus::kOk && outcome.attempts <= 1) {
      continue;
    }
    if (printed++ == 0) {
      std::printf("\nrun failures:\n");
    }
    std::printf("  [round %d] %s: %s after %d attempt(s)%s%s%s\n", outcome.round,
                outcome.module.c_str(),
                outcome.status == campaign::RunStatus::kOk          ? "recovered"
                : outcome.status == campaign::RunStatus::kTimedOut  ? "timed out"
                                                                    : "crashed",
                outcome.attempts, outcome.quarantined ? ", quarantined" : "",
                outcome.crash_signature.empty() ? "" : " — ",
                outcome.crash_signature.c_str());
  }

  if (!result.trap_path.empty()) {
    std::printf("\nartifacts:\n  %s\n  %s\n  %s\n", result.trap_path.c_str(),
                result.json_path.c_str(), result.sarif_path.c_str());
    if (!result.journal_path.empty()) {
      std::printf("  %s\n", result.journal_path.c_str());
    }
  }
  std::fflush(stdout);

  if (result.journal_degraded) {
    std::fprintf(stderr,
                 "%s: journal write failed (I/O error); campaign completed "
                 "journal-less — reports are stamped \"durability\": "
                 "\"degraded\" and this run cannot be resumed.\n",
                 tool);
  }
  if (result.disk_full) {
    // The distinct disk-full verdict: consistent partial state on disk, but
    // automation must know the campaign stopped for storage, not by choice.
    std::fprintf(stderr,
                 "%s: output device full (ENOSPC); drained gracefully — journal "
                 "and partial reports flushed. Free space and rerun with --resume "
                 "to continue.\n",
                 tool);
    return 5;
  }
  if (result.interrupted) {
    // A drained campaign is a clean exit (the journal and partial reports are
    // flushed and consistent), not a failure — so automation that wraps the
    // tool does not treat a routine preemption as an error.
    std::fprintf(stderr,
                 "%s: interrupted by signal %d after a graceful drain; journal "
                 "and partial reports flushed — rerun with --resume to "
                 "continue.\n",
                 tool, g_stop_signal.load(std::memory_order_relaxed));
  }
  return 0;
}

}  // namespace tsvd::tools

#endif  // TOOLS_CAMPAIGN_CLI_H_
