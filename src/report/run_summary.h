// Aggregated outcome of one instrumented test run.
#ifndef SRC_REPORT_RUN_SUMMARY_H_
#define SRC_REPORT_RUN_SUMMARY_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/report/bug_report.h"
#include "src/report/delay_counts.h"

namespace tsvd {

// The delay-engine counters come from the DelayCounts base.
struct RunSummary : DelayCounts {
  // Every violation caught, including repeated manifestations of the same location pair
  // (the paper reports 18.5 stack-trace pairs per unique bug on average).
  std::vector<BugReport> reports;
  // Unique bugs = unique location pairs.
  std::unordered_set<LocationPair, LocationPairHash> unique_pairs;

  uint64_t oncall_count = 0;
  Micros total_delay_us = 0;
  uint64_t sync_events = 0;
  Micros wall_time_us = 0;

  // Dangerous pairs known at run end (persisted into the trap file for the next run).
  uint64_t trap_set_size = 0;

  // Tail sleep avoided by catch wakes (requested minus actually slept).
  Micros early_wake_saved_us = 0;

  // Fail-open firewall: faults absorbed at the OnCall boundary, and whether they
  // crossed max_internal_errors and disabled instrumentation for the rest of the run.
  uint64_t internal_errors = 0;
  bool runtime_disabled = false;

  void Merge(const RunSummary& other) {
    reports.insert(reports.end(), other.reports.begin(), other.reports.end());
    unique_pairs.insert(other.unique_pairs.begin(), other.unique_pairs.end());
    DelayCounts::Add(other);
    oncall_count += other.oncall_count;
    total_delay_us += other.total_delay_us;
    sync_events += other.sync_events;
    wall_time_us += other.wall_time_us;
    trap_set_size += other.trap_set_size;
    early_wake_saved_us += other.early_wake_saved_us;
    internal_errors += other.internal_errors;
    runtime_disabled = runtime_disabled || other.runtime_disabled;
  }
};

}  // namespace tsvd

#endif  // SRC_REPORT_RUN_SUMMARY_H_
