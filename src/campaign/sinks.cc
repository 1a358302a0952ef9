#include "src/campaign/sinks.h"

#include "src/campaign/json.h"
#include "src/report/trap_file.h"
#include "src/sandbox/outcome_codec.h"

namespace tsvd::campaign {

SignatureParts ParseSignature(const std::string& signature) {
  SignatureParts parts;
  const size_t space = signature.find(' ');
  const std::string location = space == std::string::npos ? signature : signature.substr(0, space);
  parts.api = space == std::string::npos ? "" : signature.substr(space + 1);
  const size_t colon = location.rfind(':');
  if (colon == std::string::npos) {
    parts.file = location;
    return parts;
  }
  parts.file = location.substr(0, colon);
  const std::string line = location.substr(colon + 1);
  parts.line = 0;
  for (char c : line) {
    if (c < '0' || c > '9') {
      return parts;
    }
    parts.line = parts.line * 10 + (c - '0');
  }
  return parts;
}

namespace {

Json BugToJson(const BugReportMgr::UniqueBug& bug) {
  Json j = Json::MakeObject();
  j.Set("pair", [&] {
    Json pair = Json::MakeArray();
    pair.Push(bug.sig_first);
    pair.Push(bug.sig_second);
    return pair;
  }());
  j.Set("api_first", bug.api_first);
  j.Set("api_second", bug.api_second);
  j.Set("first_round", bug.first_round);
  j.Set("occurrences", bug.occurrences);
  j.Set("distinct_stack_pairs", bug.stack_digests.size());
  j.Set("read_write", bug.read_write);
  j.Set("same_location", bug.same_location);
  j.Set("async", bug.async_flavor);
  Json modules = Json::MakeArray();
  for (const std::string& module : bug.modules) {
    modules.Push(module);
  }
  j.Set("modules", std::move(modules));
  return j;
}

// A run is reportable when it ended badly, needed more than one attempt, or ran
// part of its length uninstrumented because the fail-open firewall tripped; healthy
// first-attempt runs stay out of the forensics trail.
bool IsFailureRecord(const RunOutcome& outcome) {
  if (outcome.status == RunStatus::kSkipped) {
    return false;  // drain-skipped, not failed: resume will execute it
  }
  return outcome.status != RunStatus::kOk || outcome.attempts > 1 ||
         outcome.runtime_disabled;
}

Json FailureToJson(const RunOutcome& outcome) {
  Json j = Json::MakeObject();
  j.Set("module", outcome.module);
  j.Set("module_index", outcome.module_index);
  j.Set("round", outcome.round);
  j.Set("status", sandbox::RunStatusName(outcome.status));
  j.Set("attempts", outcome.attempts);
  j.Set("degrade_level", outcome.degrade_level);
  j.Set("quarantined", outcome.quarantined);
  j.Set("killed_by_signal", outcome.killed_by_signal);
  j.Set("crash_signature", outcome.crash_signature);
  j.Set("salvaged_trap_pairs", outcome.salvaged_trap_pairs);
  j.Set("internal_errors", outcome.internal_errors);
  j.Set("runtime_disabled", outcome.runtime_disabled);
  Json errors = Json::MakeArray();
  for (const std::string& error : outcome.attempt_errors) {
    errors.Push(error);
  }
  j.Set("attempt_errors", std::move(errors));
  return j;
}

}  // namespace

std::string RenderJson(const CampaignMeta& meta, const std::vector<RoundStats>& rounds,
                       const std::vector<BugReportMgr::UniqueBug>& bugs,
                       const std::vector<RunOutcome>& outcomes) {
  Json root = Json::MakeObject();

  Json campaign = Json::MakeObject();
  campaign.Set("detector", meta.detector);
  campaign.Set("modules", meta.num_modules);
  campaign.Set("workers", meta.workers);
  campaign.Set("rounds_requested", meta.rounds_requested);
  campaign.Set("rounds_executed", meta.rounds_executed);
  campaign.Set("converged", meta.converged);
  campaign.Set("interrupted", meta.interrupted);
  campaign.Set("sandbox", meta.sandbox);
  campaign.Set("scale", meta.scale);
  campaign.Set("seed", meta.seed);
  campaign.Set("durability", meta.durability);
  root.Set("campaign", std::move(campaign));

  // Injected storage-fault counts, present only when a ChaosFs schedule was
  // installed — the hook CI uses to assert a seeded schedule actually fired.
  if (!meta.storage_faults.empty()) {
    Json chaos = Json::MakeObject();
    for (const auto& [cls, count] : meta.storage_faults) {
      chaos.Set(cls, count);
    }
    root.Set("storage_chaos", std::move(chaos));
  }

  Json round_array = Json::MakeArray();
  DelayCounts total_delays;
  int total_disabled = 0;
  for (const RoundStats& r : rounds) {
    round_array.Push(EncodeFields(r));
    total_delays.Add(r);
    total_disabled += r.runtime_disabled;
  }
  root.Set("rounds", std::move(round_array));

  Json bug_array = Json::MakeArray();
  uint64_t manifestations = 0;
  for (const auto& bug : bugs) {
    bug_array.Push(BugToJson(bug));
    manifestations += bug.stack_digests.size();
  }
  root.Set("unique_bugs", std::move(bug_array));

  // Failure forensics: one record per run that crashed, timed out, or retried —
  // in outcome (= job) order, so the rendering is deterministic.
  Json failures = Json::MakeArray();
  uint64_t salvaged = 0;
  for (const RunOutcome& outcome : outcomes) {
    if (IsFailureRecord(outcome)) {
      failures.Push(FailureToJson(outcome));
      salvaged += outcome.salvaged_trap_pairs;
    }
  }
  root.Set("run_failures", std::move(failures));

  Json totals = EncodeFields(total_delays);
  totals.Set("unique_bugs", bugs.size());
  totals.Set("distinct_stack_pairs", manifestations);
  totals.Set("runtime_disabled", total_disabled);
  totals.Set("salvaged_trap_pairs", salvaged);
  root.Set("totals", std::move(totals));

  return root.Dump(2);
}

std::string RenderSarif(const CampaignMeta& meta,
                        const std::vector<BugReportMgr::UniqueBug>& bugs,
                        const std::vector<RunOutcome>& outcomes) {
  Json root = Json::MakeObject();
  root.Set("$schema",
           "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/"
           "sarif-schema-2.1.0.json");
  root.Set("version", "2.1.0");

  Json rule = Json::MakeObject();
  rule.Set("id", "TSVD0001");
  rule.Set("name", "ThreadSafetyViolation");
  Json short_desc = Json::MakeObject();
  short_desc.Set("text",
                 "Two threads made conflicting, unsynchronized calls into a "
                 "thread-unsafe data structure.");
  rule.Set("shortDescription", std::move(short_desc));

  Json driver = Json::MakeObject();
  driver.Set("name", "TSVD");
  driver.Set("informationUri", "https://doi.org/10.1145/3341301.3359638");
  driver.Set("version", "1.0.0");
  Json rules = Json::MakeArray();
  rules.Push(std::move(rule));
  driver.Set("rules", std::move(rules));

  Json tool = Json::MakeObject();
  tool.Set("driver", std::move(driver));

  Json results = Json::MakeArray();
  for (const auto& bug : bugs) {
    Json result = Json::MakeObject();
    result.Set("ruleId", "TSVD0001");
    result.Set("ruleIndex", 0);
    result.Set("level", "error");

    Json message = Json::MakeObject();
    std::string text = "Thread-safety violation between " + bug.sig_first + " and " +
                       bug.sig_second + " (" +
                       std::to_string(bug.stack_digests.size()) +
                       " distinct stack pair(s) across " +
                       std::to_string(bug.modules.size()) + " module(s), first seen in "
                       "round " + std::to_string(bug.first_round) + ").";
    message.Set("text", std::move(text));
    result.Set("message", std::move(message));

    Json locations = Json::MakeArray();
    for (const std::string& sig : {bug.sig_first, bug.sig_second}) {
      const SignatureParts parts = ParseSignature(sig);
      Json artifact = Json::MakeObject();
      artifact.Set("uri", parts.file);
      Json region = Json::MakeObject();
      region.Set("startLine", parts.line > 0 ? parts.line : 1);
      Json physical = Json::MakeObject();
      physical.Set("artifactLocation", std::move(artifact));
      physical.Set("region", std::move(region));
      Json location = Json::MakeObject();
      location.Set("physicalLocation", std::move(physical));
      Json msg = Json::MakeObject();
      msg.Set("text", parts.api);
      location.Set("message", std::move(msg));
      locations.Push(std::move(location));
      if (bug.sig_first == bug.sig_second) {
        break;  // same-location bug: one site, listed once
      }
    }
    result.Set("locations", std::move(locations));

    Json fingerprints = Json::MakeObject();
    fingerprints.Set("tsvdPairSignature/v1", bug.sig_first + "\t" + bug.sig_second);
    result.Set("partialFingerprints", std::move(fingerprints));

    Json properties = Json::MakeObject();
    properties.Set("occurrences", bug.occurrences);
    properties.Set("distinctStackPairs", bug.stack_digests.size());
    properties.Set("readWrite", bug.read_write);
    properties.Set("async", bug.async_flavor);
    properties.Set("detector", meta.detector);
    result.Set("properties", std::move(properties));

    results.Push(std::move(result));
  }

  Json run = Json::MakeObject();
  run.Set("tool", std::move(tool));
  run.Set("results", std::move(results));
  {
    Json properties = Json::MakeObject();
    properties.Set("durability", meta.durability);
    properties.Set("interrupted", meta.interrupted);
    run.Set("properties", std::move(properties));
  }

  // SARIF invocations: one per failed/retried campaign run, carrying the sandbox
  // forensics. Omitted entirely when no outcome trail was provided (legacy calls)
  // so the baseline output shape is unchanged.
  if (!outcomes.empty()) {
    Json invocations = Json::MakeArray();
    for (const RunOutcome& outcome : outcomes) {
      if (!IsFailureRecord(outcome)) {
        continue;
      }
      Json invocation = Json::MakeObject();
      invocation.Set("executionSuccessful", outcome.status == RunStatus::kOk);
      if (!outcome.error.empty()) {
        Json notifications = Json::MakeArray();
        Json note = Json::MakeObject();
        note.Set("level", outcome.status == RunStatus::kOk ? "warning" : "error");
        Json msg = Json::MakeObject();
        msg.Set("text", outcome.error);
        note.Set("message", std::move(msg));
        notifications.Push(std::move(note));
        invocation.Set("toolExecutionNotifications", std::move(notifications));
      }
      Json properties = Json::MakeObject();
      properties.Set("module", outcome.module);
      properties.Set("round", outcome.round);
      properties.Set("status", sandbox::RunStatusName(outcome.status));
      properties.Set("attempts", outcome.attempts);
      properties.Set("degradeLevel", outcome.degrade_level);
      properties.Set("quarantined", outcome.quarantined);
      properties.Set("killedBySignal", outcome.killed_by_signal);
      properties.Set("crashSignature", outcome.crash_signature);
      properties.Set("salvagedTrapPairs", outcome.salvaged_trap_pairs);
      properties.Set("internalErrors", outcome.internal_errors);
      properties.Set("runtimeDisabled", outcome.runtime_disabled);
      properties.Set("delaysAbortedStall", outcome.delays_aborted_stall);
      invocation.Set("properties", std::move(properties));
      invocations.Push(std::move(invocation));
    }
    if (invocations.size() > 0) {
      run.Set("invocations", std::move(invocations));
    }
  }

  Json runs = Json::MakeArray();
  runs.Push(std::move(run));
  root.Set("runs", std::move(runs));

  return root.Dump(2);
}

bool WriteFileAtomic(const std::string& path, const std::string& content,
                     int* err) {
  return AtomicWriteFileDurable(path, content, DurableFileSyncEnabled(), err);
}

}  // namespace tsvd::campaign
