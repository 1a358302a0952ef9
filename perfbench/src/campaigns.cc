// The campaign layer pass of a traced run: one sandboxed RunCampaign with an
// on-disk out_dir, so every run pays fork, the outcome codec and a journal
// fsync, and every round a trap-store save and the JSON/SARIF sinks. Its
// outcomes and merged store feed LayerProbe, and the campaign itself goes
// through the correctness gate: failed, retried or quarantined runs, false
// positives, campaign.json/.sarif that do not parse, and a trap store whose
// round trip or saved file differs.
//
// Whole campaigns are not an end-to-end workload: on a shared VM the fork
// sandbox's cost relative to the same runs in-process moved by a quarter
// between sets of runs (see README.md).
//
// Every module of the corpus carries a bug (buggy_module_fraction = 1).
// Paths are relative: run.py starts tsvdbench in a scratch directory of its own.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

#include "perfbench/src/bench.h"
#include "src/campaign/json.h"

namespace perfbench {
namespace {

using tsvd::campaign::CampaignOptions;
using tsvd::campaign::CampaignResult;

constexpr double kScale = 0.005;
constexpr int kSmokeModules = 8;
constexpr int kLayerPassModules = 12;
constexpr int kRounds = 2;
constexpr int kWorkers = 2;
constexpr int kPoolThreads = 2;

CampaignOptions MakeOptions(uint64_t seed, int modules) {
  CampaignOptions c;
  c.detector = "TSVD";
  c.num_modules = modules;
  c.workers = kWorkers;
  c.rounds = kRounds;
  c.stop_when_converged = false;
  c.scale = kScale;
  c.seed = seed;
  c.buggy_module_fraction = 1.0;
  c.pool_threads_per_worker = kPoolThreads;
  c.out_dir = "layer-campaign";
  c.sandbox.enabled = true;
  return c;
}

bool ParsesAsJson(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  tsvd::campaign::Json doc;
  return tsvd::campaign::Json::Parse(buf.str(), &doc);
}

// Checks a campaign result for every failure the gate counts.
void CheckCampaign(const CampaignResult& r, Result& result) {
  if (!r.error.empty()) {
    result.Fail("campaign error: " + r.error);
    return;
  }
  if (r.interrupted || r.disk_full || r.journal_degraded) {
    result.Fail("campaign drained or degraded its journal");
  }
  std::set<std::tuple<std::string, std::string, std::string>> bugs;
  for (const auto& o : r.outcomes) {
    ++result.attempted;
    if (o.status != tsvd::campaign::RunStatus::kOk || o.quarantined || o.attempts > 1) {
      result.Fail(o.module + " round " + std::to_string(o.round) + ": " +
                  (o.error.empty() ? "run failed" : o.error));
      continue;
    }
    if (o.false_positives > 0) {
      result.Fail(o.module + ": " + std::to_string(o.false_positives) +
                  " false positive(s)");
      continue;
    }
    for (const auto& obs : o.observations) {
      bugs.insert({o.module, obs.sig_first, obs.sig_second});
    }
  }
  if (r.false_positives > 0) {
    result.Fail("campaign counted " + std::to_string(r.false_positives) +
                " false positive(s)");
  }
  for (const std::string& path : {r.json_path, r.sarif_path}) {
    if (path.empty() || !ParsesAsJson(path)) {
      result.Fail("campaign artifact missing or not JSON: " + path);
    }
  }
  tsvd::TrapFile round_trip;
  if (!tsvd::TrapFile::Deserialize(r.merged_traps.Serialize(), &round_trip) ||
      round_trip.pairs != r.merged_traps.pairs) {
    result.Fail("trap store Serialize -> Deserialize round trip differs");
  }
  tsvd::TrapFile on_disk;
  if (r.trap_path.empty() || !tsvd::TrapFile::LoadFrom(r.trap_path, &on_disk) ||
      on_disk.pairs != r.merged_traps.pairs) {
    result.Fail("saved trap store differs from the campaign's merged store");
  }
  if (bugs.empty()) {
    result.Fail("campaign found no bugs");
  }
}

}  // namespace

CampaignResult CampaignLayerPass(const Options& options, Tracer& tracer,
                                 Result& result) {
  const CampaignOptions copts =
      MakeOptions(options.seed, options.smoke ? kSmokeModules : kLayerPassModules);
  std::error_code ec;
  std::filesystem::remove_all(copts.out_dir, ec);
  const int64_t t0 = NowNs();
  CampaignResult r = tsvd::campaign::RunCampaign(copts);
  const int64_t t1 = NowNs();
  tracer.Add("campaign.campaign", 0, 0, t0, t1);
  CheckCampaign(r, result);
  result.artifacts.push_back(r.json_path);
  result.artifacts.push_back(r.sarif_path);
  // Share of the workers' time spent inside runs (Σ run wall / (workers × wall)).
  double run_wall_s = 0;
  for (const auto& o : r.outcomes) {
    run_wall_s += static_cast<double>(o.wall_us) / 1e6;
  }
  const double wall_s = static_cast<double>(t1 - t0) / 1e9;
  result.Set("campaign.worker_busy_pct", 100.0 * run_wall_s / (kWorkers * wall_s), "%");
  return r;
}

}  // namespace perfbench
