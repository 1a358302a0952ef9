// The campaign driver must not care which executor feeds it. One scripted
// outcome stream goes through the single-process LocalExecutor (its outcomes
// finish in a shuffled order across workers) and through the fleet
// coordinator's lease table (protocol-speaking fake agents lease a batch and
// publish it in a shuffled order). Both must leave byte-identical
// campaign.json, campaign.sarif and journal run records, apart from wall_us.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/campaign/driver.h"
#include "src/campaign/journal.h"
#include "src/campaign/run_executor.h"
#include "src/fleet/coordinator.h"
#include "src/fleet/protocol.h"
#include "src/fleet/transport.h"
#include "src/sandbox/outcome_codec.h"

namespace tsvd::fleet {
namespace {

namespace fs = std::filesystem;
using campaign::CampaignOptions;
using campaign::CampaignResult;
using campaign::Json;
using campaign::RunJob;
using campaign::RunOutcome;
using campaign::RunStatus;

struct ScopedTempDir {
  ScopedTempDir() {
    static std::atomic<int> counter{0};
    const auto stamp = std::chrono::steady_clock::now().time_since_epoch().count();
    path = (fs::temp_directory_path() /
            ("tsvd_executor_equivalence_" + std::to_string(stamp) + "_" +
             std::to_string(counter.fetch_add(1))))
               .string();
    fs::create_directories(path);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

CampaignOptions ScriptOptions(const std::string& out_dir, int workers) {
  CampaignOptions options;
  options.num_modules = 6;
  options.workers = workers;
  options.rounds = 4;
  options.max_attempts = 2;
  options.seed = 42;
  options.out_dir = out_dir;
  options.journal_snapshot_every = 4;
  return options;
}

// One attempt of the scripted campaign. Rounds 1 and 2 find new bugs, round 3
// finds none (so the campaign converges there); module 4 crashes on every
// attempt (quarantined in round 1), module 2 crashes once in round 1 and
// recovers on its retry. Every run exports trap pairs and delay counters.
RunOutcome ScriptedAttempt(const RunJob& job) {
  const int m = job.module_index;
  RunOutcome o;
  o.module_index = m;
  o.round = job.round;
  o.wall_us = 1000 * (m + 1);
  o.oncall_count = 100 * (m + 1);
  o.traps.pairs.emplace_back("script.cc:" + std::to_string(m) + " A.Add",
                             "script.cc:" + std::to_string(job.round) + " A.Get");
  o.traps.Canonicalize();  // runs export canonical trap files
  if (m == 4 || (m == 2 && job.round == 1 && job.attempt == 1)) {
    o.status = RunStatus::kCrashed;
    o.error = "scripted crash";
    o.killed_by_signal = 11;
    o.crash_signature = "SIGSEGV in phase 'test:1:scripted'";
    return o;
  }
  o.delays_injected = static_cast<uint64_t>(m + job.round);
  o.delays_early_woken = static_cast<uint64_t>(m % 2);
  o.delays_skipped_budget = static_cast<uint64_t>(job.round % 2);
  o.retrapped_imported = job.round > 1 ? 1 : 0;
  o.false_positives = m == 5 ? 1 : 0;
  if (job.round <= 2) {
    for (int k = 0; k < 2; ++k) {
      campaign::BugObservation obs;
      obs.sig_first = "script.cc:" + std::to_string(10 * job.round + (m + k) % 3) + " D.Set";
      obs.sig_second = "script.cc:" + std::to_string(40 + m % 2) + " D.TryGetValue";
      obs.api_first = "D.Set";
      obs.api_second = "D.TryGetValue";
      obs.stack_digest = static_cast<uint64_t>(1000 * m + k);
      obs.round = job.round;
      obs.read_write = k == 0;
      o.observations.push_back(obs);
    }
  }
  return o;
}

CampaignResult RunLocal(const CampaignOptions& options) {
  const std::vector<workload::ModuleSpec> corpus =
      campaign::BuildCampaignCorpus(options).modules;
  campaign::LocalExecutor executor(
      options, [](const RunJob& job, const TrapFile&, tasks::ThreadPool&) {
        // Finish out of order across workers.
        std::this_thread::sleep_for(
            std::chrono::milliseconds((7 * job.module_index + job.round) % 4));
        return ScriptedAttempt(job);
      });
  return campaign::CampaignDriver(options, corpus).Run(&executor);
}

// Speaks the agent protocol: leases every job it can get, then publishes the
// batch in a shuffled order, each job's outcome taken from `finals`.
void FakeAgent(const std::string& address, const std::string& name,
               const std::map<std::pair<int, int>, RunOutcome>& finals,
               uint64_t shuffle_seed) {
  std::string error;
  std::unique_ptr<TransportClient> client = MakeTransportClient(address, &error);
  ASSERT_NE(client, nullptr) << error;
  Json hello = Json::MakeObject();
  hello.Set("type", "hello");
  hello.Set("agent", name);
  hello.Set("protocol_version", kFleetProtocolVersion);
  hello.Set("codec_version", static_cast<int64_t>(sandbox::kRunOutcomeCodecVersion));
  Json resp;
  ASSERT_TRUE(client->Call(hello, &resp, &error)) << error;
  ASSERT_EQ(resp.Find("type")->as_string(), "setup");

  std::mt19937_64 rng(shuffle_seed);
  uint64_t nonce = 0;
  while (true) {
    std::vector<std::pair<int64_t, std::pair<int, int>>> batch;  // lease, key
    std::string kind;
    do {
      Json lease = Json::MakeObject();
      lease.Set("type", "lease");
      lease.Set("agent", name);
      lease.Set("nonce", ++nonce);
      lease.Set("trap_version", 0);
      ASSERT_TRUE(client->Call(lease, &resp, &error)) << error;
      kind = resp.Find("type")->as_string();
      if (kind == "job") {
        batch.emplace_back(resp.Find("lease")->as_int(),
                           std::make_pair(static_cast<int>(resp.Find("round")->as_int()),
                                          static_cast<int>(resp.Find("module_index")->as_int())));
      }
    } while (kind == "job");
    if (kind == "done" && batch.empty()) {
      return;
    }
    ASSERT_TRUE(kind == "wait" || kind == "done") << kind;
    if (batch.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    std::shuffle(batch.begin(), batch.end(), rng);
    for (const auto& [lease_id, key] : batch) {
      const auto it = finals.find(key);
      ASSERT_NE(it, finals.end()) << "no scripted outcome for round " << key.first
                                  << " module " << key.second;
      Json publish = Json::MakeObject();
      publish.Set("type", "result");
      publish.Set("agent", name);
      publish.Set("nonce", ++nonce);
      publish.Set("lease", lease_id);
      publish.Set("outcome", sandbox::EncodeRunOutcome(it->second));
      ASSERT_TRUE(client->Call(publish, &resp, &error)) << error;
      EXPECT_TRUE(resp.Find("accepted")->as_bool());
    }
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string WithoutWallTime(const std::string& text) {
  static const std::regex kWall("\"wall_us\": ?[0-9]+");
  return std::regex_replace(text, kWall, "\"wall_us\": 0");
}

// The journal's run records, wall time erased, in (round, module) order: the
// ledger itself appends in completion order.
std::vector<std::string> RunRecords(const std::string& out_dir) {
  std::vector<std::string> records;
  std::istringstream lines(ReadFile(campaign::CampaignJournal::PathIn(out_dir)));
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"type\":\"run\"") != std::string::npos) {
      records.push_back(WithoutWallTime(line));
    }
  }
  std::sort(records.begin(), records.end());
  return records;
}

class ExecutorEquivalenceTest : public testing::TestWithParam<int> {};

TEST_P(ExecutorEquivalenceTest, ScriptedOutcomesGiveIdenticalArtifacts) {
  const int workers = GetParam();
  ScopedTempDir dir;
  const CampaignOptions local_options = ScriptOptions(dir.path + "/local", workers);
  const CampaignResult local = RunLocal(local_options);
  ASSERT_TRUE(local.error.empty()) << local.error;
  ASSERT_TRUE(local.converged);
  ASSERT_EQ(local.rounds.size(), 3u);
  ASSERT_EQ(local.rounds[0].quarantined, 1);
  ASSERT_EQ(local.rounds[0].retried, 2);
  ASSERT_FALSE(local.bugs.empty());

  // The final outcomes the local executor handed the driver, as its journal
  // recorded them: the stream the fake agents publish.
  campaign::JournalReplay replay;
  ASSERT_TRUE(campaign::CampaignJournal::Load(
      campaign::CampaignJournal::PathIn(local_options.out_dir), &replay));
  std::map<std::pair<int, int>, RunOutcome> finals;
  for (const RunOutcome& o : replay.outcomes) {
    finals[{o.round, o.module_index}] = o;
  }
  ASSERT_EQ(finals.size(), local.outcomes.size());

  FleetOptions fleet_options;
  fleet_options.campaign = ScriptOptions(dir.path + "/fleet", workers);
  fleet_options.address = "uds:" + dir.path + "/fleet.sock";
  fleet_options.agent_idle_timeout_ms = 10'000;  // a failed fake agent ends the run
  FleetCoordinator coordinator(fleet_options);
  std::vector<std::thread> agents;
  for (int i = 0; i < workers; ++i) {
    agents.emplace_back(FakeAgent, fleet_options.address, "fake-" + std::to_string(i),
                        std::cref(finals), static_cast<uint64_t>(i + 1));
  }
  const CampaignResult fleet = coordinator.Run();
  for (std::thread& agent : agents) {
    agent.join();
  }
  coordinator.Shutdown();
  ASSERT_TRUE(fleet.error.empty()) << fleet.error;
  EXPECT_EQ(coordinator.stats().agents_joined, static_cast<uint64_t>(workers));

  for (const char* artifact : {"campaign.json", "campaign.sarif"}) {
    SCOPED_TRACE(artifact);
    const std::string local_text =
        ReadFile(local_options.out_dir + "/" + std::string(artifact));
    ASSERT_FALSE(local_text.empty());
    EXPECT_EQ(WithoutWallTime(ReadFile(fleet_options.campaign.out_dir + "/" +
                                       std::string(artifact))),
              WithoutWallTime(local_text));
  }
  EXPECT_EQ(RunRecords(fleet_options.campaign.out_dir),
            RunRecords(local_options.out_dir));
}

INSTANTIATE_TEST_SUITE_P(Workers, ExecutorEquivalenceTest, testing::Values(1, 4));

}  // namespace
}  // namespace tsvd::fleet
