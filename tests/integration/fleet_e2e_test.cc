// Fleet end-to-end: the distributed campaign must be *indistinguishable* from the
// single-process one at the bug ledger. A 4-agent fleet with identical options and
// seed reports the exact unique-bug set of RunCampaign; SIGKILLing an agent
// mid-round changes nothing (its lost leases are stolen and re-executed, its
// possibly-duplicated publishes are dropped by idempotent acceptance); a
// coordinator drained mid-campaign resumes from its journal to the same set;
// and either tool resumes the other's journal.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "src/campaign/campaign.h"
#include "src/campaign/journal.h"
#include "src/fleet/agent.h"
#include "src/fleet/coordinator.h"
#include "src/report/trap_file.h"

#ifndef _WIN32

namespace tsvd::fleet {
namespace {

namespace fs = std::filesystem;
using campaign::CampaignOptions;
using campaign::CampaignResult;

struct ScopedTempDir {
  ScopedTempDir() {
    static std::atomic<int> counter{0};
    const auto stamp =
        std::chrono::steady_clock::now().time_since_epoch().count();
    path = (fs::temp_directory_path() /
            ("tsvd_fleet_e2e_test_" + std::to_string(stamp) + "_" +
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

// The same small bug-bearing corpus the resume e2e pins its determinism
// contract on (tests/integration/campaign_resume_test.cc).
CampaignOptions FastOptions(const std::string& out_dir) {
  CampaignOptions options;
  options.num_modules = 10;
  options.workers = 4;
  options.rounds = 3;
  options.scale = 0.01;
  options.seed = 42;
  options.pool_threads_per_worker = 4;
  options.out_dir = out_dir;
  options.journal_snapshot_every = 4;
  return options;
}

std::set<std::pair<std::string, std::string>> SignatureSet(
    const CampaignResult& result) {
  std::set<std::pair<std::string, std::string>> signatures;
  for (const auto& bug : result.bugs) {
    signatures.emplace(bug.sig_first, bug.sig_second);
  }
  return signatures;
}

void ExpectNoDuplicateRunRecords(const std::string& out_dir) {
  campaign::JournalReplay replay;
  ASSERT_TRUE(campaign::CampaignJournal::Load(
      campaign::CampaignJournal::PathIn(out_dir), &replay));
  std::set<std::pair<int, int>> keys;
  for (const campaign::RunOutcome& outcome : replay.outcomes) {
    EXPECT_TRUE(keys.emplace(outcome.round, outcome.module_index).second)
        << "run journaled twice: round " << outcome.round << " module "
        << outcome.module_index;
  }
}

struct FleetRun {
  CampaignResult result;
  FleetStats stats;
  std::vector<pid_t> agent_pids;
  std::vector<int> agent_statuses;  // waitpid status per agent, same order
};

// Forks `num_agents` agent processes (before the coordinator spawns any thread,
// so the children are clean single-threaded forks), runs the coordinator to
// completion on the calling thread, SIGKILLs agent `kill_index` after
// `kill_after_ms` when asked, then joins everything.
FleetRun RunFleet(const FleetOptions& options, const std::string& scratch,
                  int num_agents, int kill_index = -1, int kill_after_ms = 0) {
  FleetRun run;
  for (int i = 0; i < num_agents; ++i) {
    const pid_t pid = fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
      SetDurableFileSync(false);  // agent journals are forensics, not the ledger
      AgentOptions agent;
      agent.address = options.address;
      agent.name = "e2e-agent-" + std::to_string(i);
      agent.work_dir = scratch + "/" + agent.name;
      const AgentResult result = RunAgent(agent);
      _exit(result.ok ? 0 : 2);
    }
    run.agent_pids.push_back(pid);
  }

  FleetCoordinator coordinator(options);
  std::thread killer;
  if (kill_index >= 0) {
    const pid_t victim = run.agent_pids[static_cast<size_t>(kill_index)];
    killer = std::thread([victim, kill_after_ms] {
      std::this_thread::sleep_for(std::chrono::milliseconds(kill_after_ms));
      kill(victim, SIGKILL);
    });
  }
  run.result = coordinator.Run();
  if (killer.joinable()) {
    killer.join();
  }
  for (const pid_t pid : run.agent_pids) {
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
    run.agent_statuses.push_back(status);
  }
  coordinator.Shutdown();
  run.stats = coordinator.stats();
  return run;
}

TEST(FleetE2ETest, FourAgentFleetMatchesSingleProcessBugSet) {
  ScopedTempDir baseline_dir;
  ScopedTempDir fleet_dir;
  const CampaignResult baseline =
      campaign::RunCampaign(FastOptions(baseline_dir.path));
  ASSERT_TRUE(baseline.error.empty()) << baseline.error;
  ASSERT_FALSE(baseline.bugs.empty());

  FleetOptions options;
  options.campaign = FastOptions(fleet_dir.path + "/out");
  options.address = "uds:" + fleet_dir.path + "/fleet.sock";
  const FleetRun fleet = RunFleet(options, fleet_dir.path, 4);
  ASSERT_TRUE(fleet.result.error.empty()) << fleet.result.error;

  // The contract under test: same bugs, same runs, same convergence decision.
  EXPECT_EQ(SignatureSet(fleet.result), SignatureSet(baseline));
  EXPECT_EQ(fleet.result.UniqueBugCount(), baseline.UniqueBugCount());
  EXPECT_EQ(fleet.result.RunsExecuted(), baseline.RunsExecuted());
  EXPECT_EQ(fleet.result.rounds.size(), baseline.rounds.size());
  EXPECT_EQ(fleet.result.converged, baseline.converged);

  EXPECT_EQ(fleet.stats.agents_joined, 4u);
  for (const int status : fleet.agent_statuses) {
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  ExpectNoDuplicateRunRecords(options.campaign.out_dir);
}

TEST(FleetE2ETest, AgentSigkilledMidRoundDoesNotChangeTheBugSet) {
  ScopedTempDir baseline_dir;
  ScopedTempDir fleet_dir;
  const CampaignResult baseline =
      campaign::RunCampaign(FastOptions(baseline_dir.path));
  ASSERT_TRUE(baseline.error.empty()) << baseline.error;

  FleetOptions options;
  options.campaign = FastOptions(fleet_dir.path + "/out");
  options.address = "uds:" + fleet_dir.path + "/fleet.sock";
  // Short lease so the victim's in-flight jobs become stealable quickly.
  options.lease_timeout_ms = 500;
  const FleetRun fleet =
      RunFleet(options, fleet_dir.path, 4, /*kill_index=*/1, /*kill_after_ms=*/60);
  ASSERT_TRUE(fleet.result.error.empty()) << fleet.result.error;
  EXPECT_FALSE(fleet.result.interrupted);

  EXPECT_EQ(SignatureSet(fleet.result), SignatureSet(baseline));
  EXPECT_EQ(fleet.result.UniqueBugCount(), baseline.UniqueBugCount());
  EXPECT_EQ(fleet.result.RunsExecuted(), baseline.RunsExecuted());
  EXPECT_EQ(fleet.result.rounds.size(), baseline.rounds.size());
  EXPECT_EQ(fleet.result.converged, baseline.converged);

  // The victim died by SIGKILL; every survivor exited cleanly.
  EXPECT_TRUE(WIFSIGNALED(fleet.agent_statuses[1]) &&
              WTERMSIG(fleet.agent_statuses[1]) == SIGKILL);
  for (const size_t i : {0ul, 2ul, 3ul}) {
    const int status = fleet.agent_statuses[i];
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  // Idempotent leases: even with steals in play, the ledger holds each
  // (round, module) exactly once.
  ExpectNoDuplicateRunRecords(options.campaign.out_dir);
}

TEST(FleetE2ETest, DrainedCoordinatorResumesToSingleProcessBugSet) {
  ScopedTempDir baseline_dir;
  ScopedTempDir fleet_dir;
  const CampaignResult baseline =
      campaign::RunCampaign(FastOptions(baseline_dir.path));
  ASSERT_TRUE(baseline.error.empty()) << baseline.error;

  FleetOptions drained_options;
  drained_options.campaign = FastOptions(fleet_dir.path + "/out");
  drained_options.address = "uds:" + fleet_dir.path + "/fleet1.sock";
  std::atomic<int> polls{0};
  drained_options.campaign.interrupt = [&polls] {
    return polls.fetch_add(1) >= 1;
  };
  const FleetRun drained = RunFleet(drained_options, fleet_dir.path, 2);
  ASSERT_TRUE(drained.result.error.empty()) << drained.result.error;
  EXPECT_TRUE(drained.result.interrupted);

  FleetOptions resume_options;
  resume_options.campaign = FastOptions(fleet_dir.path + "/out");
  resume_options.campaign.resume = true;
  resume_options.address = "uds:" + fleet_dir.path + "/fleet2.sock";
  const FleetRun resumed = RunFleet(resume_options, fleet_dir.path, 2);
  ASSERT_TRUE(resumed.result.error.empty()) << resumed.result.error;
  EXPECT_FALSE(resumed.result.interrupted);
  EXPECT_EQ(resumed.result.resumed_runs, drained.result.RunsExecuted());

  EXPECT_EQ(SignatureSet(resumed.result), SignatureSet(baseline));
  EXPECT_EQ(resumed.result.UniqueBugCount(), baseline.UniqueBugCount());
  EXPECT_EQ(resumed.result.RunsExecuted(), baseline.RunsExecuted());
  EXPECT_EQ(resumed.result.rounds.size(), baseline.rounds.size());
  EXPECT_EQ(resumed.result.converged, baseline.converged);
  ExpectNoDuplicateRunRecords(resume_options.campaign.out_dir);
}

// DESIGN.md §13: either tool resumes the other's journal. A RunCampaign
// drained mid-campaign resumes under a 1-agent fleet, and a drained 1-agent
// fleet resumes under RunCampaign; both reach the uninterrupted bug set.
TEST(FleetE2ETest, DrainedRunCampaignResumesUnderAOneAgentFleet) {
  ScopedTempDir baseline_dir;
  ScopedTempDir dir;
  const CampaignResult baseline =
      campaign::RunCampaign(FastOptions(baseline_dir.path));
  ASSERT_TRUE(baseline.error.empty()) << baseline.error;
  ASSERT_FALSE(baseline.bugs.empty());

  CampaignOptions drained_options = FastOptions(dir.path + "/out");
  std::atomic<int> polls{0};
  drained_options.interrupt = [&polls] { return polls.fetch_add(1) >= 1; };
  const CampaignResult drained = campaign::RunCampaign(drained_options);
  ASSERT_TRUE(drained.error.empty()) << drained.error;
  EXPECT_TRUE(drained.interrupted);

  FleetOptions resume_options;
  resume_options.campaign = FastOptions(dir.path + "/out");
  resume_options.campaign.resume = true;
  resume_options.address = "uds:" + dir.path + "/fleet.sock";
  const FleetRun resumed = RunFleet(resume_options, dir.path, 1);
  ASSERT_TRUE(resumed.result.error.empty()) << resumed.result.error;
  EXPECT_FALSE(resumed.result.interrupted);
  EXPECT_EQ(resumed.result.resumed_runs, drained.RunsExecuted());
  EXPECT_EQ(SignatureSet(resumed.result), SignatureSet(baseline));
  ExpectNoDuplicateRunRecords(resume_options.campaign.out_dir);
}

TEST(FleetE2ETest, DrainedOneAgentFleetResumesUnderRunCampaign) {
  ScopedTempDir baseline_dir;
  ScopedTempDir dir;
  const CampaignResult baseline =
      campaign::RunCampaign(FastOptions(baseline_dir.path));
  ASSERT_TRUE(baseline.error.empty()) << baseline.error;
  ASSERT_FALSE(baseline.bugs.empty());

  FleetOptions drained_options;
  drained_options.campaign = FastOptions(dir.path + "/out");
  drained_options.address = "uds:" + dir.path + "/fleet.sock";
  std::atomic<int> polls{0};
  drained_options.campaign.interrupt = [&polls] { return polls.fetch_add(1) >= 1; };
  const FleetRun drained = RunFleet(drained_options, dir.path, 1);
  ASSERT_TRUE(drained.result.error.empty()) << drained.result.error;
  EXPECT_TRUE(drained.result.interrupted);

  CampaignOptions resume_options = FastOptions(dir.path + "/out");
  resume_options.resume = true;
  const CampaignResult resumed = campaign::RunCampaign(resume_options);
  ASSERT_TRUE(resumed.error.empty()) << resumed.error;
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.resumed_runs, drained.result.RunsExecuted());
  EXPECT_EQ(SignatureSet(resumed), SignatureSet(baseline));
  ExpectNoDuplicateRunRecords(resume_options.out_dir);
}

}  // namespace
}  // namespace tsvd::fleet

#endif  // !_WIN32
