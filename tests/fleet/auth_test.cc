// Fleet authentication: the coordinator's --auth_token shared secret. Every
// request without the right token — a hello, but also a lease, a result
// publish, or any other document a caller that skipped the hello sends — is
// answered with a framed error before any handler runs, counted, and has no
// effect on the campaign; the comparison itself is constant-time in the token
// content.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#ifndef _WIN32
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "src/campaign/campaign.h"
#include "src/fleet/agent.h"
#include "src/fleet/coordinator.h"
#include "src/fleet/protocol.h"
#include "src/fleet/transport.h"
#include "src/report/trap_file.h"
#include "src/sandbox/outcome_codec.h"

namespace tsvd::fleet {
namespace {

namespace fs = std::filesystem;
using campaign::Json;

TEST(ConstantTimeEqualsTest, MatchesPlainEquality) {
  EXPECT_TRUE(ConstantTimeEquals("", ""));
  EXPECT_TRUE(ConstantTimeEquals("secret", "secret"));
  EXPECT_FALSE(ConstantTimeEquals("secret", "secreT"));
  EXPECT_FALSE(ConstantTimeEquals("secret", "secret2"));  // length differs
  EXPECT_FALSE(ConstantTimeEquals("secret", ""));
  EXPECT_FALSE(ConstantTimeEquals("abcdef", "fedcba"));
  // Differences anywhere in the string are caught, not just the first byte.
  EXPECT_FALSE(ConstantTimeEquals("aaaaaaaaaaab", "aaaaaaaaaaaa"));
}

#ifndef _WIN32

struct ScopedTempDir {
  ScopedTempDir() {
    static std::atomic<int> counter{0};
    const auto stamp =
        std::chrono::steady_clock::now().time_since_epoch().count();
    path = (fs::temp_directory_path() /
            ("tsvd_auth_test_" + std::to_string(stamp) + "_" +
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

// Forks an agent presenting `token`; exit code encodes the AgentStatus.
pid_t ForkAgent(const std::string& address, const std::string& scratch,
                const std::string& name, const std::string& token) {
  const pid_t pid = fork();
  EXPECT_GE(pid, 0);
  if (pid == 0) {
    SetDurableFileSync(false);
    AgentOptions agent;
    agent.address = address;
    agent.name = name;
    agent.work_dir = scratch + "/" + name;
    agent.auth_token = token;
    const AgentResult result = RunAgent(agent);
    _exit(static_cast<int>(result.status));
  }
  return pid;
}

int WaitExitCode(pid_t pid) {
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(FleetAuthTest, WrongOrMissingTokenIsRefusedMatchingTokenJoins) {
  ScopedTempDir dir;

  FleetOptions options;
  options.campaign.num_modules = 6;
  options.campaign.workers = 2;
  options.campaign.rounds = 2;
  options.campaign.scale = 0.01;
  options.campaign.seed = 42;
  options.campaign.pool_threads_per_worker = 4;
  options.campaign.out_dir = dir.path + "/out";
  options.address = "uds:" + dir.path + "/fleet.sock";
  options.auth_token = "hunter2";

  // Fork before the coordinator spawns threads: one impostor, one agent with
  // no token at all, one legitimate agent that carries the whole campaign.
  const pid_t wrong = ForkAgent(options.address, dir.path, "wrong", "hunter3");
  const pid_t missing = ForkAgent(options.address, dir.path, "missing", "");
  const pid_t good = ForkAgent(options.address, dir.path, "good", "hunter2");

  FleetCoordinator coordinator(options);
  const campaign::CampaignResult result = coordinator.Run();
  ASSERT_TRUE(result.error.empty()) << result.error;

  // The rejected agents exit kError after the framed refusal; the campaign
  // still completes on the authenticated one.
  EXPECT_EQ(WaitExitCode(wrong), static_cast<int>(AgentStatus::kError));
  EXPECT_EQ(WaitExitCode(missing), static_cast<int>(AgentStatus::kError));
  EXPECT_EQ(WaitExitCode(good), static_cast<int>(AgentStatus::kOk));

  coordinator.Shutdown();
  const FleetStats stats = coordinator.stats();
  EXPECT_EQ(stats.requests_rejected_auth, 2u);
  EXPECT_EQ(stats.agents_joined, 1u);
  EXPECT_FALSE(result.bugs.empty());
}

TEST(FleetAuthTest, NoTokenConfiguredAcceptsTokenlessAgents) {
  ScopedTempDir dir;

  FleetOptions options;
  options.campaign.num_modules = 6;
  options.campaign.workers = 2;
  options.campaign.rounds = 2;
  options.campaign.scale = 0.01;
  options.campaign.seed = 42;
  options.campaign.pool_threads_per_worker = 4;
  options.campaign.out_dir = dir.path + "/out";
  options.address = "uds:" + dir.path + "/fleet.sock";

  const pid_t agent = ForkAgent(options.address, dir.path, "plain", "");
  FleetCoordinator coordinator(options);
  const campaign::CampaignResult result = coordinator.Run();
  ASSERT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(WaitExitCode(agent), static_cast<int>(AgentStatus::kOk));
  coordinator.Shutdown();
  EXPECT_EQ(coordinator.stats().requests_rejected_auth, 0u);
}


constexpr char kToken[] = "hunter2";

// A token-protected coordinator running its campaign on a background thread,
// and a raw client that speaks the protocol directly, as a caller that skips
// the hello could. No agent joins; Finish() drains the campaign through its
// interrupt hook.
class GuardedFleet {
 public:
  explicit GuardedFleet(const std::string& dir) {
    FleetOptions options;
    options.campaign.num_modules = 2;
    options.campaign.rounds = 1;
    options.campaign.scale = 0.01;
    options.campaign.seed = 42;
    options.campaign.out_dir = dir + "/out";
    options.campaign.interrupt = [this] { return stop_.load(); };
    options.address = "uds:" + dir + "/fleet.sock";
    options.auth_token = kToken;
    // Bounds the drain's wait for a lease a test leaves open.
    options.lease_timeout_ms = 500;
    coordinator_ = std::make_unique<FleetCoordinator>(options);
    runner_ = std::thread([this] { result_ = coordinator_->Run(); });
    std::string error;
    client_ = MakeTransportClient(options.address, &error);
    EXPECT_NE(client_, nullptr) << error;
  }
  ~GuardedFleet() { Finish(); }
  GuardedFleet(const GuardedFleet&) = delete;
  GuardedFleet& operator=(const GuardedFleet&) = delete;

  Json Call(const Json& request) {
    Json response;
    std::string error;
    EXPECT_TRUE(client_->Call(request, &response, &error)) << error;
    return response;
  }

  // Leases with the token until the round is open and a job is granted. Each
  // attempt is a new request: a re-sent nonce would replay the cached "wait".
  Json LeaseJob() {
    for (int attempt = 0; attempt < 200; ++attempt) {
      Json lease = Request("lease", kToken);
      lease.Set("trap_version", 0);
      const Json grant = Call(lease);
      if (Type(grant) == "job") {
        return grant;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "no job granted to an authenticated lease";
    return Json::MakeObject();
  }

  campaign::CampaignResult Finish() {
    if (runner_.joinable()) {
      stop_.store(true);
      runner_.join();
      coordinator_->Shutdown();
    }
    return result_;
  }

  FleetStats stats() const { return coordinator_->stats(); }

  // A request from the raw client; `token` empty = none presented.
  static Json Request(const std::string& type, const std::string& token) {
    static uint64_t nonce = 0;
    Json request = Json::MakeObject();
    request.Set("type", type);
    request.Set("agent", "raw");
    request.Set("nonce", ++nonce);
    if (!token.empty()) {
      request.Set("auth_token", token);
    }
    return request;
  }

  static std::string Type(const Json& response) {
    const Json* type = response.Find("type");
    return type != nullptr && type->is_string() ? type->as_string() : "";
  }

  // The framed refusal the auth check answers with.
  static void ExpectRefused(const Json& response) {
    EXPECT_EQ(Type(response), "error") << response.Dump();
    const Json* why = response.Find("error");
    ASSERT_NE(why, nullptr) << response.Dump();
    EXPECT_NE(why->as_string().find("auth token"), std::string::npos)
        << why->as_string();
  }

 private:
  std::atomic<bool> stop_{false};
  std::unique_ptr<FleetCoordinator> coordinator_;
  campaign::CampaignResult result_;
  std::unique_ptr<TransportClient> client_;
  std::thread runner_;
};

TEST(FleetAuthTest, LeaseWithoutTheTokenIsRefusedAndGrantsNoLease) {
  ScopedTempDir dir;
  GuardedFleet fleet(dir.path);
  // The round is open and a second module is still pending, so an unchecked
  // lease would be granted it.
  fleet.LeaseJob();
  ASSERT_EQ(fleet.stats().leases_granted, 1u);

  Json missing = GuardedFleet::Request("lease", "");
  missing.Set("trap_version", 0);
  GuardedFleet::ExpectRefused(fleet.Call(missing));
  Json wrong = GuardedFleet::Request("lease", "hunter3");
  wrong.Set("trap_version", 0);
  GuardedFleet::ExpectRefused(fleet.Call(wrong));

  EXPECT_EQ(fleet.stats().leases_granted, 1u);
  EXPECT_EQ(fleet.stats().requests_rejected_auth, 2u);
}

TEST(FleetAuthTest, ResultWithoutTheTokenIsRefused) {
  ScopedTempDir dir;
  GuardedFleet fleet(dir.path);
  const Json job = fleet.LeaseJob();
  ASSERT_NE(job.Find("lease"), nullptr);

  // A made-up outcome for a real lease: first-publish-wins would accept it if
  // it got past the door.
  campaign::RunOutcome outcome;
  outcome.module_index = static_cast<int>(job.Find("module_index")->as_int());
  outcome.round = static_cast<int>(job.Find("round")->as_int());
  Json forged = GuardedFleet::Request("result", "");
  forged.Set("lease", job.Find("lease")->as_int());
  forged.Set("outcome", sandbox::EncodeRunOutcome(outcome));
  GuardedFleet::ExpectRefused(fleet.Call(forged));

  // The job is still the lease holder's to publish.
  Json publish = GuardedFleet::Request("result", kToken);
  publish.Set("lease", job.Find("lease")->as_int());
  publish.Set("outcome", sandbox::EncodeRunOutcome(outcome));
  const Json ack = fleet.Call(publish);
  EXPECT_EQ(GuardedFleet::Type(ack), "ack") << ack.Dump();
  ASSERT_NE(ack.Find("accepted"), nullptr) << ack.Dump();
  EXPECT_TRUE(ack.Find("accepted")->as_bool());
  EXPECT_EQ(fleet.stats().duplicate_results, 0u);
  EXPECT_EQ(fleet.stats().requests_rejected_auth, 1u);
}

TEST(FleetAuthTest, StorePushIsRefusedAndLeavesTheStoreUnchanged) {
  ScopedTempDir dir;
  GuardedFleet fleet(dir.path);
  // Wait for the round, so its commit would fold in anything pushed.
  fleet.LeaseJob();

  TrapFile traps;
  traps.pairs.push_back({"forged.cc:1 Get", "forged.cc:2 Set"});
  Json push = GuardedFleet::Request("store_push", "");
  push.Set("traps", traps.Serialize());
  GuardedFleet::ExpectRefused(fleet.Call(push));

  const campaign::CampaignResult result = fleet.Finish();
  EXPECT_FALSE(result.merged_traps.Contains("forged.cc:1 Get", "forged.cc:2 Set"));
  EXPECT_EQ(result.merged_traps.size(), 0u);
  EXPECT_EQ(fleet.stats().requests_rejected_auth, 1u);
}

#endif  // !_WIN32

}  // namespace
}  // namespace tsvd::fleet
