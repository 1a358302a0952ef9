#include "src/fleet/agent.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/campaign/journal.h"
#include "src/campaign/run_executor.h"
#include "src/campaign/scheduler.h"
#include "src/common/rng.h"
#include "src/fleet/chaos_transport.h"
#include "src/fleet/protocol.h"
#include "src/fleet/transport.h"
#include "src/report/trap_file.h"
#include "src/sandbox/outcome_codec.h"
#include "src/tasks/thread_pool.h"

namespace tsvd::fleet {

using campaign::CampaignOptions;
using campaign::Json;
using campaign::RunJob;
using campaign::RunOutcome;

namespace {

AgentResult Fail(AgentStatus status, std::string why) {
  AgentResult r;
  r.status = status;
  r.error = std::move(why);
  return r;
}

// A request of `type` from this agent. Every request carries the shared secret
// when the fleet runs with one: the coordinator checks it before any handler.
Json NewRequest(const std::string& type, const AgentOptions& agent_options) {
  Json request = Json::MakeObject();
  request.Set("type", type);
  request.Set("agent", agent_options.name);
  if (!agent_options.auth_token.empty()) {
    request.Set("auth_token", agent_options.auth_token);
  }
  return request;
}

// Re-sends one logical request — same document, same nonce — under exponential
// backoff with jitter until the exchange succeeds, the budget expires, or the
// interrupt fires. The constant nonce is what makes the retry safe: if the
// original request executed but its response was lost, the coordinator's
// at-most-once cache answers the re-send instead of executing twice.
bool CallWithRetry(TransportClient* client, const Json& request, Json* response,
                   int budget_ms, const std::function<bool()>& interrupt,
                   uint64_t* jitter_rng, uint64_t* retries, std::string* error) {
  const Micros deadline = NowMicros() + static_cast<Micros>(budget_ms) * 1000;
  Micros backoff_us = 50'000;
  constexpr Micros kBackoffCapUs = 2'000'000;
  while (true) {
    if (client->Call(request, response, error)) {
      return true;
    }
    if (NowMicros() >= deadline || (interrupt && interrupt())) {
      return false;
    }
    ++*retries;
    // Sleep 0.75x–1.25x of the nominal backoff: enough jitter that a fleet cut
    // off by one partition does not reconnect in lockstep.
    const Micros jitter = SplitMix64(jitter_rng) % (backoff_us / 2 + 1);
    Micros nap = backoff_us - backoff_us / 4 + jitter;
    const Micros remaining = deadline - NowMicros();
    if (nap > remaining) {
      nap = remaining;
    }
    if (nap > 0) {
      SleepMicros(nap);
    }
    backoff_us = std::min(backoff_us * 2, kBackoffCapUs);
  }
}

// Background liveness prover. Failures are ignored — a missed beat is exactly
// the signal the coordinator's eviction timer is for — but an explicit
// "evicted" verdict is latched for the main loop.
class HeartbeatThread {
 public:
  HeartbeatThread(std::unique_ptr<TransportClient> client,
                  const AgentOptions& agent_options)
      : client_(std::move(client)),
        beat_(NewRequest("heartbeat", agent_options)),
        interval_ms_(agent_options.heartbeat_ms),
        thread_([this] { Loop(); }) {}

  ~HeartbeatThread() { Stop(); }

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  bool evicted() const { return evicted_.load(std::memory_order_relaxed); }

 private:
  void Loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      Json resp;
      std::string error;
      if (client_->Call(beat_, &resp, &error)) {
        const Json* type = resp.Find("type");
        const std::string kind =
            type != nullptr && type->is_string() ? type->as_string() : "";
        if (kind == "evicted") {
          evicted_.store(true, std::memory_order_relaxed);
          return;
        }
        if (kind == "done") {
          return;  // campaign over; the lease loop learns the same momentarily
        }
      }
      // Sleep in small slices so Stop() is prompt even with long intervals.
      const Micros until = NowMicros() + static_cast<Micros>(interval_ms_) * 1000;
      while (!stop_.load(std::memory_order_relaxed) && NowMicros() < until) {
        SleepMicros(5'000);
      }
    }
  }

  const std::unique_ptr<TransportClient> client_;
  const Json beat_;
  const int interval_ms_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> evicted_{false};
  std::thread thread_;
};

}  // namespace

AgentResult RunAgent(const AgentOptions& agent_options) {
  std::string error;
  std::unique_ptr<TransportClient> client =
      MakeTransportClient(agent_options.address, &error);
  if (client == nullptr) {
    return Fail(AgentStatus::kError, error);
  }
  client->set_connect_timeout_ms(agent_options.hello_timeout_ms);
  client = WrapWithChaos(std::move(client), agent_options.chaos,
                         agent_options.chaos_salt, &error);
  if (client == nullptr) {
    return Fail(AgentStatus::kError, "chaos: " + error);
  }

  uint64_t jitter_rng = 0x5eed;
  for (const char c : agent_options.name) {
    jitter_rng = jitter_rng * 131 + static_cast<unsigned char>(c);
  }

  AgentResult result;

  // Join the fleet. The transport retries connection establishment internally
  // up to hello_timeout_ms, and the chaos decorator may eat the exchange, so
  // retry the hello itself inside the same window (hello is idempotent).
  Json hello = NewRequest("hello", agent_options);
  hello.Set("protocol_version", kFleetProtocolVersion);
  hello.Set("codec_version", sandbox::kRunOutcomeCodecVersion);
  Json setup;
  if (!CallWithRetry(client.get(), hello, &setup, agent_options.hello_timeout_ms,
                     agent_options.interrupt, &jitter_rng, &result.rpc_retries,
                     &error)) {
    // Never reached the coordinator at all: the distinct "check the address,
    // the network, or the coordinator process" verdict.
    AgentResult r = Fail(AgentStatus::kUnreachable, "hello: " + error);
    r.rpc_retries = result.rpc_retries;
    return r;
  }
  const Json* type = setup.Find("type");
  if (type == nullptr || !type->is_string() || type->as_string() != "setup") {
    const Json* why = setup.Find("error");
    return Fail(AgentStatus::kError,
                "coordinator refused join: " +
                    (why != nullptr && why->is_string() ? why->as_string()
                                                        : std::string("bad setup")));
  }
  const Json* options_doc = setup.Find("options");
  CampaignOptions options;
  if (options_doc == nullptr ||
      !DecodeCampaignOptions(*options_doc, &options, &error)) {
    return Fail(AgentStatus::kError, "bad setup options: " + error);
  }

  // Rebuild the coordinator's exact corpus; the setup's corpus_size cross-checks
  // that both sides really derived the same one.
  const std::vector<workload::ModuleSpec> corpus =
      campaign::BuildCampaignCorpus(options).modules;
  if (const Json* n = setup.Find("corpus_size");
      n != nullptr && n->is_number() &&
      n->as_int() != static_cast<int64_t>(corpus.size())) {
    return Fail(AgentStatus::kError,
                "corpus size mismatch: coordinator has " +
                    std::to_string(n->as_int()) + " modules, this build derives " +
                    std::to_string(corpus.size()));
  }

  std::string work_dir = agent_options.work_dir;
  bool scratch_work_dir = false;
  if (work_dir.empty()) {
    work_dir = (std::filesystem::temp_directory_path() /
                ("tsvd-agent-" + std::to_string(static_cast<uint64_t>(::getpid()))))
                   .string();
    scratch_work_dir = true;
  }
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  const std::string checkpoint_dir = work_dir + "/sandbox";
  std::filesystem::create_directories(checkpoint_dir, ec);

  const campaign::RunExecutor executor(options, &corpus, checkpoint_dir);

  // The local crash-forensics ledger: every outcome is committed here, fsync'd,
  // before it is published — a SIGKILLed agent leaves a complete record of what it
  // finished even if the publish never happened.
  campaign::CampaignJournal journal;
  journal.Open(campaign::CampaignJournal::PathIn(work_dir),
               campaign::MakeJournalHeader(options, corpus.size()),
               /*truncate=*/true, /*fsync=*/DurableFileSyncEnabled());

  // The heartbeat thread gets its own connection (the lease loop can be busy
  // executing a job for seconds at a time) and its own chaos stream.
  std::unique_ptr<HeartbeatThread> heartbeat;
  if (agent_options.heartbeat_ms > 0) {
    std::unique_ptr<TransportClient> hb_client =
        MakeTransportClient(agent_options.address, &error);
    if (hb_client != nullptr) {
      hb_client->set_connect_timeout_ms(agent_options.hello_timeout_ms);
      hb_client = WrapWithChaos(std::move(hb_client), agent_options.chaos,
                                agent_options.chaos_salt ^ 0x48b1u, &error);
    }
    if (hb_client == nullptr) {
      journal.Close();
      return Fail(AgentStatus::kError, "heartbeat transport: " + error);
    }
    heartbeat =
        std::make_unique<HeartbeatThread>(std::move(hb_client), agent_options);
  }

  tasks::ThreadPool pool(options.pool_threads_per_worker);

  const campaign::RetryPolicy retry = campaign::RetryPolicyFor(options);

  TrapFile cached_traps;
  uint64_t cached_version = 0;
  uint64_t nonce = 0;

  const auto finish = [&](AgentStatus status, std::string why) {
    if (heartbeat != nullptr) {
      heartbeat->Stop();
    }
    journal.Close();
    result.status = status;
    result.ok = status == AgentStatus::kOk;
    result.error = std::move(why);
    if (result.ok && scratch_work_dir) {
      std::filesystem::remove_all(work_dir, ec);
    }
    return result;
  };

  while (true) {
    if (agent_options.interrupt && agent_options.interrupt()) {
      break;
    }
    if (heartbeat != nullptr && heartbeat->evicted()) {
      return finish(AgentStatus::kEvicted,
                    "evicted by coordinator for missed heartbeats");
    }
    Json lease_req = NewRequest("lease", agent_options);
    lease_req.Set("nonce", ++nonce);
    lease_req.Set("trap_version", cached_version);
    Json resp;
    if (!CallWithRetry(client.get(), lease_req, &resp, agent_options.rpc_retry_ms,
                       agent_options.interrupt, &jitter_rng, &result.rpc_retries,
                       &error)) {
      if (agent_options.interrupt && agent_options.interrupt()) {
        break;  // retry loop cut short by a graceful stop, not by the network
      }
      return finish(AgentStatus::kUnreachable, "lease: " + error);
    }
    const Json* rtype = resp.Find("type");
    const std::string kind =
        rtype != nullptr && rtype->is_string() ? rtype->as_string() : "";

    if (kind == "done") {
      break;
    }
    if (kind == "evicted") {
      return finish(AgentStatus::kEvicted,
                    "evicted by coordinator for missed heartbeats");
    }
    if (kind == "wait") {
      const Json* ms = resp.Find("wait_ms");
      SleepMicros((ms != nullptr && ms->is_number() ? ms->as_int() : 50) * 1000);
      continue;
    }
    if (kind == "error") {
      const Json* why = resp.Find("error");
      return finish(AgentStatus::kError,
                    why != nullptr && why->is_string() ? why->as_string()
                                                       : "coordinator error");
    }
    if (kind != "job") {
      return finish(AgentStatus::kError,
                    "unexpected coordinator response \"" + kind + "\"");
    }

    const Json* lease_id = resp.Find("lease");
    const Json* round = resp.Find("round");
    const Json* module_index = resp.Find("module_index");
    if (lease_id == nullptr || !lease_id->is_number() || round == nullptr ||
        !round->is_number() || module_index == nullptr ||
        !module_index->is_number()) {
      return finish(AgentStatus::kError, "malformed job grant");
    }
    // Refresh the trap-store cache when the grant says ours is stale. The store
    // version only moves at round boundaries, so this snapshot is exactly the
    // round's import in the single-process campaign.
    if (const Json* v = resp.Find("trap_version");
        v != nullptr && v->is_number() &&
        static_cast<uint64_t>(v->as_int()) != cached_version) {
      const Json* traps = resp.Find("traps");
      if (traps == nullptr || !traps->is_string()) {
        return finish(AgentStatus::kError,
                      "job grant marked traps stale but carried none");
      }
      cached_traps = TrapFile::Deserialize(traps->as_string());
      cached_version = static_cast<uint64_t>(v->as_int());
    }

    RunJob job;
    job.module_index = static_cast<int>(module_index->as_int());
    job.round = static_cast<int>(round->as_int());
    RunOutcome outcome = campaign::ExecuteWithRetries(
        job,
        [&](const RunJob& attempt, tasks::ThreadPool& attempt_pool) {
          return executor.Execute(attempt, cached_traps, &attempt_pool);
        },
        pool, retry);
    if (outcome.module.empty() && outcome.module_index >= 0 &&
        outcome.module_index < static_cast<int>(corpus.size())) {
      outcome.module = corpus[outcome.module_index].name;
    }
    journal.AppendRun(outcome);

    Json publish = NewRequest("result", agent_options);
    publish.Set("nonce", ++nonce);
    publish.Set("lease", lease_id->as_int());
    publish.Set("outcome", sandbox::EncodeRunOutcome(outcome));
    Json ack;
    if (!CallWithRetry(client.get(), publish, &ack, agent_options.rpc_retry_ms,
                       agent_options.interrupt, &jitter_rng, &result.rpc_retries,
                       &error)) {
      if (agent_options.interrupt && agent_options.interrupt()) {
        break;  // the outcome is in the local journal; the lease will be stolen
      }
      return finish(AgentStatus::kUnreachable, "result publish: " + error);
    }
    ++result.runs;
    if (const Json* accepted = ack.Find("accepted");
        accepted != nullptr && accepted->is_bool() && !accepted->as_bool()) {
      ++result.duplicates;
    }
  }

  return finish(AgentStatus::kOk, "");
}

}  // namespace tsvd::fleet
