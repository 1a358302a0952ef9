#include "src/fleet/coordinator.h"

#include <chrono>
#include <utility>

#include "src/campaign/run_executor.h"
#include "src/fleet/protocol.h"
#include "src/sandbox/outcome_codec.h"

namespace tsvd::fleet {

using campaign::CampaignResult;
using campaign::Json;
using campaign::RunOutcome;
using campaign::RunStatus;

FleetCoordinator::FleetCoordinator(FleetOptions options)
    : options_(std::move(options)) {}

FleetCoordinator::~FleetCoordinator() { Shutdown(); }

void FleetCoordinator::Shutdown() {
  if (server_ != nullptr) {
    server_->Stop();
    server_.reset();
  }
}

FleetStats FleetCoordinator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

namespace {

std::string AgentName(const Json& request) {
  const Json* agent = request.Find("agent");
  return agent != nullptr && agent->is_string() ? agent->as_string() : "";
}

uint64_t RequestNonce(const Json& request) {
  const Json* nonce = request.Find("nonce");
  return nonce != nullptr && nonce->is_number() && nonce->as_int() > 0
             ? static_cast<uint64_t>(nonce->as_int())
             : 0;
}

}  // namespace

bool FleetCoordinator::Authenticated(const Json& request) {
  if (options_.auth_token.empty()) {
    return true;
  }
  const Json* token = request.Find("auth_token");
  const std::string presented =
      token != nullptr && token->is_string() ? token->as_string() : "";
  if (ConstantTimeEquals(presented, options_.auth_token)) {
    return true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.requests_rejected_auth;
  return false;
}

Json FleetCoordinator::Handle(const Json& request) {
  // Authentication comes before everything else — an unauthenticated caller
  // learns nothing about the fleet, not even which protocol version it speaks,
  // and cannot lease, publish, or touch the nonce cache.
  if (!Authenticated(request)) {
    Json resp = Json::MakeObject();
    resp.Set("type", "error");
    resp.Set("error",
             "fleet request rejected: missing or invalid auth token "
             "(coordinator runs with --auth_token)");
    return resp;
  }
  const Json* type = request.Find("type");
  const std::string kind =
      type != nullptr && type->is_string() ? type->as_string() : "";
  if (kind == "hello") {
    return HandleHello(request);
  }
  if (kind == "heartbeat") {
    return HandleHeartbeat(request);
  }
  if (kind == "lease" || kind == "result") {
    // At-most-once gate (protocol.h): a replay of the agent's latest nonce —
    // its retry after a lost response, or a network-duplicated delivery — is
    // answered from the cache without re-entering the handler, so it cannot
    // grant a second lease or publish twice.
    const std::string agent = AgentName(request);
    const uint64_t nonce = RequestNonce(request);
    {
      std::lock_guard<std::mutex> lock(mu_);
      last_contact_us_ = NowMicros();
      AgentInfo& info = agents_[agent];
      info.last_seen_us = last_contact_us_;
      if (nonce != 0 && info.has_cached && info.cached_nonce == nonce) {
        ++stats_.duplicate_requests;
        return info.cached_response;
      }
    }
    Json resp = kind == "lease" ? HandleLease(request) : HandleResult(request);
    if (nonce != 0) {
      std::lock_guard<std::mutex> lock(mu_);
      AgentInfo& info = agents_[agent];
      info.cached_nonce = nonce;
      info.cached_response = resp;
      info.has_cached = true;
    }
    return resp;
  }
  Json resp = Json::MakeObject();
  resp.Set("type", "error");
  resp.Set("error", "unknown request type \"" + kind + "\"");
  return resp;
}

Json FleetCoordinator::HandleHeartbeat(const Json& request) {
  Json resp = Json::MakeObject();
  std::lock_guard<std::mutex> lock(mu_);
  last_contact_us_ = NowMicros();
  AgentInfo& info = agents_[AgentName(request)];
  info.last_seen_us = last_contact_us_;
  // Eviction is sticky until the next hello: a heartbeat arriving after the
  // verdict (the partition healed) tells the agent, not the other way around.
  if (info.evicted) {
    resp.Set("type", "evicted");
    return resp;
  }
  if (finished_ || interrupted_) {
    resp.Set("type", "done");
    resp.Set("interrupted", interrupted_);
    return resp;
  }
  resp.Set("type", "beat");
  return resp;
}

Json FleetCoordinator::HandleHello(const Json& request) {
  Json resp = Json::MakeObject();
  const Json* protocol = request.Find("protocol_version");
  if (protocol == nullptr || !protocol->is_number() ||
      protocol->as_int() != kFleetProtocolVersion) {
    resp.Set("type", "error");
    resp.Set("error",
             "fleet protocol version mismatch: agent speaks " +
                 (protocol != nullptr && protocol->is_number()
                      ? std::to_string(protocol->as_int())
                      : std::string("(none)")) +
                 ", coordinator speaks " + std::to_string(kFleetProtocolVersion));
    return resp;
  }
  const Json* codec = request.Find("codec_version");
  if (codec == nullptr || !codec->is_number() ||
      codec->as_int() != sandbox::kRunOutcomeCodecVersion) {
    resp.Set("type", "error");
    resp.Set("error",
             "run outcome codec version mismatch: agent speaks " +
                 (codec != nullptr && codec->is_number()
                      ? std::to_string(codec->as_int())
                      : std::string("(none)")) +
                 ", coordinator speaks " +
                 std::to_string(sandbox::kRunOutcomeCodecVersion) +
                 " — coordinator and agent builds must match");
    return resp;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_contact_us_ = NowMicros();
    AgentInfo& info = agents_[AgentName(request)];
    if (info.last_seen_us == 0) {
      // Distinct names only: a retried or duplicated hello must not recount.
      ++stats_.agents_joined;
    }
    info.last_seen_us = last_contact_us_;
    info.evicted = false;  // a fresh join wipes any earlier eviction verdict
  }
  resp.Set("type", "setup");
  resp.Set("options", EncodeCampaignOptions(options_.campaign));
  resp.Set("corpus_size", static_cast<int64_t>(corpus_size_));
  return resp;
}

Json FleetCoordinator::HandleLease(const Json& request) {
  const Json* have = request.Find("trap_version");
  const uint64_t agent_trap_version =
      have != nullptr && have->is_number() ? static_cast<uint64_t>(have->as_int())
                                           : 0;
  const std::string agent = AgentName(request);
  Json resp = Json::MakeObject();
  uint64_t lease_id = 0;
  int module_index = -1;
  int round = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_contact_us_ = NowMicros();
    // Eviction outranks completion: an evicted agent must learn its verdict (and
    // exit with the distinct status) even when the campaign also happens to be
    // over by the time it reconnects.
    if (agents_[agent].evicted) {
      resp.Set("type", "evicted");
      return resp;
    }
    if (finished_ || interrupted_) {
      // Campaign over (or draining after a signal): agents exit. A drain lets an
      // agent's in-flight job still publish — HandleResult keeps accepting while
      // its lease is open.
      resp.Set("type", "done");
      resp.Set("interrupted", interrupted_);
      return resp;
    }
    if (round_active_) {
      const Micros now = NowMicros();
      size_t grant_slot = slots_.size();
      for (size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].phase == JobPhase::kPending) {
          grant_slot = i;
          break;
        }
      }
      if (grant_slot == slots_.size()) {
        // No virgin job: steal the first lease past its deadline (its agent was
        // SIGKILLed, wedged, or partitioned). The original lease stays open — if
        // its holder does publish first, that result still wins.
        for (size_t i = 0; i < slots_.size(); ++i) {
          if (slots_[i].phase == JobPhase::kLeased &&
              slots_[i].lease_deadline_us < now) {
            grant_slot = i;
            ++stats_.leases_stolen;
            break;
          }
        }
      }
      if (grant_slot < slots_.size()) {
        JobSlot& slot = slots_[grant_slot];
        lease_id = next_lease_++;
        slot.phase = JobPhase::kLeased;
        slot.lease_deadline_us =
            now + static_cast<Micros>(options_.lease_timeout_ms) * 1000;
        open_leases_[lease_id] = OpenLease{grant_slot, agent};
        ++stats_.leases_granted;
        module_index = slot.module_index;
        round = round_;
      }
    }
  }
  if (lease_id == 0) {
    resp.Set("type", "wait");
    resp.Set("wait_ms", options_.wait_hint_ms);
    return resp;
  }
  resp.Set("type", "job");
  resp.Set("lease", lease_id);
  resp.Set("round", round);
  resp.Set("module_index", module_index);
  uint64_t version = 0;
  std::string traps;
  if (store_.SerializeIfStale(agent_trap_version, &version, &traps)) {
    resp.Set("trap_version", version);
    resp.Set("traps", traps);
  } else {
    resp.Set("trap_version", agent_trap_version);
  }
  return resp;
}

Json FleetCoordinator::HandleResult(const Json& request) {
  Json resp = Json::MakeObject();
  const Json* lease = request.Find("lease");
  const Json* outcome_doc = request.Find("outcome");
  if (lease == nullptr || !lease->is_number() || outcome_doc == nullptr) {
    resp.Set("type", "error");
    resp.Set("error", "malformed result publish");
    return resp;
  }
  RunOutcome outcome;
  std::string codec_error;
  if (!sandbox::DecodeRunOutcome(*outcome_doc, &outcome, &codec_error)) {
    resp.Set("type", "error");
    resp.Set("error", "undecodable outcome: " + codec_error);
    return resp;
  }
  const uint64_t lease_id = static_cast<uint64_t>(lease->as_int());
  const std::function<void(const RunOutcome&)>* commit = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_contact_us_ = NowMicros();
    const auto it = open_leases_.find(lease_id);
    // Idempotent acceptance: the first publish for a slot wins; anything later
    // — a re-executed stolen job, a retransmit — is acknowledged and discarded,
    // so no run can ever double-count into stats, the journal, or the bug
    // manager.
    if (it != open_leases_.end() &&
        slots_[it->second.slot].phase == JobPhase::kLeased &&
        outcome.module_index == slots_[it->second.slot].module_index &&
        outcome.round == round_) {
      const size_t done_slot = it->second.slot;
      slots_[done_slot].outcome = outcome;
      slots_[done_slot].phase = JobPhase::kDone;
      // Every lease for this slot (original + stolen) is now dead.
      std::erase_if(open_leases_, [done_slot](const auto& entry) {
        return entry.second.slot == done_slot;
      });
      commit = commit_;
      ++committing_;
    } else {
      ++stats_.duplicate_results;
    }
  }
  if (commit != nullptr) {
    // The ledger commit point, fsync'd before the ack and outside the
    // coordinator lock. done_count_ advances only after the record is durable,
    // so the round barrier can never commit a round record ahead of one of its
    // run records.
    (*commit)(outcome);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --committing_;
      ++done_count_;
    }
    round_cv_.notify_all();
  }
  resp.Set("type", "ack");
  resp.Set("accepted", commit != nullptr);
  return resp;
}

std::vector<std::string> FleetCoordinator::SweepEvictionsLocked(Micros now) {
  std::vector<std::string> newly_evicted;
  if (options_.heartbeat_timeout_ms <= 0) {
    return newly_evicted;
  }
  const Micros budget = static_cast<Micros>(options_.heartbeat_timeout_ms) * 1000;
  for (auto& [name, info] : agents_) {
    if (info.evicted || info.last_seen_us == 0 ||
        now - info.last_seen_us <= budget) {
      continue;
    }
    info.evicted = true;
    ++stats_.agents_evicted;
    newly_evicted.push_back(name);
    // The evicted agent's leases become stealable NOW: a fleet must not idle
    // out the full lease_timeout_ms for an agent already judged dead. The
    // leases stay open — if the agent was merely partitioned and its publish
    // races the steal, whichever lands first wins, exactly as for any steal.
    for (const auto& [lease_id, lease] : open_leases_) {
      if (lease.agent == name) {
        slots_[lease.slot].lease_deadline_us = 0;
      }
    }
  }
  return newly_evicted;
}

size_t FleetCoordinator::LiveOpenLeasesLocked() const {
  size_t live = 0;
  for (const auto& [lease_id, lease] : open_leases_) {
    const auto it = agents_.find(lease.agent);
    if (it == agents_.end() || !it->second.evicted) {
      ++live;
    }
  }
  return live;
}

CampaignResult FleetCoordinator::Run() {
  const std::vector<workload::ModuleSpec> corpus =
      campaign::BuildCampaignCorpus(options_.campaign).modules;
  corpus_size_ = corpus.size();
  CampaignResult result = campaign::CampaignDriver(options_.campaign, corpus).Run(this);
  {
    std::lock_guard<std::mutex> lock(mu_);
    finished_ = true;
  }
  return result;
}

bool FleetCoordinator::Restore(TrapFile traps, std::string* error) {
  store_.Restore(std::move(traps));
  std::string transport_error;
  server_ = MakeTransportServer(options_.address, &transport_error);
  if (server_ == nullptr ||
      !server_->Start([this](const Json& req) { return Handle(req); },
                      &transport_error)) {
    server_.reset();
    *error = "transport: " + transport_error;
    return false;
  }
  return true;
}

int FleetCoordinator::workers() const {
  if (options_.campaign.workers > 0) {
    return options_.campaign.workers;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(stats_.agents_joined);
}

campaign::RoundRun FleetCoordinator::ExecuteRound(
    const std::vector<campaign::RunJob>& jobs, const campaign::RoundHooks& hooks) {
  const int round = jobs.front().round;
  {
    std::lock_guard<std::mutex> lock(mu_);
    slots_.clear();
    for (const campaign::RunJob& job : jobs) {
      JobSlot slot;
      slot.module_index = job.module_index;
      slots_.push_back(std::move(slot));
    }
    open_leases_.clear();
    done_count_ = 0;
    round_ = round;
    commit_ = &hooks.commit;
    round_active_ = true;
    last_contact_us_ = NowMicros();
  }

  campaign::RoundRun run;
  std::vector<JobSlot> slots;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Journals an eviction verdict without holding the coordinator lock over
    // the fsync — handlers must never queue behind ledger I/O.
    const auto journal_evictions = [&](const std::vector<std::string>& names) {
      if (names.empty()) {
        return;
      }
      lock.unlock();
      for (const std::string& name : names) {
        hooks.event("agent-evicted",
                    name + " silent for over " +
                        std::to_string(options_.heartbeat_timeout_ms) +
                        " ms in round " + std::to_string(round) +
                        "; its leases are released for stealing");
      }
      lock.lock();
    };
    while (done_count_ < slots_.size()) {
      round_cv_.wait_for(lock, std::chrono::milliseconds(50));
      journal_evictions(SweepEvictionsLocked(NowMicros()));
      if (hooks.interrupt() && !interrupted_) {
        // Graceful drain: stop granting (agents get "done" on their next
        // lease), let in-flight jobs publish, then stop waiting for the rest.
        // Only leases held by live agents are worth waiting on — an evicted
        // holder's publish window already closed with its eviction.
        interrupted_ = true;
        const Micros drain_deadline =
            NowMicros() + static_cast<Micros>(options_.lease_timeout_ms) * 1000;
        while (LiveOpenLeasesLocked() > 0 && NowMicros() < drain_deadline) {
          round_cv_.wait_for(lock, std::chrono::milliseconds(50));
          journal_evictions(SweepEvictionsLocked(NowMicros()));
        }
        run.drained = true;
        break;
      }
      if (options_.agent_idle_timeout_ms > 0 && done_count_ < slots_.size() &&
          NowMicros() - last_contact_us_ >
              static_cast<Micros>(options_.agent_idle_timeout_ms) * 1000) {
        run.fatal = "fleet stalled: no agent contact for " +
                    std::to_string(options_.agent_idle_timeout_ms) +
                    " ms with runs still pending — all agents presumed dead; "
                    "rerun with resume to continue";
        break;
      }
    }
    round_active_ = false;
    // An accepted result may still be writing its ledger record; the hook
    // must not outlive the round.
    round_cv_.wait(lock, [this] { return committing_ == 0; });
    commit_ = nullptr;
    slots = std::move(slots_);
    slots_.clear();
    // Any lease still open (a drain cut its job short, or a straggler is about
    // to publish a stolen job's duplicate) now dangles; kill it so a late
    // publish is acked as a duplicate instead of touching the harvested round.
    open_leases_.clear();
  }
  for (JobSlot& slot : slots) {
    if (slot.phase == JobPhase::kDone) {
      run.outcomes.push_back(std::move(slot.outcome));
    }
  }
  return run;
}

}  // namespace tsvd::fleet
