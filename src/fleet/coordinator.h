// Fleet coordinator: the distributed front end of the campaign (DESIGN.md §13).
//
// The round loop, the journal, the BugReportMgr and the reports belong to
// campaign::CampaignDriver, exactly as in RunCampaign. The coordinator is the
// driver's lease executor: it distributes *execution* — (module, round) jobs
// leased to agents over the abstracted transport, stolen back when a lease
// expires (the agent died or stalled), with idempotent acceptance so a
// stolen-then-also-published job can never double-count bugs — and serves the
// versioned trap store, which advances only at the driver's round boundary, so
// every job of round r imports the same snapshot. With identical options and
// seed, a fleet of any size — including one that lost agents to SIGKILL
// mid-round — reports the same unique-bug set as `RunCampaign`, because agents
// drive the shared execution core (src/campaign/run_executor.h) with identical
// inputs and the driver ingests in identical order.
//
// Over a lossy network (DESIGN.md §14) the same contract holds: replayed
// lease/result requests are answered from a per-agent nonce cache instead of
// re-executed, agents silent past heartbeat_timeout_ms are evicted (their
// leases become instantly stealable, their exchanges answer "evicted").
#ifndef SRC_FLEET_COORDINATOR_H_
#define SRC_FLEET_COORDINATOR_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/campaign/campaign.h"
#include "src/campaign/driver.h"
#include "src/campaign/json.h"
#include "src/fleet/transport.h"
#include "src/fleet/trap_store.h"

namespace tsvd::fleet {

struct FleetOptions {
  // Campaign identity and execution policy; shipped to agents verbatim (minus
  // process-local fields). `campaign.workers` is the configured agent count,
  // reported as the campaign's "workers" (0: agents join from outside, and the
  // report counts those that said hello). `campaign.out_dir`, `resume`,
  // `journal_snapshot_every`, and `interrupt` keep their single-process meaning,
  // applied at the coordinator.
  campaign::CampaignOptions campaign;
  std::string address;  // transport endpoint ("uds:" | "tcp:")
  // A leased job not published within this window is considered lost (agent
  // SIGKILLed, wedged, or partitioned) and becomes stealable by any agent.
  int lease_timeout_ms = 30'000;
  // Backoff hint returned to agents when nothing is leasable right now.
  int wait_hint_ms = 50;
  // Failsafe: abort the campaign when no agent has contacted the coordinator for
  // this long while work is pending (the whole fleet died). <= 0 disables.
  int agent_idle_timeout_ms = 120'000;
  // Liveness eviction (DESIGN.md §14): an agent silent — no lease, result, or
  // heartbeat — for this long is evicted: its open leases become immediately
  // stealable (no waiting out lease_timeout_ms) and the agent is told "evicted"
  // on its next exchange so it can exit with a distinct status. The leases stay
  // open, so an evicted-but-actually-partitioned agent that publishes first
  // still wins (first-publish-wins is preserved). <= 0 disables.
  int heartbeat_timeout_ms = 0;
  // Shared-secret check: when non-empty, every request must carry an
  // "auth_token" field that matches (compared in constant time) or it is
  // answered with a framed {type:"error"}, counted in
  // stats.requests_rejected_auth, and never reaches a handler or the nonce
  // cache. Defends a tcp: listener on a shared network against stray or
  // misdirected agents; it is not transport encryption.
  std::string auth_token;
};

struct FleetStats {
  uint64_t agents_joined = 0;       // distinct agent names that completed hello
  uint64_t leases_granted = 0;
  uint64_t leases_stolen = 0;      // re-leases of an expired lease
  uint64_t duplicate_results = 0;  // publishes discarded by idempotent acceptance
  uint64_t duplicate_requests = 0;  // replays answered from the nonce cache
  uint64_t agents_evicted = 0;      // liveness evictions (re-joins may re-count)
  uint64_t requests_rejected_auth = 0;  // requests refused by the auth_token check
};

class FleetCoordinator : private campaign::RoundExecutor {
 public:
  explicit FleetCoordinator(FleetOptions options);
  ~FleetCoordinator() override;
  FleetCoordinator(const FleetCoordinator&) = delete;
  FleetCoordinator& operator=(const FleetCoordinator&) = delete;

  // Runs the campaign to completion (or interrupt / fleet death) and returns the
  // same result shape as RunCampaign. The transport keeps serving "done" to
  // late-arriving agents after Run returns, so callers can join their agent
  // processes before calling Shutdown.
  campaign::CampaignResult Run();

  // Stops the transport. Called automatically by the destructor.
  void Shutdown();

  FleetStats stats() const;

 private:
  enum class JobPhase { kPending, kLeased, kDone };
  struct JobSlot {
    int module_index = -1;
    JobPhase phase = JobPhase::kPending;
    Micros lease_deadline_us = 0;
    campaign::RunOutcome outcome;
  };
  struct OpenLease {
    size_t slot = 0;
    std::string agent;  // holder, for eviction's immediate-steal
  };
  // Per-agent liveness and at-most-once state, keyed by agent name. A single
  // cached {nonce, response} suffices because an agent's nonces are issued by
  // one sequential loop: a replay is always of the *latest* request (the one
  // whose response may have been lost); anything older already succeeded and
  // is safe to reprocess anyway (leases and publishes are idempotent).
  struct AgentInfo {
    Micros last_seen_us = 0;
    bool evicted = false;
    uint64_t cached_nonce = 0;
    bool has_cached = false;
    campaign::Json cached_response;
  };

  campaign::Json Handle(const campaign::Json& request);
  // True when no token is configured or `request` carries the matching one;
  // otherwise counts the refusal.
  bool Authenticated(const campaign::Json& request);
  campaign::Json HandleHello(const campaign::Json& request);
  campaign::Json HandleLease(const campaign::Json& request);
  campaign::Json HandleResult(const campaign::Json& request);
  campaign::Json HandleHeartbeat(const campaign::Json& request);

  // The driver's seam (src/campaign/driver.h). Restore also starts the
  // transport, so nothing is served before the resumed store is in place.
  bool Restore(TrapFile traps, std::string* error) override;
  TrapFile Snapshot() const override { return store_.Snapshot(); }
  size_t CommitRound(const TrapFile& round_traps) override {
    return store_.CommitRound(round_traps);
  }
  campaign::RoundRun ExecuteRound(const std::vector<campaign::RunJob>& jobs,
                                  const campaign::RoundHooks& hooks) override;
  int workers() const override;

  // Marks agents silent past heartbeat_timeout_ms as evicted and zeroes the
  // lease deadlines they hold. Returns the newly evicted names so the caller
  // can journal them outside the lock. Requires mu_.
  std::vector<std::string> SweepEvictionsLocked(Micros now);
  // Open leases whose holder is not evicted — what a graceful drain waits on.
  size_t LiveOpenLeasesLocked() const;

  const FleetOptions options_;

  std::unique_ptr<TransportServer> server_;
  TrapStoreService store_;

  mutable std::mutex mu_;
  std::condition_variable round_cv_;  // ExecuteRound waits for the last outcome
  bool round_active_ = false;
  bool finished_ = false;
  bool interrupted_ = false;
  int round_ = 0;
  std::vector<JobSlot> slots_;
  size_t done_count_ = 0;
  size_t committing_ = 0;  // accepted results whose ledger record is in flight
  // The round's journal hook; set while a round executes.
  const std::function<void(const campaign::RunOutcome&)>* commit_ = nullptr;
  uint64_t next_lease_ = 1;
  std::map<uint64_t, OpenLease> open_leases_;  // lease id -> holder + slot
  std::map<std::string, AgentInfo> agents_;
  Micros last_contact_us_ = 0;
  FleetStats stats_;
  size_t corpus_size_ = 0;
};

}  // namespace tsvd::fleet

#endif  // SRC_FLEET_COORDINATOR_H_
