// Fleet agent: one worker process of a distributed campaign (DESIGN.md §13).
//
// An agent owns no campaign state. It joins the coordinator with a hello
// handshake, rebuilds the identical corpus and delay-engine config from the
// shipped options (src/campaign/run_executor.h — the shared execution core), then
// loops: lease a (module, round) job, execute it with the campaign's full retry /
// degradation / quarantine ladder (forking sandbox children when the policy asks),
// journal the outcome locally, publish it, repeat. The coordinator's ledger is the
// authoritative one; the agent's local journal is crash forensics — what this
// agent completed, fsync'd before each publish, surviving any SIGKILL.
//
// Network robustness (DESIGN.md §14): every lease/result exchange carries a
// per-agent nonce and is re-sent under exponential backoff with jitter until it
// succeeds or the per-RPC retry budget runs out. The nonce stays constant across
// re-sends of one logical request, so the coordinator's at-most-once cache makes
// retries and network-duplicated deliveries exactly-once. A background heartbeat
// thread (when enabled) proves liveness; an agent the coordinator evicted — or
// one that cannot reach the coordinator at all — ends with a distinct status so
// supervisors can tell "network/coordinator problem" from "campaign problem".
#ifndef SRC_FLEET_AGENT_H_
#define SRC_FLEET_AGENT_H_

#include <cstdint>
#include <functional>
#include <string>

namespace tsvd::fleet {

// Why the agent stopped. tsvd_fleet maps these to process exit codes
// (0 ok / 1 error / 3 unreachable / 4 evicted) so orchestrators can react
// without parsing stderr.
enum class AgentStatus {
  kOk,           // campaign finished (or clean interrupt)
  kError,        // protocol/setup failure (version mismatch, bad grant, ...)
  kUnreachable,  // coordinator never reachable, or lost past the retry budget
  kEvicted,      // coordinator evicted this agent for missed heartbeats
};

struct AgentOptions {
  std::string address;       // transport address of the coordinator
  std::string name = "agent";
  // Scratch directory for the local journal and sandbox checkpoints; empty picks
  // a unique directory under the system temp dir. Removed on clean exit only when
  // it was auto-picked.
  std::string work_dir;
  // How long hello waits for the coordinator to start listening. Expiry without
  // contact is the kUnreachable verdict.
  int hello_timeout_ms = 15'000;
  // Retry budget per lease/result exchange: failed Calls are re-sent (same
  // nonce, exponential backoff + jitter, 50 ms doubling to a ~2 s cap) until
  // this much time has passed, then the agent exits kUnreachable.
  int rpc_retry_ms = 30'000;
  // Liveness heartbeat cadence; <= 0 disables the heartbeat thread. Pair with
  // the coordinator's heartbeat_timeout_ms.
  int heartbeat_ms = 0;
  // Chaos spec (chaos_transport.h) injected on every link this agent opens;
  // empty = faultless. `chaos_salt` decorrelates agents sharing one spec.
  std::string chaos;
  uint64_t chaos_salt = 0;
  // Shared secret presented on every request when non-empty; must match the
  // coordinator's --auth_token or each request is refused.
  std::string auth_token;
  // Graceful stop: polled between runs; the first true finishes the current job,
  // publishes it, and exits cleanly.
  std::function<bool()> interrupt;
};

struct AgentResult {
  bool ok = false;  // status == kOk
  AgentStatus status = AgentStatus::kError;
  std::string error;        // set when !ok
  uint64_t runs = 0;        // jobs executed and published
  uint64_t duplicates = 0;  // publishes the coordinator discarded (stolen lease won)
  uint64_t rpc_retries = 0;  // lease/result re-sends the network forced
};

AgentResult RunAgent(const AgentOptions& options);

}  // namespace tsvd::fleet

#endif  // SRC_FLEET_AGENT_H_
