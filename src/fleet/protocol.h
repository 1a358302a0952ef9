// Fleet wire protocol (DESIGN.md §13): the JSON request/response vocabulary between
// coordinator and agents, plus the campaign-options codec that lets every agent
// rebuild the exact corpus and delay-engine config the coordinator scheduled.
//
// Exchanges (all initiated by the agent):
//
//   hello   {type:"hello", agent, protocol_version, codec_version}
//        -> {type:"setup", options:{...}, corpus_size}          // join the fleet
//        -> {type:"error", error}                               // version mismatch
//
//   lease   {type:"lease", agent, nonce, trap_version}
//        -> {type:"job", lease, round, module_index,
//            trap_version[, traps]}                             // traps only when
//                                                               // the agent is stale
//        -> {type:"wait", wait_ms}                              // nothing leasable
//        -> {type:"done", interrupted}                          // campaign over
//
//   result  {type:"result", agent, nonce, lease, outcome:{...}} // outcome_codec.h
//        -> {type:"ack", accepted}                              // false = duplicate
//                                                               // (stolen lease won)
//
//   heartbeat {type:"heartbeat", agent}                         // liveness proof
//        -> {type:"beat"}                                       // still in fleet
//        -> {type:"evicted"}                                    // missed too many
//        -> {type:"done", interrupted}                          // campaign over
//
// Authentication: when the coordinator runs with --auth_token, every request
// carries a matching `auth_token` field, checked before any handler runs; a
// request without it is answered {type:"error", error} and has no effect.
//
// Exactly-once over a lossy network: the `nonce` on lease/result requests is a
// per-agent monotonically increasing counter, held constant across re-sends of
// the same logical request. The coordinator caches the last {nonce, response}
// per agent; a replay with the cached nonce returns the cached response without
// re-executing the handler, so a duplicated or retried request cannot grant two
// leases or double-publish a result even when the original response was lost in
// flight. Hello and heartbeat are naturally idempotent and carry no nonce.
//
// Versioning: the hello handshake checks both the protocol version and the
// RunOutcome codec version (src/sandbox/outcome_codec.h), so mixed-build fleets
// fail at join time with a clear error instead of mid-campaign. Version 2 added
// nonces and heartbeats; the check is an exact match, so v1 and v2 processes
// refuse to form a fleet.
#ifndef SRC_FLEET_PROTOCOL_H_
#define SRC_FLEET_PROTOCOL_H_

#include <string>

#include "src/campaign/campaign.h"
#include "src/campaign/json.h"

namespace tsvd::fleet {

inline constexpr int64_t kFleetProtocolVersion = 2;

// Encodes the subset of CampaignOptions that determines campaign identity and
// per-run execution: detector, corpus shape, seeds, scale, sandbox policy, fault
// counts, and delay-engine overrides. Process-local fields (workers, out_dir,
// resume, interrupt hook, snapshot cadence) are deliberately not shipped — each
// process owns those.
campaign::Json EncodeCampaignOptions(const campaign::CampaignOptions& options);

// Strict inverse. Fields absent from the document keep their defaults; a
// present-but-mistyped field fails with `error` set.
bool DecodeCampaignOptions(const campaign::Json& doc,
                           campaign::CampaignOptions* options, std::string* error);

// Length-leaking but content-constant-time string comparison, for the
// per-request shared-secret check: the comparison inspects every byte of both strings
// regardless of where they first differ, so response timing cannot be used to
// guess a token byte-by-byte. (Leaking the length is acceptable — tokens are
// operator-chosen secrets, not padded cryptographic material.)
bool ConstantTimeEquals(const std::string& a, const std::string& b);

}  // namespace tsvd::fleet

#endif  // SRC_FLEET_PROTOCOL_H_
