// Deterministic network-fault injection for fleet transports (DESIGN.md §14).
//
// ChaosClient decorates any TransportClient and injects, per exchange and per
// direction, the faults a real network delivers: message loss, added latency,
// duplicated deliveries, truncated frames, and full partitions. Every decision
// is drawn from a seeded splitmix64 stream in a fixed order per Call, so a
// given (spec, call sequence) replays the identical fault schedule — chaos runs
// are reproducible, which is what lets the chaos e2e suite assert bug-set
// equality instead of merely "it didn't crash".
//
// Fault model, mapped onto one request/response exchange:
//
//   drop_send=P    the request is lost before the server sees it. The caller's
//                  retry re-sends; no server state changed.
//   trunc=P        the request frame is truncated in flight. Length-prefixed
//                  framing turns truncation into loss at the RPC layer (the
//                  torn frame never parses; the server closes the connection),
//                  so the decorator models it as send-side loss with separate
//                  accounting; byte-level torn-frame robustness of the TCP
//                  framing itself is covered by transport_test.
//   dup=P          the request is delivered TWICE (the inner Call runs twice).
//                  The server processes both copies — this is the fault that
//                  proves nonce-based request dedup: without it, a duplicated
//                  lease grant or result publish would double-mutate.
//   drop_recv=P    the request is delivered and processed, but the RESPONSE is
//                  lost. The dangerous direction: the caller cannot tell this
//                  from drop_send, so its re-send replays a request the server
//                  already executed — exactly-once then rests entirely on the
//                  receiver's idempotency.
//   delay_ms=N     uniform extra latency in [0, N] ms, injected independently
//                  in each direction.
//   partition_after_ms=A, partition_ms=D, partition_every_ms=E, partition_dir=
//                  a full partition window: from A after the client's first use,
//                  for D ms, recurring every E ms (0 = once), blocking the send
//                  direction, the recv direction, or both. Send-blocked calls
//                  fail without reaching the server; recv-blocked calls reach
//                  and mutate the server but lose the response.
//
// Spec strings are comma-separated key=value lists, e.g.
//   "seed=7,drop_send=0.1,drop_recv=0.1,dup=0.2,delay_ms=5"
//   "seed=3,partition_after_ms=200,partition_ms=700,partition_dir=both"
//
// The decorator wraps clients only: in a request/response protocol every fault
// a server could inject is observable by some client as one of the above, and
// the coordinator must never be in the business of losing its own state.
#ifndef SRC_FLEET_CHAOS_TRANSPORT_H_
#define SRC_FLEET_CHAOS_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/fleet/transport.h"

namespace tsvd::fleet {

enum class PartitionDir { kSend, kRecv, kBoth };

struct ChaosSpec {
  uint64_t seed = 1;
  double drop_send = 0;  // probabilities in [0, 1]
  double drop_recv = 0;
  double dup = 0;
  double trunc = 0;
  int delay_ms = 0;               // max uniform extra latency per direction
  int64_t partition_after_ms = -1;  // <0 = never partition
  int64_t partition_ms = 0;         // window duration
  int64_t partition_every_ms = 0;   // recurrence period; 0 = one window only
  PartitionDir partition_dir = PartitionDir::kBoth;

  // Parses a comma-separated key=value spec. Unknown keys, unparseable values,
  // and probabilities outside [0, 1] fail with `error` set. An empty string is
  // a valid no-fault spec.
  static bool Parse(const std::string& text, ChaosSpec* out, std::string* error);
};

// What the decorator actually did — asserted by tests, printed by tools.
struct ChaosStats {
  uint64_t calls = 0;
  uint64_t dropped_send = 0;
  uint64_t dropped_recv = 0;
  uint64_t duplicated = 0;
  uint64_t truncated = 0;
  uint64_t partitioned = 0;
  uint64_t delayed = 0;
};

class ChaosClient : public TransportClient {
 public:
  // `seed_salt` lets several clients sharing one spec (an agent's lease loop
  // and its heartbeat thread) draw from distinct deterministic streams.
  ChaosClient(std::unique_ptr<TransportClient> inner, ChaosSpec spec,
              uint64_t seed_salt = 0);

  bool Call(const campaign::Json& request, campaign::Json* response,
            std::string* error) override;
  void set_connect_timeout_ms(int ms) override;

  ChaosStats stats() const;

 private:
  bool InPartition(PartitionDir direction) const;
  uint64_t NextRandom();

  const std::unique_ptr<TransportClient> inner_;
  const ChaosSpec spec_;
  uint64_t rng_state_;
  int64_t epoch_us_ = 0;  // first-use timestamp; partition windows are relative
  ChaosStats stats_;
};

// Convenience wrapper: parses `spec_text` and decorates `inner`. An empty spec
// returns `inner` unchanged. Returns null with `error` set on a malformed spec.
std::unique_ptr<TransportClient> WrapWithChaos(
    std::unique_ptr<TransportClient> inner, const std::string& spec_text,
    uint64_t seed_salt, std::string* error);

}  // namespace tsvd::fleet

#endif  // SRC_FLEET_CHAOS_TRANSPORT_H_
