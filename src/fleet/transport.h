// Fleet transport (DESIGN.md §13): the coordinator/agent protocol is pure
// request/response over JSON documents, so the wire sits behind two small
// interfaces and an address scheme. One stream server and one stream client
// carry length-prefixed frames (wire.h) for two address families:
//
//   "uds:<path>"                     Unix-domain stream socket (same machine);
//                                    what tsvd_fleet defaults to.
//   "tcp:<host>:<port>[?backlog=N]"  TCP stream socket, the backend that leaves
//                                    the machine.
//
// Only address resolution and bind/connect differ by family. Server: a uds
// server unlinks a stale socket file before binding; a tcp server resolves
// <host> (IPv4/IPv6/hostname; empty host binds the wildcard address) and binds
// with SO_REUSEADDR (coordinator restarts must not wait out TIME_WAIT). Both
// listen with the accept backlog (default 128), serve one thread per accepted
// connection, and reap each connection's thread and fd when it closes, so
// reconnect churn cannot grow a long-lived coordinator.
//
// Client: connects lazily with retry until the connect deadline (agents often
// start before the coordinator listens; a refused or unreachable endpoint is
// retried, not fatal), sets TCP_NODELAY on tcp (the protocol is small
// request/response exchanges — Nagle would serialize them against delayed
// ACKs), and fails a Call on any mid-exchange error so the caller's retry
// policy owns re-sending (agents re-send idempotently under nonces; see
// protocol.h).
//
// Framing is length-prefixed, not newline-delimited: a real network can
// truncate a message mid-byte, and a length prefix turns any truncation into a
// detectable short read instead of a silently concatenated document. A torn
// frame, a declared length past the 64 MiB guard, or any socket error costs
// that one connection; an unparseable payload is answered with a framed
// {"type":"error"}. Every transport error names the endpoint and carries the
// errno cause.
//
// For deterministic network-fault injection around any client, see
// chaos_transport.h.
#ifndef SRC_FLEET_TRANSPORT_H_
#define SRC_FLEET_TRANSPORT_H_

#include <functional>
#include <memory>
#include <string>

#include "src/campaign/json.h"

namespace tsvd::fleet {

// Server-side request handler. Invoked on a transport service thread (possibly
// several concurrently); must be thread-safe and return the response document.
using RequestHandler = std::function<campaign::Json(const campaign::Json& request)>;

class TransportServer {
 public:
  virtual ~TransportServer() = default;

  // Starts serving. Returns false (with `error` set) when the endpoint cannot be
  // created. Handler invocations may begin before Start returns.
  virtual bool Start(RequestHandler handler, std::string* error) = 0;

  // Stops accepting, severs live exchanges, and joins every service thread. No
  // handler invocation is in flight after Stop returns. Idempotent.
  virtual void Stop() = 0;
};

class TransportClient {
 public:
  virtual ~TransportClient() = default;

  // One request/response exchange. Establishes the connection lazily, retrying up
  // to `connect_timeout_ms` (the coordinator may not be listening yet). Returns
  // false with `error` set on failure; the next Call starts a fresh connection.
  virtual bool Call(const campaign::Json& request, campaign::Json* response,
                    std::string* error) = 0;

  virtual void set_connect_timeout_ms(int ms) = 0;
};

// Factories keyed by the address scheme ("uds:" | "tcp:"). Return null with
// `error` set for an unknown scheme or a malformed address; resolution, bind and
// connect errors surface from Start() / Call().
std::unique_ptr<TransportServer> MakeTransportServer(const std::string& address,
                                                     std::string* error);
std::unique_ptr<TransportClient> MakeTransportClient(const std::string& address,
                                                     std::string* error);

}  // namespace tsvd::fleet

#endif  // SRC_FLEET_TRANSPORT_H_
