// Fleet transport abstraction (DESIGN.md §13).
//
// The coordinator/agent protocol is pure request/response over JSON documents, so
// the wire is abstracted behind two tiny interfaces and an address scheme.
// Three backends ship today:
//
//   "uds:<path>"  Unix-domain stream socket: the low-latency backend, what
//                 tsvd_fleet defaults to.
//
//   "dir:<path>"  File-based queue: requests are files atomically renamed into
//                 <path>/req/, responses into <path>/resp/, matched by file name.
//                 Survives on filesystems where sockets are unavailable (some
//                 containers, network mounts) and leaves an inspectable on-disk
//                 trace; higher latency (exponential-backoff polling).
//
//   "tcp:<host>:<port>[?backlog=N]"
//                 TCP stream socket — the backend that leaves the machine.
//
// uds: and tcp: are one stream server and client over length-prefixed frames
// (transport_stream.h, wire.h); only bind/connect differ by address family.
//
// Clients retry connection establishment — agents may start before the coordinator
// listens — but a Call on an established exchange fails rather than retries, so a
// lost coordinator surfaces as an error the caller's retry policy can act on
// (agents re-send idempotently under nonces; see protocol.h). Every transport
// error string names the failing endpoint and carries the errno cause.
//
// For deterministic network-fault injection around any client backend, see
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

// Factories keyed by the address scheme ("uds:" | "dir:" | "tcp:"). Return null
// with `error` set for an unknown scheme or an unusable address.
std::unique_ptr<TransportServer> MakeTransportServer(const std::string& address,
                                                     std::string* error);
std::unique_ptr<TransportClient> MakeTransportClient(const std::string& address,
                                                     std::string* error);

}  // namespace tsvd::fleet

#endif  // SRC_FLEET_TRANSPORT_H_
