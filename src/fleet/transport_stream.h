// The stream-socket transport backends (DESIGN.md §13–14): one server and one
// client over length-prefixed frames (src/fleet/wire.h), for two address
// families.
//
//   "uds:<path>"                     Unix-domain stream socket (same machine).
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
// policy owns re-sending.
//
// Framing is length-prefixed, not newline-delimited: a real network can
// truncate a message mid-byte, and a length prefix turns any truncation into a
// detectable short read instead of a silently concatenated document. A torn
// frame, a declared length past the 64 MiB guard, or any socket error costs
// that one connection; an unparseable payload is answered with a framed
// {"type":"error"}. All errors name the endpoint and carry errno text.
//
// These factories are internal to the transport layer; user code goes through
// MakeTransportServer / MakeTransportClient with a "uds:" or "tcp:" address.
#ifndef SRC_FLEET_TRANSPORT_STREAM_H_
#define SRC_FLEET_TRANSPORT_STREAM_H_

#include <memory>
#include <string>

#include "src/fleet/transport.h"

namespace tsvd::fleet {

// `address` carries its "uds:" or "tcp:" scheme. Returns null with `error` set
// on a malformed address; resolution/bind errors surface from Start()/Call()
// with errno text.
std::unique_ptr<TransportServer> MakeStreamTransportServer(const std::string& address,
                                                           std::string* error);
std::unique_ptr<TransportClient> MakeStreamTransportClient(const std::string& address,
                                                           std::string* error);

}  // namespace tsvd::fleet

#endif  // SRC_FLEET_TRANSPORT_STREAM_H_
