#include "src/fleet/transport.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <system_error>
#include <thread>

#include "src/common/clock.h"
#include "src/fleet/wire.h"

namespace tsvd::fleet {
namespace {

using campaign::Json;

// A unix socket path or a tcp host and port.
struct StreamAddress {
  bool unix_socket = false;
  std::string path;  // uds
  std::string host;  // tcp; empty = wildcard (server) / 127.0.0.1 (client)
  std::string port;
  int backlog = 128;

  std::string Name() const {
    return unix_socket ? "uds:" + path : "tcp:" + host + ":" + port;
  }
};

// "<host>:<port>[?backlog=N]". The host may be a name, an IPv4 literal, or a
// bracketed IPv6 literal ("[::1]:7777"); the port is split at the *last* colon
// so unbracketed IPv6 literals fail loudly instead of mis-parsing.
bool ParseTcpAddress(const std::string& spec, StreamAddress* out,
                     std::string* error) {
  std::string rest = spec;
  const size_t query = rest.find('?');
  if (query != std::string::npos) {
    const std::string params = rest.substr(query + 1);
    rest.resize(query);
    if (params.rfind("backlog=", 0) == 0) {
      const long backlog = std::strtol(params.c_str() + 8, nullptr, 10);
      if (backlog <= 0 || backlog > 65535) {
        *error = "tcp address \"" + spec + "\": backlog must be in [1, 65535]";
        return false;
      }
      out->backlog = static_cast<int>(backlog);
    } else {
      *error = "tcp address \"" + spec + "\": unknown parameter \"" + params +
               "\" (want backlog=N)";
      return false;
    }
  }
  const size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon + 1 == rest.size()) {
    *error = "tcp address \"" + spec + "\": want host:port";
    return false;
  }
  out->host = rest.substr(0, colon);
  out->port = rest.substr(colon + 1);
  if (out->host.size() >= 2 && out->host.front() == '[' &&
      out->host.back() == ']') {
    out->host = out->host.substr(1, out->host.size() - 2);  // [::1] -> ::1
  }
  for (const char c : out->port) {
    if (c < '0' || c > '9') {
      *error = "tcp address \"" + spec + "\": port \"" + out->port +
               "\" is not a number";
      return false;
    }
  }
  return true;
}

bool ParseStreamAddress(const std::string& address, StreamAddress* out,
                        std::string* error) {
  if (address.rfind("uds:", 0) == 0) {
    out->unix_socket = true;
    out->path = address.substr(4);
    return true;
  }
  if (address.rfind("tcp:", 0) == 0) {
    return ParseTcpAddress(address.substr(4), out, error);
  }
  *error = "unknown transport scheme in \"" + address + "\" (want uds: or tcp:)";
  return false;
}

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool UnixSocketAddress(const std::string& path, sockaddr_un* addr,
                       std::string* error) {
  if (path.size() >= sizeof(addr->sun_path)) {
    *error = "socket path too long: " + path;
    return false;
  }
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

// Binds and listens. Returns the listening fd, or -1 with `error` set.
int Listen(const StreamAddress& address, std::string* error) {
  if (address.unix_socket) {
    sockaddr_un addr{};
    if (!UnixSocketAddress(address.path, &addr, error)) {
      return -1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      *error = Errno("socket");
      return -1;
    }
    ::unlink(address.path.c_str());  // a previous server's stale endpoint
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, address.backlog) != 0) {
      *error = Errno("bind/listen " + address.Name());
      ::close(fd);
      return -1;
    }
    return fd;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* results = nullptr;
  const int rc =
      ::getaddrinfo(address.host.empty() ? nullptr : address.host.c_str(),
                    address.port.c_str(), &hints, &results);
  if (rc != 0) {
    *error = "resolve " + address.Name() + ": " + ::gai_strerror(rc);
    return -1;
  }
  *error = "no usable address";
  int listen_fd = -1;
  for (const addrinfo* ai = results; ai != nullptr && listen_fd < 0;
       ai = ai->ai_next) {
    const int fd =
        ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
    if (fd < 0) {
      *error = Errno("socket");
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, address.backlog) != 0) {
      *error = Errno("bind/listen " + address.Name());
      ::close(fd);
      continue;
    }
    listen_fd = fd;
  }
  ::freeaddrinfo(results);
  return listen_fd;
}

// One connection attempt. Returns the connected fd, or -1 with `error` set.
int ConnectOnce(const StreamAddress& address, std::string* error) {
  if (address.unix_socket) {
    sockaddr_un addr{};
    if (!UnixSocketAddress(address.path, &addr, error)) {
      return -1;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      *error = Errno("socket");
      return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    *error = std::strerror(errno);
    ::close(fd);
    return -1;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const int rc = ::getaddrinfo(
      address.host.empty() ? "127.0.0.1" : address.host.c_str(),
      address.port.c_str(), &hints, &results);
  if (rc != 0) {
    *error = ::gai_strerror(rc);
    return -1;
  }
  int connected = -1;
  for (const addrinfo* ai = results; ai != nullptr && connected < 0;
       ai = ai->ai_next) {
    const int fd =
        ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
    if (fd < 0) {
      *error = Errno("socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      SetNoDelay(fd);
      connected = fd;
    } else {
      *error = std::strerror(errno);
      ::close(fd);
    }
  }
  ::freeaddrinfo(results);
  return connected;
}

class StreamServer : public TransportServer {
 public:
  explicit StreamServer(StreamAddress address) : address_(std::move(address)) {}
  ~StreamServer() override { Stop(); }

  bool Start(RequestHandler handler, std::string* error) override {
    listen_fd_ = Listen(address_, error);
    if (listen_fd_ < 0) {
      return false;
    }
    handler_ = std::move(handler);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return true;
  }

  void Stop() override {
    if (listen_fd_ < 0) {
      return;
    }
    stopping_.store(true, std::memory_order_relaxed);
    // shutdown wakes a blocked accept on Linux; closing alone need not.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable()) {
      accept_thread_.join();
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    {
      // A connection closes its fd under mu_, so every fd still recorded here
      // is open and ours: no shutdown can hit a number the process reused.
      std::lock_guard<std::mutex> lock(mu_);
      for (const Connection& conn : connections_) {
        if (conn.fd >= 0) {
          ::shutdown(conn.fd, SHUT_RDWR);
        }
      }
    }
    // The accept thread is gone, so nothing adds to or erases from the list.
    for (Connection& conn : connections_) {
      conn.thread.join();
    }
    connections_.clear();
    if (address_.unix_socket) {
      ::unlink(address_.path.c_str());
    }
  }

 private:
  struct Connection {
    int fd = -1;  // -1 once the connection closed it
    bool done = false;
    std::thread thread;
  };
  using ConnectionIt = std::list<Connection>::iterator;

  void AcceptLoop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) {
          continue;
        }
        break;  // shutdown (or a fatal accept error): stop serving
      }
      if (!address_.unix_socket) {
        SetNoDelay(fd);
      }
      std::lock_guard<std::mutex> lock(mu_);
      ReapLocked();
      const ConnectionIt conn = connections_.emplace(connections_.end());
      conn->fd = fd;
      try {
        conn->thread = std::thread([this, conn, fd] { Serve(conn, fd); });
      } catch (const std::system_error&) {
        // No thread to serve it (resource exhaustion): refuse this connection.
        ::close(fd);
        connections_.erase(conn);
      }
    }
  }

  // Joins the threads of connections that closed. Requires mu_; a finished
  // connection's last step was releasing mu_, so the join cannot block on it.
  void ReapLocked() {
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->done) {
        it->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void Serve(ConnectionIt conn, int fd) {
    std::string payload;
    while (!stopping_.load(std::memory_order_relaxed)) {
      // A torn frame, an oversized length (garbage prefix), or any socket error
      // closes this connection; other connections keep serving.
      if (wire::RecvFrame(fd, &payload) != 1) {
        break;
      }
      Json request;
      Json response;
      if (Json::Parse(payload, &request)) {
        response = handler_(request);
      } else {
        response = Json::MakeObject();
        response.Set("type", "error");
        response.Set("error", "unparseable request");
      }
      if (!wire::SendFrame(fd, response.Dump())) {
        break;
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    ::close(fd);
    conn->fd = -1;
    conn->done = true;
  }

  const StreamAddress address_;
  RequestHandler handler_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::mutex mu_;
  std::list<Connection> connections_;  // live, plus closed ones not yet reaped
  std::thread accept_thread_;
};

class StreamClient : public TransportClient {
 public:
  explicit StreamClient(StreamAddress address) : address_(std::move(address)) {}
  ~StreamClient() override {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  void set_connect_timeout_ms(int ms) override { connect_timeout_ms_ = ms; }

  bool Call(const Json& request, Json* response, std::string* error) override {
    if (fd_ < 0 && !Connect(error)) {
      return false;
    }
    errno = 0;  // distinguish a clean peer close from a real socket error
    std::string payload;
    if (!wire::SendFrame(fd_, request.Dump()) ||
        wire::RecvFrame(fd_, &payload) != 1) {
      const int err = errno;  // captured before close can overwrite it
      // Sever the exchange: the next Call reconnects from scratch.
      ::close(fd_);
      fd_ = -1;
      *error = "coordinator connection lost (" + address_.Name() + "): " +
               (err != 0 ? std::strerror(err) : "connection closed by peer");
      return false;
    }
    if (!Json::Parse(payload, response)) {
      *error = "unparseable response from coordinator";
      return false;
    }
    return true;
  }

 private:
  bool Connect(std::string* error) {
    const Micros deadline =
        NowMicros() + static_cast<Micros>(connect_timeout_ms_) * 1000;
    std::string last_error;
    while ((fd_ = ConnectOnce(address_, &last_error)) < 0) {
      // The coordinator may simply not be listening yet (agents are often
      // spawned first, and across machines it may still be booting); retry
      // until the deadline.
      if (NowMicros() >= deadline) {
        *error = "connect " + address_.Name() + ": " + last_error;
        return false;
      }
      SleepMicros(20'000);
    }
    return true;
  }

  const StreamAddress address_;
  int connect_timeout_ms_ = 10'000;
  int fd_ = -1;
};

}  // namespace

std::unique_ptr<TransportServer> MakeTransportServer(const std::string& address,
                                                     std::string* error) {
  StreamAddress parsed;
  if (!ParseStreamAddress(address, &parsed, error)) {
    return nullptr;
  }
  return std::make_unique<StreamServer>(std::move(parsed));
}

std::unique_ptr<TransportClient> MakeTransportClient(const std::string& address,
                                                     std::string* error) {
  StreamAddress parsed;
  if (!ParseStreamAddress(address, &parsed, error)) {
    return nullptr;
  }
  return std::make_unique<StreamClient>(std::move(parsed));
}

}  // namespace tsvd::fleet
