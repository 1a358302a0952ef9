// Socket wire helpers for the stream transport (DESIGN.md §13–14): the
// EINTR-safe send/receive loops and the frame format that uds: and tcp: share.
//
// The frame format is deliberately dumb: a 4-byte big-endian payload length
// followed by that many bytes of compact JSON. Length-prefixed framing turns any
// in-flight truncation into a detectable short read (the frame never parses as a
// shorter valid document), and the length guard turns a garbage prefix — a port
// scanner, an HTTP client, a corrupted length — into a clean connection close
// instead of a multi-gigabyte allocation.
#ifndef SRC_FLEET_WIRE_H_
#define SRC_FLEET_WIRE_H_

#include <sys/socket.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

namespace tsvd::fleet::wire {

// Largest frame payload a peer may declare. The biggest real document is a
// serialized trap store; even pathological campaigns stay far below this.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;  // 64 MiB

// Writes all `len` bytes to a connected socket, restarting on EINTR.
// MSG_NOSIGNAL so a peer that died mid-exchange surfaces as EPIPE, not a
// process-wide SIGPIPE. Returns false with errno set on failure.
inline bool SendAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, p + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads exactly `len` bytes, restarting on EINTR. Returns 1 on success, 0 on a
// clean EOF *before the first byte* (peer closed at a message boundary), and -1
// on error or an EOF mid-buffer (a torn frame).
inline int RecvAll(int fd, void* data, size_t len) {
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, p + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    if (n == 0) {
      return got == 0 ? 0 : -1;  // clean close vs. torn frame
    }
    got += static_cast<size_t>(n);
  }
  return 1;
}

// One length-prefixed frame out. Length is big-endian so the wire format is
// byte-order independent across machines — this is the backend that leaves the
// machine.
inline bool SendFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFramePayload) {
    errno = EMSGSIZE;
    return false;
  }
  const uint32_t n = static_cast<uint32_t>(payload.size());
  unsigned char header[4] = {static_cast<unsigned char>(n >> 24),
                             static_cast<unsigned char>(n >> 16),
                             static_cast<unsigned char>(n >> 8),
                             static_cast<unsigned char>(n)};
  return SendAll(fd, header, sizeof(header)) &&
         SendAll(fd, payload.data(), payload.size());
}

// One frame in. Returns 1 with `payload` filled, 0 on clean EOF at a frame
// boundary, and -1 on error, torn frame, or a declared length past
// kMaxFramePayload (garbage prefix / corrupted header — close the connection).
inline int RecvFrame(int fd, std::string* payload) {
  unsigned char header[4];
  const int got = RecvAll(fd, header, sizeof(header));
  if (got <= 0) {
    return got;
  }
  const uint32_t n = (static_cast<uint32_t>(header[0]) << 24) |
                     (static_cast<uint32_t>(header[1]) << 16) |
                     (static_cast<uint32_t>(header[2]) << 8) |
                     static_cast<uint32_t>(header[3]);
  if (n > kMaxFramePayload) {
    return -1;
  }
  payload->resize(n);
  if (n == 0) {
    return 1;
  }
  return RecvAll(fd, payload->data(), n) == 1 ? 1 : -1;
}

}  // namespace tsvd::fleet::wire

#endif  // SRC_FLEET_WIRE_H_
