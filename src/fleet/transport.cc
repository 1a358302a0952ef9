#include "src/fleet/transport.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/common/clock.h"
#include "src/fleet/transport_stream.h"
#include "src/io/vfs.h"

namespace tsvd::fleet {
namespace {

using campaign::Json;

constexpr char kUdsScheme[] = "uds:";
constexpr char kDirScheme[] = "dir:";
constexpr char kTcpScheme[] = "tcp:";

bool HasScheme(const std::string& address, const char* scheme) {
  return address.rfind(scheme, 0) == 0;
}

// ---------------------------------------------------------------------------
// File-queue backend: requests are files renamed into <dir>/req/, responses into
// <dir>/resp/, matched by name. Writers stage in <dir>/tmp/ (same filesystem) so
// every publication is one atomic rename — a scan never sees a torn document.
// ---------------------------------------------------------------------------

bool ReadWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Unique-per-call exchange names: "<pid>-<counter>". The counter is process-wide
// so any number of clients in one process stay distinct.
std::atomic<uint64_t> g_exchange_counter{0};

// Idle-poll backoff for the dir backend: starts fast so a live exchange stays
// responsive, doubles while nothing arrives so an idle queue does not spin the
// CPU at a fixed interval, and resets the moment there is work.
constexpr Micros kDirPollFloorUs = 500;
constexpr Micros kDirPollCeilingUs = 20'000;

Micros NextDirPollBackoff(Micros current) {
  return current < kDirPollCeilingUs ? std::min(current * 2, kDirPollCeilingUs)
                                     : kDirPollCeilingUs;
}

// One atomic publication: stage `content` at `staged`, rename to `final_path`.
// Routed through the io::Vfs seam so storage chaos can fault the queue like any
// other durable writer. Returns 0 or the failing errno (ENOSPC on a full disk —
// callers back off rather than busy-retrying). Transport documents are
// ephemeral, so no fsync: a crash loses at most one in-flight exchange, which
// the RPC layer already treats as a timeout.
int PublishDocument(const std::string& staged, const std::string& final_path,
                    const std::string& content) {
  io::Vfs* vfs = io::ActiveVfs();
  int err = io::WriteFileThroughVfs(staged, content, /*durable=*/false);
  if (err != 0) {
    return err;
  }
  if ((err = vfs->Rename(staged, final_path)) != 0) {
    vfs->Unlink(staged);
    return err;
  }
  return 0;
}

class DirServer : public TransportServer {
 public:
  explicit DirServer(std::string dir) : dir_(std::move(dir)) {}
  ~DirServer() override { Stop(); }

  bool Start(RequestHandler handler, std::string* error) override {
    std::error_code ec;
    std::filesystem::create_directories(dir_ + "/req", ec);
    std::filesystem::create_directories(dir_ + "/resp", ec);
    std::filesystem::create_directories(dir_ + "/tmp", ec);
    if (ec) {
      *error = "cannot create queue directories under " + dir_ + ": " +
               ec.message();
      return false;
    }
    handler_ = std::move(handler);
    running_ = true;
    poll_thread_ = std::thread([this] { PollLoop(); });
    return true;
  }

  void Stop() override {
    if (!running_) {
      return;
    }
    stopping_.store(true, std::memory_order_relaxed);
    if (poll_thread_.joinable()) {
      poll_thread_.join();
    }
    running_ = false;
  }

 private:
  void PollLoop() {
    const std::string req_dir = dir_ + "/req";
    Micros idle_backoff_us = kDirPollFloorUs;
    while (!stopping_.load(std::memory_order_relaxed)) {
      bool served = false;
      std::error_code ec;
      for (const auto& entry :
           std::filesystem::directory_iterator(req_dir, ec)) {
        if (!entry.is_regular_file(ec)) {
          continue;
        }
        const std::string name = entry.path().filename().string();
        std::string text;
        if (!ReadWholeFile(entry.path().string(), &text)) {
          continue;
        }
        std::filesystem::remove(entry.path(), ec);
        Json request;
        Json response;
        if (Json::Parse(text, &request)) {
          response = handler_(request);
        } else {
          response = Json::MakeObject();
          response.Set("type", "error");
          response.Set("error", "unparseable request");
        }
        // Publish the response with the request's name via the same
        // stage-then-rename dance the client used. On failure (e.g. ENOSPC)
        // `served` stays false so the loop falls into the idle backoff below
        // instead of busy-spinning against a full disk; the client sees a
        // timeout and retries or reports.
        const std::string staged = dir_ + "/tmp/resp-" + name;
        if (PublishDocument(staged, dir_ + "/resp/" + name,
                            response.Dump()) == 0) {
          served = true;
        }
      }
      if (served) {
        idle_backoff_us = kDirPollFloorUs;
      } else {
        SleepMicros(idle_backoff_us);
        idle_backoff_us = NextDirPollBackoff(idle_backoff_us);
      }
    }
  }

  const std::string dir_;
  RequestHandler handler_;
  bool running_ = false;
  std::atomic<bool> stopping_{false};
  std::thread poll_thread_;
};

class DirClient : public TransportClient {
 public:
  explicit DirClient(std::string dir) : dir_(std::move(dir)) {}

  void set_connect_timeout_ms(int ms) override { connect_timeout_ms_ = ms; }

  bool Call(const Json& request, Json* response, std::string* error) override {
    std::error_code ec;
    std::filesystem::create_directories(dir_ + "/req", ec);
    std::filesystem::create_directories(dir_ + "/resp", ec);
    std::filesystem::create_directories(dir_ + "/tmp", ec);
    const std::string name =
        std::to_string(static_cast<uint64_t>(::getpid())) + "-" +
        std::to_string(g_exchange_counter.fetch_add(1, std::memory_order_relaxed));
    const std::string staged = dir_ + "/tmp/req-" + name;
    const Micros deadline =
        NowMicros() + static_cast<Micros>(connect_timeout_ms_) * 1000;
    // Publish with exponential backoff on ENOSPC: a full disk is usually a
    // transient shared-queue condition (the server unlinks served requests), so
    // retrying after a pause beats failing the exchange — but never retry
    // other errors, and never past the deadline.
    Micros backoff_us = kDirPollFloorUs;
    for (;;) {
      const int err = PublishDocument(staged, dir_ + "/req/" + name,
                                      request.Dump());
      if (err == 0) {
        break;
      }
      if (err != ENOSPC || NowMicros() >= deadline) {
        *error = "cannot publish request under " + dir_ + ": " +
                 std::strerror(err);
        return false;
      }
      SleepMicros(backoff_us);
      backoff_us = NextDirPollBackoff(backoff_us);
    }
    // Await the response file with the same exponential idle backoff the server
    // polls with. The server answers promptly once it is up, so the connect
    // timeout doubles as the response deadline.
    const std::string resp_path = dir_ + "/resp/" + name;
    std::string text;
    backoff_us = kDirPollFloorUs;
    while (!ReadWholeFile(resp_path, &text)) {
      if (NowMicros() >= deadline) {
        *error = "no response from coordinator via " + dir_ + " after " +
                 std::to_string(connect_timeout_ms_) + " ms";
        return false;
      }
      SleepMicros(backoff_us);
      backoff_us = NextDirPollBackoff(backoff_us);
    }
    std::filesystem::remove(resp_path, ec);
    if (!Json::Parse(text, response)) {
      *error = "unparseable response from coordinator";
      return false;
    }
    return true;
  }

 private:
  const std::string dir_;
  int connect_timeout_ms_ = 10'000;
};

}  // namespace

std::unique_ptr<TransportServer> MakeTransportServer(const std::string& address,
                                                     std::string* error) {
  if (HasScheme(address, kDirScheme)) {
    return std::make_unique<DirServer>(address.substr(sizeof(kDirScheme) - 1));
  }
  if (HasScheme(address, kUdsScheme) || HasScheme(address, kTcpScheme)) {
    return MakeStreamTransportServer(address, error);
  }
  if (error != nullptr) {
    *error = "unknown transport scheme in \"" + address +
             "\" (want uds:, dir:, or tcp:)";
  }
  return nullptr;
}

std::unique_ptr<TransportClient> MakeTransportClient(const std::string& address,
                                                     std::string* error) {
  if (HasScheme(address, kDirScheme)) {
    return std::make_unique<DirClient>(address.substr(sizeof(kDirScheme) - 1));
  }
  if (HasScheme(address, kUdsScheme) || HasScheme(address, kTcpScheme)) {
    return MakeStreamTransportClient(address, error);
  }
  if (error != nullptr) {
    *error = "unknown transport scheme in \"" + address +
             "\" (want uds:, dir:, or tcp:)";
  }
  return nullptr;
}

}  // namespace tsvd::fleet
