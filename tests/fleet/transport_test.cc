// Transport conformance, run against both address families: request/response
// integrity, concurrent clients, clients that start before the server listens
// (agents race the coordinator), and clean Stop. Both suites bind to "uds:" and
// "tcp:" addresses: the second speaks raw bytes at the listener for the
// framing-robustness tests (torn frames, lying length prefixes, garbage
// payloads) that the generic client interface cannot express, plus a
// reconnect-churn test of connection reaping.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/campaign/json.h"
#include "src/fleet/transport.h"

namespace tsvd::fleet {
namespace {

namespace fs = std::filesystem;
using campaign::Json;

struct ScopedTempDir {
  ScopedTempDir() {
    static std::atomic<int> counter{0};
    const auto stamp =
        std::chrono::steady_clock::now().time_since_epoch().count();
    path = (fs::temp_directory_path() /
            ("tsvd_transport_test_" + std::to_string(stamp) + "_" +
             std::to_string(counter.fetch_add(1))))
               .string();
    fs::create_directories(path);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

// Grabs a currently-free loopback port by binding port 0 and reading back what
// the kernel assigned. Racy in principle (someone else could claim it between
// the close and the server's bind), but loopback churn in tests makes a
// collision vanishingly rare — and a failure is loud, not silent.
int ProbeFreeTcpPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

// The address families every suite below runs over.
constexpr const char* kBackends[] = {"uds", "tcp"};

std::string BackendName(const testing::TestParamInfo<const char*>& param) {
  return param.param;
}

class TransportTest : public testing::TestWithParam<const char*> {
 protected:
  std::string Address() const {
    const std::string scheme = GetParam();
    if (scheme == "tcp") {
      if (port_ == 0) {
        port_ = ProbeFreeTcpPort();  // stable across calls within one test
      }
      return "tcp:127.0.0.1:" + std::to_string(port_);
    }
    return scheme + ":" + dir_.path + "/endpoint";
  }
  ScopedTempDir dir_;
  mutable int port_ = 0;
};

Json EchoHandler(const Json& request) {
  Json response = Json::MakeObject();
  response.Set("echo", request.Find("payload") != nullptr
                           ? *request.Find("payload")
                           : Json());
  response.Set("seq", request.Find("seq") != nullptr ? *request.Find("seq")
                                                     : Json());
  return response;
}

TEST_P(TransportTest, RoundTripsOneExchange) {
  std::string error;
  auto server = MakeTransportServer(Address(), &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_TRUE(server->Start(EchoHandler, &error)) << error;

  auto client = MakeTransportClient(Address(), &error);
  ASSERT_NE(client, nullptr) << error;

  Json request = Json::MakeObject();
  request.Set("payload", "hello fleet");
  request.Set("seq", 7);
  Json response;
  ASSERT_TRUE(client->Call(request, &response, &error)) << error;
  ASSERT_TRUE(response.Has("echo"));
  EXPECT_EQ(response.Find("echo")->as_string(), "hello fleet");
  EXPECT_EQ(response.Find("seq")->as_int(), 7);
  server->Stop();
}

TEST_P(TransportTest, ConcurrentClientsEachGetTheirOwnResponses) {
  std::string error;
  auto server = MakeTransportServer(Address(), &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_TRUE(server->Start(EchoHandler, &error)) << error;

  constexpr int kClients = 4;
  constexpr int kCallsPerClient = 20;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &mismatches] {
      std::string err;
      auto client = MakeTransportClient(Address(), &err);
      if (client == nullptr) {
        mismatches.fetch_add(kCallsPerClient);
        return;
      }
      for (int i = 0; i < kCallsPerClient; ++i) {
        Json request = Json::MakeObject();
        request.Set("payload", "client-" + std::to_string(c));
        request.Set("seq", c * kCallsPerClient + i);
        Json response;
        if (!client->Call(request, &response, &err) ||
            response.Find("seq") == nullptr ||
            response.Find("seq")->as_int() != c * kCallsPerClient + i ||
            response.Find("echo")->as_string() != "client-" + std::to_string(c)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  server->Stop();
}

TEST_P(TransportTest, ClientStartedBeforeServerRetriesUntilItListens) {
  std::string error;
  auto server = MakeTransportServer(Address(), &error);
  ASSERT_NE(server, nullptr) << error;

  // The call below starts before Start(); the late server must still serve it.
  std::thread late_starter([&server] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    std::string err;
    ASSERT_TRUE(server->Start(EchoHandler, &err)) << err;
  });

  auto client = MakeTransportClient(Address(), &error);
  ASSERT_NE(client, nullptr) << error;
  client->set_connect_timeout_ms(10'000);
  Json request = Json::MakeObject();
  request.Set("payload", "early bird");
  Json response;
  EXPECT_TRUE(client->Call(request, &response, &error)) << error;
  EXPECT_EQ(response.Find("echo")->as_string(), "early bird");
  late_starter.join();
  server->Stop();
}

TEST_P(TransportTest, StopIsIdempotentAndCallAfterStopFails) {
  std::string error;
  auto server = MakeTransportServer(Address(), &error);
  ASSERT_NE(server, nullptr) << error;
  ASSERT_TRUE(server->Start(EchoHandler, &error)) << error;
  server->Stop();
  server->Stop();

  auto client = MakeTransportClient(Address(), &error);
  ASSERT_NE(client, nullptr) << error;
  client->set_connect_timeout_ms(200);
  Json response;
  EXPECT_FALSE(client->Call(Json::MakeObject(), &response, &error));
  EXPECT_FALSE(error.empty());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TransportTest, testing::ValuesIn(kBackends),
                         BackendName);

// The part of a factory error that lists the schemes it wants, past the echoed
// address.
std::string WantedSchemes(const std::string& error) {
  const size_t want = error.find("(want");
  return want == std::string::npos ? "" : error.substr(want);
}

TEST(TransportFactoryTest, UnknownSchemeIsRejected) {
  for (const char* address : {"carrier-pigeon:/coop", "dir:/q"}) {
    std::string error;
    EXPECT_EQ(MakeTransportServer(address, &error), nullptr) << address;
    EXPECT_EQ(WantedSchemes(error), "(want uds: or tcp:)") << error;
    error.clear();
    EXPECT_EQ(MakeTransportClient(address, &error), nullptr) << address;
    EXPECT_EQ(WantedSchemes(error), "(want uds: or tcp:)") << error;
  }
}

TEST(TransportFactoryTest, MalformedTcpAddressesAreRejectedWithReasons) {
  const char* bad[] = {
      "tcp:no-port-here",              // missing :port
      "tcp:127.0.0.1:",                // empty port
      "tcp:127.0.0.1:http",            // non-numeric port
      "tcp:127.0.0.1:1?frobnicate=9",  // unknown parameter
      "tcp:127.0.0.1:1?backlog=0",     // backlog out of range
  };
  for (const char* address : bad) {
    std::string error;
    EXPECT_EQ(MakeTransportServer(address, &error), nullptr) << address;
    EXPECT_FALSE(error.empty()) << address;
    error.clear();
    EXPECT_EQ(MakeTransportClient(address, &error), nullptr) << address;
    EXPECT_FALSE(error.empty()) << address;
  }
}

// --- Stream-server robustness -------------------------------------------------
// These speak raw bytes at the listener, which the TransportClient interface
// cannot do: a hostile or truncated byte stream must cost one connection, never
// the server. uds: and tcp: share one server, so both get the same abuse.

// Entries of a /proc/self directory: live threads (task) or open fds (fd).
size_t CountProcEntries(const char* dir) {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir)) {
    ++n;
  }
  return n;
}

// This process's virtual size in kB. An exited thread that nobody joined keeps
// its stack mapped, so unreaped connections show here even after their thread
// and fd are gone.
long VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stol(line.substr(7));
    }
  }
  return -1;
}

class StreamTest : public testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    if (std::string(GetParam()) == "tcp") {
      port_ = ProbeFreeTcpPort();
    }
    std::string error;
    server_ = MakeTransportServer(Address(), &error);
    ASSERT_NE(server_, nullptr) << error;
    ASSERT_TRUE(server_->Start(EchoHandler, &error)) << error;
  }
  void TearDown() override { server_->Stop(); }

  std::string SocketPath() const { return dir_.path + "/endpoint"; }
  std::string Address() const {
    return port_ != 0 ? "tcp:127.0.0.1:" + std::to_string(port_)
                      : "uds:" + SocketPath();
  }

  int RawConnect() {
    int fd = -1;
    int rc = -1;
    if (port_ != 0) {
      fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<uint16_t>(port_));
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } else {
      fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, SocketPath().c_str(), sizeof(addr.sun_path) - 1);
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    }
    EXPECT_GE(fd, 0);
    EXPECT_EQ(rc, 0) << std::strerror(errno);
    return fd;
  }

  // The server must keep serving well-formed clients no matter what the raw
  // socket just did to it.
  void ExpectServerStillServes() {
    std::string error;
    auto client = MakeTransportClient(Address(), &error);
    ASSERT_NE(client, nullptr) << error;
    Json request = Json::MakeObject();
    request.Set("payload", "still alive?");
    Json response;
    ASSERT_TRUE(client->Call(request, &response, &error)) << error;
    EXPECT_EQ(response.Find("echo")->as_string(), "still alive?");
  }

  ScopedTempDir dir_;
  int port_ = 0;
  std::unique_ptr<TransportServer> server_;
};

TEST_P(StreamTest, TornFrameCostsOnlyThatConnection) {
  const int fd = RawConnect();
  // Header promises 64 bytes; deliver 5 and hang up mid-frame.
  const unsigned char header[4] = {0, 0, 0, 64};
  ASSERT_EQ(::send(fd, header, sizeof(header), 0), 4);
  ASSERT_EQ(::send(fd, "torn!", 5, 0), 5);
  ::close(fd);
  ExpectServerStillServes();
}

TEST_P(StreamTest, LyingLengthPrefixIsRejectedNotAllocated) {
  const int fd = RawConnect();
  // 0xFFFFFFFF-byte frame: far past the 64 MiB guard. The server must refuse
  // (close the connection) without trying to buffer 4 GiB.
  const unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(fd, header, sizeof(header), 0), 4);
  char byte = 0;
  // Server closes on us: recv sees EOF rather than blocking for more payload.
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  ExpectServerStillServes();
}

TEST_P(StreamTest, GarbagePayloadGetsAnErrorResponse) {
  const int fd = RawConnect();
  const std::string garbage = "this is not json";
  const uint32_t be_len = htonl(static_cast<uint32_t>(garbage.size()));
  unsigned char header[4];
  std::memcpy(header, &be_len, 4);
  ASSERT_EQ(::send(fd, header, 4, 0), 4);
  ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), 0),
            static_cast<ssize_t>(garbage.size()));

  unsigned char resp_header[4] = {};
  ASSERT_EQ(::recv(fd, resp_header, 4, MSG_WAITALL), 4);
  uint32_t resp_len = 0;
  std::memcpy(&resp_len, resp_header, 4);
  resp_len = ntohl(resp_len);
  ASSERT_GT(resp_len, 0u);
  ASSERT_LT(resp_len, 4096u);
  std::string payload(resp_len, '\0');
  ASSERT_EQ(::recv(fd, payload.data(), resp_len, MSG_WAITALL),
            static_cast<ssize_t>(resp_len));
  Json doc;
  ASSERT_TRUE(Json::Parse(payload, &doc));
  EXPECT_EQ(doc.Find("type")->as_string(), "error");
  ::close(fd);
  ExpectServerStillServes();
}

// Reconnect churn must not grow a long-lived server: each closed connection's
// thread is joined and its fd closed, so 200 sequential connect/call/close
// cycles leave the thread and fd counts where they started and no stacks of
// unjoined threads behind.
TEST_P(StreamTest, SequentialReconnectChurnReapsEveryConnection) {
  ExpectServerStillServes();  // warm up lazily created process state
  const size_t tasks_before = CountProcEntries("/proc/self/task");
  const size_t fds_before = CountProcEntries("/proc/self/fd");
  const long vm_before_kb = VmSizeKb();
  for (int i = 0; i < 200; ++i) {
    ExpectServerStillServes();
  }
  // The last connection's thread may still be on its way out.
  size_t tasks = 0;
  size_t fds = 0;
  for (int wait = 0; wait < 100; ++wait) {
    tasks = CountProcEntries("/proc/self/task");
    fds = CountProcEntries("/proc/self/fd");
    if (tasks <= tasks_before + 2 && fds <= fds_before + 2) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(tasks, tasks_before + 2);
  EXPECT_LE(fds, fds_before + 2);
  // 200 unjoined 8 MiB stacks would add about 1.6 GiB.
  EXPECT_LT(VmSizeKb() - vm_before_kb, 128 * 1024);
}

INSTANTIATE_TEST_SUITE_P(StreamBackends, StreamTest, testing::ValuesIn(kBackends),
                         BackendName);

TEST(TcpClientErrorTest, ConnectFailureNamesEndpointAndErrnoCause) {
  // Nothing listens on the probed port; the refusal must name the endpoint and
  // carry the OS-level cause (satellite: errno text in transport errors).
  const int port = ProbeFreeTcpPort();
  std::string error;
  auto client =
      MakeTransportClient("tcp:127.0.0.1:" + std::to_string(port), &error);
  ASSERT_NE(client, nullptr) << error;
  client->set_connect_timeout_ms(100);
  Json response;
  ASSERT_FALSE(client->Call(Json::MakeObject(), &response, &error));
  EXPECT_NE(error.find("tcp:127.0.0.1:" + std::to_string(port)),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("refused"), std::string::npos) << error;
}

}  // namespace
}  // namespace tsvd::fleet
