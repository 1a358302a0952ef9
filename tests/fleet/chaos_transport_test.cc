// ChaosClient unit tests: spec parsing, each fault's observable contract (does
// the server see the request? does the caller see the response?), partition
// windows that open and heal, and determinism — the same (seed, call sequence)
// must replay the identical fault schedule, because the chaos e2e suite's
// bug-set-equality assertion depends on it.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/campaign/json.h"
#include "src/fleet/chaos_transport.h"
#include "src/fleet/transport.h"

namespace tsvd::fleet {
namespace {

using campaign::Json;

// In-process stand-in for the real transport: every delivery that reaches the
// "server" bumps `deliveries`, which is exactly the quantity the fault model is
// specified in terms of.
class CountingClient : public TransportClient {
 public:
  explicit CountingClient(int* deliveries) : deliveries_(deliveries) {}
  bool Call(const Json& request, Json* response, std::string*) override {
    ++*deliveries_;
    *response = Json::MakeObject();
    response->Set("type", "ok");
    response->Set("delivery", *deliveries_);
    (void)request;
    return true;
  }
  void set_connect_timeout_ms(int ms) override { last_timeout_ms_ = ms; }
  int last_timeout_ms_ = -1;

 private:
  int* const deliveries_;
};

TEST(ChaosSpecTest, EmptySpecIsNoFaults) {
  ChaosSpec spec;
  std::string error;
  ASSERT_TRUE(ChaosSpec::Parse("", &spec, &error)) << error;
  EXPECT_EQ(spec.drop_send, 0.0);
  EXPECT_EQ(spec.drop_recv, 0.0);
  EXPECT_EQ(spec.dup, 0.0);
  EXPECT_EQ(spec.trunc, 0.0);
  EXPECT_EQ(spec.delay_ms, 0);
  EXPECT_LT(spec.partition_after_ms, 0);
}

TEST(ChaosSpecTest, ParsesTheFullVocabulary) {
  ChaosSpec spec;
  std::string error;
  ASSERT_TRUE(ChaosSpec::Parse(
      "seed=7,drop_send=0.1,drop_recv=0.25,dup=0.5,trunc=0.05,delay_ms=3,"
      "partition_after_ms=100,partition_ms=50,partition_every_ms=400,"
      "partition_dir=recv",
      &spec, &error))
      << error;
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_DOUBLE_EQ(spec.drop_send, 0.1);
  EXPECT_DOUBLE_EQ(spec.drop_recv, 0.25);
  EXPECT_DOUBLE_EQ(spec.dup, 0.5);
  EXPECT_DOUBLE_EQ(spec.trunc, 0.05);
  EXPECT_EQ(spec.delay_ms, 3);
  EXPECT_EQ(spec.partition_after_ms, 100);
  EXPECT_EQ(spec.partition_ms, 50);
  EXPECT_EQ(spec.partition_every_ms, 400);
  EXPECT_EQ(spec.partition_dir, PartitionDir::kRecv);
}

TEST(ChaosSpecTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "drop_send",            // not key=value
      "drop_send=1.5",        // probability out of range
      "drop_recv=-0.1",       // negative probability
      "dup=lots",             // not a number
      "seed=-3",              // negative seed
      "delay_ms=soon",        // not a number
      "partition_dir=north",  // unknown direction
      "gremlins=0.9",         // unknown key
  };
  for (const char* text : bad) {
    ChaosSpec spec;
    std::string error;
    EXPECT_FALSE(ChaosSpec::Parse(text, &spec, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(ChaosSpecTest, ErrorMessagesArePinned) {
  const std::pair<const char*, const char*> cases[] = {
      {"drop_send", "chaos spec item \"drop_send\" is not key=value"},
      {"drop_send=1.5",
       "chaos spec: drop_send must be a probability in [0, 1], got \"1.5\""},
      {"seed=-3", "chaos spec: seed must be a non-negative integer, got \"-3\""},
      {"delay_ms=soon", "chaos spec: delay_ms must be a non-negative integer"},
      {"partition_every_ms=-1",
       "chaos spec: partition_every_ms must be a non-negative integer"},
      {"partition_dir=north",
       "chaos spec: partition_dir must be send|recv|both, got \"north\""},
      {"dup=0.5,,gremlins=0.9", "chaos spec: unknown key \"gremlins\""},
  };
  for (const auto& [text, message] : cases) {
    ChaosSpec spec;
    std::string error;
    EXPECT_FALSE(ChaosSpec::Parse(text, &spec, &error)) << text;
    EXPECT_EQ(error, message);
  }
}

TEST(ChaosClientTest, DropSendLosesTheRequestBeforeTheServer) {
  int deliveries = 0;
  ChaosSpec spec;
  spec.drop_send = 1.0;
  ChaosClient chaos(std::make_unique<CountingClient>(&deliveries), spec);
  Json response;
  std::string error;
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(chaos.Call(Json::MakeObject(), &response, &error));
  }
  EXPECT_EQ(deliveries, 0);  // the server never saw anything
  EXPECT_EQ(chaos.stats().calls, 5u);
  EXPECT_EQ(chaos.stats().dropped_send, 5u);
}

TEST(ChaosClientTest, DropRecvDeliversButLosesTheResponse) {
  // The idempotency-critical fault: the server executed the request, yet the
  // caller sees a failure indistinguishable from drop_send and will retry.
  int deliveries = 0;
  ChaosSpec spec;
  spec.drop_recv = 1.0;
  ChaosClient chaos(std::make_unique<CountingClient>(&deliveries), spec);
  Json response;
  std::string error;
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(chaos.Call(Json::MakeObject(), &response, &error));
  }
  EXPECT_EQ(deliveries, 5);  // every request reached and mutated the server
  EXPECT_EQ(chaos.stats().dropped_recv, 5u);
}

TEST(ChaosClientTest, DupDeliversTwiceButAnswersOnce) {
  int deliveries = 0;
  ChaosSpec spec;
  spec.dup = 1.0;
  ChaosClient chaos(std::make_unique<CountingClient>(&deliveries), spec);
  Json response;
  std::string error;
  ASSERT_TRUE(chaos.Call(Json::MakeObject(), &response, &error)) << error;
  EXPECT_EQ(deliveries, 2);  // both copies executed the handler
  EXPECT_EQ(chaos.stats().duplicated, 1u);
}

TEST(ChaosClientTest, TruncationIsLossWithItsOwnAccounting) {
  int deliveries = 0;
  ChaosSpec spec;
  spec.trunc = 1.0;
  ChaosClient chaos(std::make_unique<CountingClient>(&deliveries), spec);
  Json response;
  std::string error;
  EXPECT_FALSE(chaos.Call(Json::MakeObject(), &response, &error));
  EXPECT_EQ(deliveries, 0);
  EXPECT_EQ(chaos.stats().truncated, 1u);
  EXPECT_EQ(chaos.stats().dropped_send, 0u);
}

TEST(ChaosClientTest, PartitionWindowBlocksBothDirectionsThenHeals) {
  int deliveries = 0;
  ChaosSpec spec;
  spec.partition_after_ms = 0;  // partitioned from first use...
  spec.partition_ms = 150;      // ...for 150ms, then healed for good
  ChaosClient chaos(std::make_unique<CountingClient>(&deliveries), spec);
  Json response;
  std::string error;
  EXPECT_FALSE(chaos.Call(Json::MakeObject(), &response, &error));
  EXPECT_EQ(deliveries, 0);
  EXPECT_GE(chaos.stats().partitioned, 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  ASSERT_TRUE(chaos.Call(Json::MakeObject(), &response, &error)) << error;
  EXPECT_EQ(deliveries, 1);
}

TEST(ChaosClientTest, RecvPartitionStillDeliversTheRequest) {
  int deliveries = 0;
  ChaosSpec spec;
  spec.partition_after_ms = 0;
  spec.partition_ms = 60'000;  // partitioned for the whole test
  spec.partition_dir = PartitionDir::kRecv;
  ChaosClient chaos(std::make_unique<CountingClient>(&deliveries), spec);
  Json response;
  std::string error;
  EXPECT_FALSE(chaos.Call(Json::MakeObject(), &response, &error));
  EXPECT_EQ(deliveries, 1);  // request went through; only the response died
}

// Replays the schedule: which of N calls succeed, and how many deliveries the
// server saw. Two clients with the same seed must agree exactly.
struct Schedule {
  std::vector<bool> outcomes;
  int deliveries = 0;
};

Schedule RunSchedule(uint64_t seed, uint64_t salt, int calls) {
  Schedule schedule;
  ChaosSpec spec;
  spec.seed = seed;
  spec.drop_send = 0.3;
  spec.drop_recv = 0.2;
  spec.dup = 0.25;
  ChaosClient chaos(std::make_unique<CountingClient>(&schedule.deliveries),
                    spec, salt);
  for (int i = 0; i < calls; ++i) {
    Json response;
    std::string error;
    schedule.outcomes.push_back(
        chaos.Call(Json::MakeObject(), &response, &error));
  }
  return schedule;
}

TEST(ChaosClientTest, SameSeedReplaysTheIdenticalFaultSchedule) {
  const Schedule a = RunSchedule(/*seed=*/42, /*salt=*/0, /*calls=*/200);
  const Schedule b = RunSchedule(/*seed=*/42, /*salt=*/0, /*calls=*/200);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.deliveries, b.deliveries);
}

TEST(ChaosClientTest, FaultScheduleIsPinned) {
  // Captured from the schedule before the flip moved into src/common/rng.h. The
  // spec leaves trunc at 0, so this also pins the draw a disabled fault spends.
  const Schedule schedule = RunSchedule(/*seed=*/42, /*salt=*/0, /*calls=*/64);
  std::string outcomes;
  for (const bool ok : schedule.outcomes) {
    outcomes += ok ? '1' : '0';
  }
  EXPECT_EQ(outcomes, "0111110010111010010000111111110111000000100101110010010011110010");
  EXPECT_EQ(schedule.deliveries, 61);
}

TEST(ChaosClientTest, DifferentSaltsDrawFromDistinctStreams) {
  // An agent's lease loop and its heartbeat thread share a spec but must not
  // march in fault lockstep.
  const Schedule a = RunSchedule(/*seed=*/42, /*salt=*/1, /*calls=*/200);
  const Schedule b = RunSchedule(/*seed=*/42, /*salt=*/2, /*calls=*/200);
  EXPECT_NE(a.outcomes, b.outcomes);
}

TEST(WrapWithChaosTest, EmptySpecReturnsTheInnerClientUntouched) {
  int deliveries = 0;
  std::string error;
  auto wrapped = WrapWithChaos(std::make_unique<CountingClient>(&deliveries),
                               "", /*seed_salt=*/0, &error);
  ASSERT_NE(wrapped, nullptr) << error;
  Json response;
  ASSERT_TRUE(wrapped->Call(Json::MakeObject(), &response, &error));
  EXPECT_EQ(deliveries, 1);
}

TEST(WrapWithChaosTest, MalformedSpecFailsWithAReason) {
  int deliveries = 0;
  std::string error;
  auto wrapped = WrapWithChaos(std::make_unique<CountingClient>(&deliveries),
                               "gremlins=0.9", /*seed_salt=*/0, &error);
  EXPECT_EQ(wrapped, nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(WrapWithChaosTest, ForwardsConnectTimeoutToTheInnerClient) {
  int deliveries = 0;
  auto inner = std::make_unique<CountingClient>(&deliveries);
  CountingClient* inner_raw = inner.get();
  std::string error;
  auto wrapped = WrapWithChaos(std::move(inner), "seed=1,drop_send=0.5",
                               /*seed_salt=*/0, &error);
  ASSERT_NE(wrapped, nullptr) << error;
  wrapped->set_connect_timeout_ms(1234);
  EXPECT_EQ(inner_raw->last_timeout_ms_, 1234);
}

}  // namespace
}  // namespace tsvd::fleet
