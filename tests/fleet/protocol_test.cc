// Fleet wire-protocol codec: every shipped CampaignOptions field must survive the
// encode/decode round trip (an agent that rebuilds a different corpus or delay
// config would silently break the fleet's bug-set-equality contract), mistyped
// fields must fail loudly, and absent fields must keep their defaults.
#include <gtest/gtest.h>

#include <string>

#include "src/campaign/campaign.h"
#include "src/campaign/json.h"
#include "src/fleet/protocol.h"

namespace tsvd::fleet {
namespace {

using campaign::CampaignOptions;
using campaign::Json;

CampaignOptions DistinctiveOptions() {
  CampaignOptions options;
  options.detector = "TSVD-fleet-test";
  options.num_modules = 17;
  options.rounds = 5;
  options.stop_when_converged = false;
  options.max_attempts = 3;
  options.scale = 0.037;
  options.seed = 98765;
  options.buggy_module_fraction = 0.45;
  options.pool_threads_per_worker = 6;
  options.sandbox.enabled = true;
  options.sandbox.run_timeout_ms = 1234;
  options.sandbox.backoff_base_ms = 7;
  options.fault_crash_modules = 1;
  options.fault_hang_modules = 2;
  options.fault_throw_modules = 3;
  options.fault_deadlock_modules = 4;
  options.delay_us_override = 555;
  options.stall_grace_us = 666;
  options.max_overhead_pct = 12.5;
  options.max_internal_errors = 9;
  return options;
}

TEST(FleetProtocolTest, OptionsRoundTripPreservesEveryShippedField) {
  const CampaignOptions sent = DistinctiveOptions();
  const Json doc = EncodeCampaignOptions(sent);

  CampaignOptions got;
  std::string error;
  ASSERT_TRUE(DecodeCampaignOptions(doc, &got, &error)) << error;

  EXPECT_EQ(got.detector, sent.detector);
  EXPECT_EQ(got.num_modules, sent.num_modules);
  EXPECT_EQ(got.rounds, sent.rounds);
  EXPECT_EQ(got.stop_when_converged, sent.stop_when_converged);
  EXPECT_EQ(got.max_attempts, sent.max_attempts);
  EXPECT_DOUBLE_EQ(got.scale, sent.scale);
  EXPECT_EQ(got.seed, sent.seed);
  EXPECT_DOUBLE_EQ(got.buggy_module_fraction, sent.buggy_module_fraction);
  EXPECT_EQ(got.pool_threads_per_worker, sent.pool_threads_per_worker);
  EXPECT_EQ(got.sandbox.enabled, sent.sandbox.enabled);
  EXPECT_EQ(got.sandbox.run_timeout_ms, sent.sandbox.run_timeout_ms);
  EXPECT_EQ(got.sandbox.backoff_base_ms, sent.sandbox.backoff_base_ms);
  EXPECT_EQ(got.fault_crash_modules, sent.fault_crash_modules);
  EXPECT_EQ(got.fault_hang_modules, sent.fault_hang_modules);
  EXPECT_EQ(got.fault_throw_modules, sent.fault_throw_modules);
  EXPECT_EQ(got.fault_deadlock_modules, sent.fault_deadlock_modules);
  EXPECT_EQ(got.delay_us_override, sent.delay_us_override);
  EXPECT_EQ(got.stall_grace_us, sent.stall_grace_us);
  EXPECT_DOUBLE_EQ(got.max_overhead_pct, sent.max_overhead_pct);
  EXPECT_EQ(got.max_internal_errors, sent.max_internal_errors);
}

TEST(FleetProtocolTest, ProcessLocalFieldsAreNotShipped) {
  CampaignOptions options;
  options.workers = 13;
  options.out_dir = "/somewhere/local";
  options.resume = true;
  options.journal_snapshot_every = 3;
  const Json doc = EncodeCampaignOptions(options);
  EXPECT_FALSE(doc.Has("workers"));
  EXPECT_FALSE(doc.Has("out_dir"));
  EXPECT_FALSE(doc.Has("resume"));
  EXPECT_FALSE(doc.Has("journal_snapshot_every"));
}

TEST(FleetProtocolTest, AbsentFieldsKeepDefaults) {
  const Json empty = Json::MakeObject();
  CampaignOptions got;
  std::string error;
  ASSERT_TRUE(DecodeCampaignOptions(empty, &got, &error)) << error;
  const CampaignOptions defaults;
  EXPECT_EQ(got.detector, defaults.detector);
  EXPECT_EQ(got.num_modules, defaults.num_modules);
  EXPECT_EQ(got.seed, defaults.seed);
  EXPECT_DOUBLE_EQ(got.scale, defaults.scale);
}

TEST(FleetProtocolTest, MistypedFieldFailsWithNamedKey) {
  Json doc = EncodeCampaignOptions(CampaignOptions{});
  doc.Set("seed", "forty-two");
  CampaignOptions got;
  std::string error;
  EXPECT_FALSE(DecodeCampaignOptions(doc, &got, &error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
}

TEST(FleetProtocolTest, EncodedDocumentSerializesDeterministically) {
  const CampaignOptions options = DistinctiveOptions();
  EXPECT_EQ(EncodeCampaignOptions(options).Dump(),
            EncodeCampaignOptions(options).Dump());
}

}  // namespace
}  // namespace tsvd::fleet
