// RunOutcome <-> Json codec: exact round-trips for every campaign-consumed field,
// strict rejection of non-outcome documents, and stable status names.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/campaign/json.h"
#include "src/campaign/round.h"
#include "src/sandbox/outcome_codec.h"

namespace tsvd::sandbox {
namespace {

campaign::RunOutcome FullOutcome() {
  campaign::RunOutcome outcome;
  outcome.module_index = 11;
  outcome.module = "corpus_mod_11";
  outcome.round = 3;
  outcome.status = campaign::RunStatus::kTimedOut;
  outcome.attempts = 2;
  outcome.error = "watchdog";
  outcome.attempt_errors = {"attempt 1: watchdog"};
  outcome.killed_by_signal = 9;
  outcome.crash_signature = "TIMEOUT (watchdog SIGKILL)";
  outcome.degrade_level = 1;
  outcome.quarantined = true;
  outcome.salvaged_trap_pairs = 2;
  outcome.wall_us = 123456;
  outcome.oncall_count = 1000;
  outcome.delays_injected = 17;
  outcome.delays_early_woken = 5;
  outcome.delays_aborted_stall = 2;
  outcome.delays_skipped_budget = 7;
  outcome.internal_errors = 1;
  outcome.runtime_disabled = true;
  outcome.imported_pairs = 4;
  outcome.retrapped_imported = 3;
  outcome.false_positives = 0;

  campaign::BugObservation obs;
  obs.sig_first = "a.cc:10 ContainsKey";
  obs.sig_second = "a.cc:20 Set";
  obs.api_first = "ContainsKey";
  obs.api_second = "Set";
  obs.stack_digest = 0xdeadbeefULL;
  obs.module = "corpus_mod_11";
  obs.round = 3;
  obs.read_write = true;
  obs.same_location = false;
  obs.async_flavor = true;
  obs.false_positive = false;
  outcome.observations.push_back(obs);

  outcome.traps.pairs = {{"a.cc:10 ContainsKey", "a.cc:20 Set"},
                         {"b.cc:5 Add", "b.cc:9 Remove"}};
  outcome.traps.Canonicalize();
  return outcome;
}

TEST(OutcomeCodecTest, RoundTripsEveryField) {
  const campaign::RunOutcome original = FullOutcome();
  campaign::RunOutcome decoded;
  ASSERT_TRUE(DecodeRunOutcome(EncodeRunOutcome(original), &decoded));

  EXPECT_EQ(decoded.module_index, original.module_index);
  EXPECT_EQ(decoded.module, original.module);
  EXPECT_EQ(decoded.round, original.round);
  EXPECT_EQ(decoded.status, original.status);
  EXPECT_EQ(decoded.attempts, original.attempts);
  EXPECT_EQ(decoded.error, original.error);
  EXPECT_EQ(decoded.attempt_errors, original.attempt_errors);
  EXPECT_EQ(decoded.killed_by_signal, original.killed_by_signal);
  EXPECT_EQ(decoded.crash_signature, original.crash_signature);
  EXPECT_EQ(decoded.degrade_level, original.degrade_level);
  EXPECT_EQ(decoded.quarantined, original.quarantined);
  EXPECT_EQ(decoded.salvaged_trap_pairs, original.salvaged_trap_pairs);
  EXPECT_EQ(decoded.wall_us, original.wall_us);
  EXPECT_EQ(decoded.oncall_count, original.oncall_count);
  EXPECT_EQ(decoded.delays_injected, original.delays_injected);
  EXPECT_EQ(decoded.delays_early_woken, original.delays_early_woken);
  EXPECT_EQ(decoded.delays_aborted_stall, original.delays_aborted_stall);
  EXPECT_EQ(decoded.delays_skipped_budget, original.delays_skipped_budget);
  EXPECT_EQ(decoded.internal_errors, original.internal_errors);
  EXPECT_EQ(decoded.runtime_disabled, original.runtime_disabled);
  EXPECT_EQ(decoded.imported_pairs, original.imported_pairs);
  EXPECT_EQ(decoded.retrapped_imported, original.retrapped_imported);
  EXPECT_EQ(decoded.false_positives, original.false_positives);

  ASSERT_EQ(decoded.observations.size(), 1u);
  const campaign::BugObservation& obs = decoded.observations[0];
  EXPECT_EQ(obs.sig_first, "a.cc:10 ContainsKey");
  EXPECT_EQ(obs.sig_second, "a.cc:20 Set");
  EXPECT_EQ(obs.api_first, "ContainsKey");
  EXPECT_EQ(obs.api_second, "Set");
  EXPECT_EQ(obs.stack_digest, 0xdeadbeefULL);
  EXPECT_TRUE(obs.read_write);
  EXPECT_TRUE(obs.async_flavor);

  EXPECT_EQ(decoded.traps.pairs, original.traps.pairs);
}

TEST(OutcomeCodecTest, RoundTripSurvivesJsonTextForm) {
  // The sandbox streams the compact Dump() over a pipe; parse it back like the
  // parent does.
  const campaign::RunOutcome original = FullOutcome();
  const std::string text = EncodeRunOutcome(original).Dump();
  campaign::Json parsed;
  ASSERT_TRUE(campaign::Json::Parse(text, &parsed));
  campaign::RunOutcome decoded;
  ASSERT_TRUE(DecodeRunOutcome(parsed, &decoded));
  EXPECT_EQ(decoded.module, original.module);
  EXPECT_EQ(decoded.traps.pairs, original.traps.pairs);
}

TEST(OutcomeCodecTest, RejectsNonOutcomeDocuments) {
  campaign::RunOutcome decoded;
  campaign::Json not_object;
  ASSERT_TRUE(campaign::Json::Parse("[1,2,3]", &not_object));
  EXPECT_FALSE(DecodeRunOutcome(not_object, &decoded));

  campaign::Json mistyped;
  ASSERT_TRUE(campaign::Json::Parse(R"({"module_index":"seven"})", &mistyped));
  EXPECT_FALSE(DecodeRunOutcome(mistyped, &decoded));
}

TEST(OutcomeCodecTest, EmptyOutcomeRoundTrips) {
  campaign::RunOutcome decoded;
  ASSERT_TRUE(DecodeRunOutcome(EncodeRunOutcome(campaign::RunOutcome{}), &decoded));
  EXPECT_EQ(decoded.status, campaign::RunStatus::kOk);
  EXPECT_TRUE(decoded.observations.empty());
  EXPECT_TRUE(decoded.traps.empty());
}

TEST(OutcomeCodecTest, LegacyDocumentWithoutDelayEngineFieldsDecodes) {
  // Protocol growth: a document from a child built before the delay engine still
  // decodes, with the new counters at their zero defaults.
  campaign::Json doc;
  ASSERT_TRUE(campaign::Json::Parse(R"({"module":"m","delays_injected":3})", &doc));
  campaign::RunOutcome decoded;
  ASSERT_TRUE(DecodeRunOutcome(doc, &decoded));
  EXPECT_EQ(decoded.delays_injected, 3u);
  EXPECT_EQ(decoded.delays_early_woken, 0u);
  EXPECT_EQ(decoded.delays_aborted_stall, 0u);
  EXPECT_EQ(decoded.delays_skipped_budget, 0u);
  EXPECT_EQ(decoded.internal_errors, 0u);
  EXPECT_FALSE(decoded.runtime_disabled);

  // Present-but-mistyped new fields are rejected like any other field.
  campaign::Json mistyped;
  ASSERT_TRUE(campaign::Json::Parse(R"({"runtime_disabled":"yes"})", &mistyped));
  EXPECT_FALSE(DecodeRunOutcome(mistyped, &decoded));
}

TEST(OutcomeCodecTest, EncodeStampsCodecVersion) {
  const campaign::Json doc = EncodeRunOutcome(campaign::RunOutcome{});
  const campaign::Json* v = doc.Find("codec_version");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->as_int(), kRunOutcomeCodecVersion);
}

TEST(OutcomeCodecTest, UnstampedDocumentDecodesAsLegacy) {
  // Version 1 never wrote a stamp; its fields are identical, so it still decodes.
  campaign::Json doc;
  ASSERT_TRUE(campaign::Json::Parse(R"({"module":"m","round":2})", &doc));
  campaign::RunOutcome decoded;
  std::string error;
  ASSERT_TRUE(DecodeRunOutcome(doc, &decoded, &error));
  EXPECT_EQ(decoded.module, "m");
  EXPECT_EQ(decoded.round, 2);
}

TEST(OutcomeCodecTest, MismatchedCodecVersionIsRejectedWithClearError) {
  campaign::Json doc = EncodeRunOutcome(FullOutcome());
  doc.Set("codec_version", kRunOutcomeCodecVersion + 7);
  campaign::RunOutcome decoded;
  std::string error;
  EXPECT_FALSE(DecodeRunOutcome(doc, &decoded, &error));
  // The error must name both versions so a mixed-build fleet is diagnosable from
  // the message alone.
  EXPECT_NE(error.find("codec version"), std::string::npos) << error;
  EXPECT_NE(error.find(std::to_string(kRunOutcomeCodecVersion + 7)),
            std::string::npos)
      << error;
  EXPECT_NE(error.find(std::to_string(kRunOutcomeCodecVersion)), std::string::npos)
      << error;

  campaign::Json mistyped = EncodeRunOutcome(FullOutcome());
  mistyped.Set("codec_version", "two");
  EXPECT_FALSE(DecodeRunOutcome(mistyped, &decoded, &error));
}

TEST(OutcomeCodecTest, StatusNamesRoundTrip) {
  for (const campaign::RunStatus status :
       {campaign::RunStatus::kOk, campaign::RunStatus::kCrashed,
        campaign::RunStatus::kTimedOut}) {
    campaign::RunStatus back;
    ASSERT_TRUE(RunStatusFromName(RunStatusName(status), &back));
    EXPECT_EQ(back, status);
  }
  campaign::RunStatus unused;
  EXPECT_FALSE(RunStatusFromName("exploded", &unused));
}

TEST(OutcomeCodecTest, IntegerFieldsOutOfRangeAreRejectedNotTruncated) {
  campaign::RunOutcome decoded;
  std::string error;
  for (const char* text :
       {R"({"module_index":4294967297})", R"({"round":-2147483649})",
        R"({"wall_us":1e300})", R"({"oncall_count":-1e300})",
        R"({"observations":[{"round":4294967297}]})",
        R"({"observations":[{"stack_digest":1e300}]})", R"({"attempts":1.5})",
        R"({"codec_version":1e300})"}) {
    campaign::Json doc;
    ASSERT_TRUE(campaign::Json::Parse(text, &doc)) << text;
    EXPECT_FALSE(DecodeRunOutcome(doc, &decoded, &error)) << text;
  }
  campaign::Json doc;
  ASSERT_TRUE(campaign::Json::Parse(R"({"module_index":4294967297})", &doc));
  ASSERT_FALSE(DecodeRunOutcome(doc, &decoded, &error));
  EXPECT_NE(error.find("module_index"), std::string::npos) << error;
}

TEST(OutcomeCodecTest, IntegralDoublesAndFullWidthCountersDecode) {
  campaign::Json doc;
  ASSERT_TRUE(campaign::Json::Parse(
      R"({"codec_version":2.0,"module_index":7.0,"wall_us":1e15,"oncall_count":-1})",
      &doc));
  campaign::RunOutcome decoded;
  std::string error;
  ASSERT_TRUE(DecodeRunOutcome(doc, &decoded, &error)) << error;
  EXPECT_EQ(decoded.module_index, 7);
  EXPECT_EQ(decoded.wall_us, 1000000000000000);
  EXPECT_EQ(decoded.oncall_count, ~uint64_t{0});  // written two's-complement

  campaign::RunOutcome wide;
  wide.salvaged_trap_pairs = ~uint64_t{0};
  wide.observations.emplace_back();
  wide.observations[0].stack_digest = 0x8000000000000000ULL;
  const std::string text = EncodeRunOutcome(wide).Dump();
  ASSERT_TRUE(campaign::Json::Parse(text, &doc));
  ASSERT_TRUE(DecodeRunOutcome(doc, &decoded, &error)) << error;
  EXPECT_EQ(decoded.salvaged_trap_pairs, ~uint64_t{0});
  EXPECT_EQ(decoded.observations[0].stack_digest, 0x8000000000000000ULL);
}

}  // namespace
}  // namespace tsvd::sandbox
