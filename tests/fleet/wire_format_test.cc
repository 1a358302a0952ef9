// Wire and disk formats of every record that crosses a process boundary: the run
// outcome and its bug observations (sandbox pipe, journal, fleet wire), the journal
// header and round record, the dedup snapshot, the fleet's campaign options, and the
// campaign JSON rounds and totals. Each is encoded from a fully populated example and
// compared with text captured from the encoders before they moved onto field lists;
// resume of an older journal and mixed fleets rely on that byte identity. Then every
// field of each record is given a value of the wrong type in turn, and decoding must
// refuse it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "src/campaign/bug_report_mgr.h"
#include "src/campaign/campaign.h"
#include "src/campaign/journal.h"
#include "src/campaign/json.h"
#include "src/campaign/round.h"
#include "src/campaign/sinks.h"
#include "src/fleet/protocol.h"
#include "src/sandbox/outcome_codec.h"

namespace tsvd::campaign {
namespace {

namespace fs = std::filesystem;

struct ScopedTempDir {
  ScopedTempDir() {
    static std::atomic<int> counter{0};
    const auto stamp = std::chrono::steady_clock::now().time_since_epoch().count();
    path = (fs::temp_directory_path() /
            ("tsvd_wire_format_test_" + std::to_string(stamp) + "_" +
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

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Every field differs from its default and from its neighbours, so a swapped or
// renamed key shows. The uint64_t values above 2^63 pin the two's-complement
// encoding.
BugObservation FullObservation() {
  BugObservation obs;
  obs.sig_first = "a.cc:10 ContainsKey";
  obs.sig_second = "a.cc:20 Set";
  obs.api_first = "ContainsKey";
  obs.api_second = "Set";
  obs.stack_digest = 0xdeadbeefcafef00dULL;
  obs.module = "corpus_mod_11";
  obs.round = 3;
  obs.read_write = true;
  obs.same_location = false;
  obs.async_flavor = true;
  obs.false_positive = true;
  return obs;
}

RunOutcome FullOutcome() {
  RunOutcome outcome;
  outcome.module_index = 11;
  outcome.module = "corpus_mod_11";
  outcome.round = 3;
  outcome.status = RunStatus::kTimedOut;
  outcome.attempts = 2;
  outcome.error = "watchdog \"deadline\"";
  outcome.attempt_errors = {"attempt 1: watchdog", "attempt 2: watchdog"};
  outcome.killed_by_signal = 9;
  outcome.crash_signature = "TIMEOUT (watchdog SIGKILL)";
  outcome.degrade_level = 1;
  outcome.quarantined = true;
  outcome.salvaged_trap_pairs = 2;
  outcome.wall_us = 123456;
  outcome.oncall_count = 1000;
  outcome.delays_injected = 17;
  outcome.delays_early_woken = 5;
  outcome.delays_aborted_stall = 4;
  outcome.delays_skipped_budget = 7;
  outcome.internal_errors = 6;
  outcome.runtime_disabled = true;
  outcome.imported_pairs = 8;
  outcome.retrapped_imported = 3;
  outcome.false_positives = 12;
  outcome.observations.push_back(FullObservation());
  outcome.traps.pairs = {{"a.cc:10 ContainsKey", "a.cc:20 Set"},
                         {"b.cc:5 Add", "b.cc:9 Remove"}};
  outcome.traps.Canonicalize();
  return outcome;
}

JournalHeader FullHeader() {
  JournalHeader header;
  header.detector = "TSVD";
  header.seed = 0xfedcba9876543210ULL;
  header.num_modules = 44;
  header.scale = 0.125;
  header.rounds = 6;
  return header;
}

RoundStats FullRoundStats() {
  RoundStats stats;
  stats.round = 2;
  stats.runs = 40;
  stats.crashed = 3;
  stats.retried = 4;
  stats.timed_out = 5;
  stats.killed_by_signal = 6;
  stats.quarantined = 7;
  stats.new_unique_bugs = 8;
  stats.retrapped_imported = 9;
  stats.trap_pairs_after = 10;
  stats.interrupted = true;
  stats.delays_injected = 11;
  stats.delays_early_woken = 12;
  stats.delays_aborted_stall = 13;
  stats.delays_skipped_budget = 14;
  stats.runtime_disabled = 15;
  stats.wall_us = 1600000;
  return stats;
}

BugReportMgr::UniqueBug FullUniqueBug() {
  BugReportMgr::UniqueBug bug;
  bug.sig_first = "a.cc:10 ContainsKey";
  bug.sig_second = "a.cc:20 Set";
  bug.api_first = "ContainsKey";
  bug.api_second = "Set";
  bug.modules = {"corpus_mod_11", "corpus_mod_12"};
  bug.stack_digests = {0x1234, 0xdeadbeefcafef00dULL};
  bug.first_round = 2;
  bug.occurrences = 5;
  bug.read_write = true;
  bug.same_location = true;
  bug.async_flavor = false;
  return bug;
}

CampaignOptions FullOptions() {
  CampaignOptions options;
  options.detector = "TSVD-golden";
  options.num_modules = 17;
  options.rounds = 5;
  options.stop_when_converged = false;
  options.max_attempts = 3;
  options.scale = 0.0375;
  options.seed = 0x8000000000000001ULL;
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

// Journal lines as the campaign writes them: header, one run, one round.
std::vector<std::string> JournalLines() {
  ScopedTempDir dir;
  const std::string path = CampaignJournal::PathIn(dir.path);
  CampaignJournal journal;
  EXPECT_TRUE(journal.Open(path, FullHeader(), /*truncate=*/true, /*fsync=*/false));
  EXPECT_TRUE(journal.AppendRun(FullOutcome()));
  EXPECT_TRUE(journal.AppendRoundComplete(FullRoundStats(), 21));
  journal.Close();
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

// ---- Golden texts ----------------------------------------------------------------
//
// Captured from the hand-written encoders the field lists replaced. Never regenerate
// them from the code under test: a changed byte here is a format change, which needs
// a codec or journal version bump instead.

constexpr char kOutcome[] =
    R"json({"attempt_errors":["attempt 1: watchdog","attempt 2: watchdog"],"attempts":2,)json"
    R"json("codec_version":2,"crash_signature":"TIMEOUT (watchdog SIGKILL)",)json"
    R"json("degrade_level":1,"delays_aborted_stall":4,"delays_early_woken":5,)json"
    R"json("delays_injected":17,"delays_skipped_budget":7,)json"
    R"json("error":"watchdog \"deadline\"","false_positives":12,"imported_pairs":8,)json"
    R"json("internal_errors":6,"killed_by_signal":9,"module":"corpus_mod_11",)json"
    R"json("module_index":11,"observations":[{"api_first":"ContainsKey",)json"
    R"json("api_second":"Set","async_flavor":true,"false_positive":true,)json"
    R"json("module":"corpus_mod_11","read_write":true,"round":3,"same_location":false,)json"
    R"json("sig_first":"a.cc:10 ContainsKey","sig_second":"a.cc:20 Set",)json"
    R"json("stack_digest":-2401053089206439923}],"oncall_count":1000,"quarantined":true,)json"
    R"json("retrapped_imported":3,"round":3,"runtime_disabled":true,)json"
    R"json("salvaged_trap_pairs":2,"status":"timed_out","traps":[["a.cc:10 ContainsKey",)json"
    R"json("a.cc:20 Set"],["b.cc:5 Add","b.cc:9 Remove"]],"wall_us":123456})json";
// The shipped options: the text below with the five retired retry-tuning keys
// (backoff_cap_ms, degrade_budget_factor, degrade_delay_factor,
// initial_budget_delays, min_delay_us) taken out by hand.
constexpr char kOptions[] =
    R"json({"backoff_base_ms":7,"buggy_module_fraction":0.45,)json"
    R"json("delay_us_override":555,"detector":"TSVD-golden","fault_crash_modules":1,)json"
    R"json("fault_deadlock_modules":4,"fault_hang_modules":2,"fault_throw_modules":3,)json"
    R"json("max_attempts":3,"max_internal_errors":9,)json"
    R"json("max_overhead_pct":12.5,"num_modules":17,)json"
    R"json("pool_threads_per_worker":6,"rounds":5,"run_timeout_ms":1234,)json"
    R"json("sandbox_enabled":true,"scale":0.0375,"seed":-9223372036854775807,)json"
    R"json("stall_grace_us":666,"stop_when_converged":false})json";
// What a coordinator that still shipped the retired keys sends; they are now
// constants, and the values here are ignored.
constexpr char kOptionsWithRetiredKeys[] =
    R"json({"backoff_base_ms":7,"backoff_cap_ms":99,"buggy_module_fraction":0.45,)json"
    R"json("degrade_budget_factor":0.75,"degrade_delay_factor":0.25,)json"
    R"json("delay_us_override":555,"detector":"TSVD-golden","fault_crash_modules":1,)json"
    R"json("fault_deadlock_modules":4,"fault_hang_modules":2,"fault_throw_modules":3,)json"
    R"json("initial_budget_delays":11,"max_attempts":3,"max_internal_errors":9,)json"
    R"json("max_overhead_pct":12.5,"min_delay_us":13,"num_modules":17,)json"
    R"json("pool_threads_per_worker":6,"rounds":5,"run_timeout_ms":1234,)json"
    R"json("sandbox_enabled":true,"scale":0.0375,"seed":-9223372036854775807,)json"
    R"json("stall_grace_us":666,"stop_when_converged":false})json";
constexpr char kJournalHeader[] =
    R"json({"detector":"TSVD","num_modules":44,"rounds":6,"scale":0.125,)json"
    R"json("seed":-81985529216486896,"type":"header","version":1})json";
constexpr char kJournalRound[] =
    R"json({"cumulative_unique_bugs":21,"round":2,"stats":{"crashed":3,)json"
    R"json("delays_aborted_stall":13,"delays_early_woken":12,"delays_injected":11,)json"
    R"json("delays_skipped_budget":14,"interrupted":true,"killed_by_signal":6,)json"
    R"json("new_unique_bugs":8,"quarantined":7,"retrapped_imported":9,"retried":4,)json"
    R"json("round":2,"runs":40,"runtime_disabled":15,"timed_out":5,"trap_pairs_after":10,)json"
    R"json("wall_us":1600000},"type":"round"})json";
constexpr char kSnapshot[] = R"json({
  "bugs": [
    {
      "api_first": "ContainsKey",
      "api_second": "Set",
      "async_flavor": false,
      "first_round": 2,
      "modules": [
        "corpus_mod_11",
        "corpus_mod_12"
      ],
      "occurrences": 5,
      "read_write": true,
      "same_location": true,
      "sig_first": "a.cc:10 ContainsKey",
      "sig_second": "a.cc:20 Set",
      "stack_digests": [
        4660,
        -2401053089206439923
      ]
    }
  ],
  "version": 1,
  "watermark": 33
}
)json";
constexpr char kCampaignJson[] = R"json({
  "campaign": {
    "converged": false,
    "detector": "TSVD",
    "durability": "ok",
    "interrupted": false,
    "modules": 44,
    "rounds_executed": 2,
    "rounds_requested": 6,
    "sandbox": false,
    "scale": 0.125,
    "seed": 7,
    "workers": 4
  },
  "rounds": [
    {
      "crashed": 3,
      "delays_aborted_stall": 13,
      "delays_early_woken": 12,
      "delays_injected": 11,
      "delays_skipped_budget": 14,
      "interrupted": false,
      "killed_by_signal": 6,
      "new_unique_bugs": 8,
      "quarantined": 7,
      "retrapped_imported": 9,
      "retried": 4,
      "round": 1,
      "runs": 40,
      "runtime_disabled": 15,
      "timed_out": 5,
      "trap_pairs_after": 10,
      "wall_us": 1600000
    },
    {
      "crashed": 3,
      "delays_aborted_stall": 13,
      "delays_early_woken": 12,
      "delays_injected": 11,
      "delays_skipped_budget": 14,
      "interrupted": true,
      "killed_by_signal": 6,
      "new_unique_bugs": 8,
      "quarantined": 7,
      "retrapped_imported": 9,
      "retried": 4,
      "round": 2,
      "runs": 40,
      "runtime_disabled": 15,
      "timed_out": 5,
      "trap_pairs_after": 10,
      "wall_us": 1600000
    }
  ],
  "run_failures": [
    {
      "attempt_errors": [
        "attempt 1: watchdog",
        "attempt 2: watchdog"
      ],
      "attempts": 2,
      "crash_signature": "TIMEOUT (watchdog SIGKILL)",
      "degrade_level": 1,
      "internal_errors": 6,
      "killed_by_signal": 9,
      "module": "corpus_mod_11",
      "module_index": 11,
      "quarantined": true,
      "round": 3,
      "runtime_disabled": true,
      "salvaged_trap_pairs": 2,
      "status": "timed_out"
    }
  ],
  "totals": {
    "delays_aborted_stall": 26,
    "delays_early_woken": 24,
    "delays_injected": 22,
    "delays_skipped_budget": 28,
    "distinct_stack_pairs": 2,
    "runtime_disabled": 30,
    "salvaged_trap_pairs": 2,
    "unique_bugs": 1
  },
  "unique_bugs": [
    {
      "api_first": "ContainsKey",
      "api_second": "Set",
      "async": false,
      "distinct_stack_pairs": 2,
      "first_round": 2,
      "modules": [
        "corpus_mod_11",
        "corpus_mod_12"
      ],
      "occurrences": 5,
      "pair": [
        "a.cc:10 ContainsKey",
        "a.cc:20 Set"
      ],
      "read_write": true,
      "same_location": true
    }
  ]
}
)json";

TEST(WireFormatTest, RunOutcomeAndObservationAreByteIdentical) {
  EXPECT_EQ(sandbox::EncodeRunOutcome(FullOutcome()).Dump(), kOutcome);
}

TEST(WireFormatTest, CampaignOptionsAreByteIdentical) {
  EXPECT_EQ(fleet::EncodeCampaignOptions(FullOptions()).Dump(), kOptions);
}

TEST(WireFormatTest, JournalRecordsAreByteIdentical) {
  const std::vector<std::string> lines = JournalLines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], kJournalHeader);
  EXPECT_EQ(lines[1], std::string(R"({"module_index":11,"outcome":)") + kOutcome +
                          R"(,"round":3,"type":"run"})");
  EXPECT_EQ(lines[2], kJournalRound);
}

TEST(WireFormatTest, BugMgrSnapshotIsByteIdentical) {
  ScopedTempDir dir;
  const std::string path = CampaignJournal::SnapshotPathIn(dir.path);
  BugReportMgr mgr;
  mgr.Restore({FullUniqueBug()});
  ASSERT_TRUE(SaveBugMgrSnapshot(path, mgr, /*watermark=*/33, /*durable=*/false));
  EXPECT_EQ(ReadAll(path), kSnapshot);
}

TEST(WireFormatTest, CampaignJsonRoundsAndTotalsAreByteIdentical) {
  CampaignMeta meta;
  meta.detector = "TSVD";
  meta.num_modules = 44;
  meta.workers = 4;
  meta.rounds_requested = 6;
  meta.rounds_executed = 2;
  meta.scale = 0.125;
  meta.seed = 7;
  RoundStats first = FullRoundStats();
  first.round = 1;
  first.interrupted = false;
  EXPECT_EQ(RenderJson(meta, {first, FullRoundStats()}, {FullUniqueBug()},
                       {FullOutcome()}),
            kCampaignJson);
}

// ---- Mistyped fields -------------------------------------------------------------

Json ParseGolden(const char* text) {
  Json doc;
  EXPECT_TRUE(Json::Parse(text, &doc));
  return doc;
}

// Values of two types other than T; for an array field, one of them is an array
// whose element has the wrong type.
template <class T>
std::vector<Json> WrongValuesFor() {
  if constexpr (std::is_same_v<T, std::string>) {
    return {Json(7), Json(true)};
  } else if constexpr (std::is_same_v<T, bool>) {
    return {Json(1), Json("true")};
  } else if constexpr (requires { typename T::value_type; }) {
    Json array = Json::MakeArray();
    array.Push(WrongValuesFor<typename T::value_type>()[0]);
    return {Json("7"), array};
  } else {
    return {Json("7"), Json(false)};
  }
}

// Calls check(key, bad) for every field in Record's field list and every wrong
// value for it.
template <class Record>
void ForEachMistypedField(const std::function<void(const char*, const Json&)>& check) {
  const Record sample{};
  Record::VisitFields(
      [&](const char* key, const auto& value) {
        for (const Json& bad : WrongValuesFor<std::decay_t<decltype(value)>>()) {
          check(key, bad);
        }
      },
      sample);
}

void ExpectOutcomeRejected(const Json& doc, const std::string& key) {
  RunOutcome decoded;
  std::string error;
  EXPECT_FALSE(sandbox::DecodeRunOutcome(doc, &decoded, &error)) << key;
  EXPECT_NE(error.find("\"" + key + "\""), std::string::npos) << error;
}

TEST(WireFormatTest, RunOutcomeRejectsEveryMistypedField) {
  ForEachMistypedField<RunOutcome>([](const char* key, const Json& bad) {
    Json doc = ParseGolden(kOutcome);
    doc.Set(key, bad);
    ExpectOutcomeRejected(doc, key);
  });
  for (const char* key : {"status", "observations", "traps"}) {
    Json doc = ParseGolden(kOutcome);
    doc.Set(key, 7);
    ExpectOutcomeRejected(doc, key);
  }
}

TEST(WireFormatTest, BugObservationRejectsEveryMistypedField) {
  ForEachMistypedField<BugObservation>([](const char* key, const Json& bad) {
    Json observation = ParseGolden(kOutcome).Find("observations")->at(0);
    observation.Set(key, bad);
    Json observations = Json::MakeArray();
    observations.Push(std::move(observation));
    Json doc = ParseGolden(kOutcome);
    doc.Set("observations", std::move(observations));
    ExpectOutcomeRejected(doc, key);
  });
}

TEST(WireFormatTest, CampaignOptionsWithRetiredKeysStillDecode) {
  CampaignOptions decoded;
  std::string error;
  ASSERT_TRUE(fleet::DecodeCampaignOptions(ParseGolden(kOptionsWithRetiredKeys), &decoded,
                                           &error))
      << error;
  EXPECT_EQ(fleet::EncodeCampaignOptions(decoded).Dump(), kOptions);
}

TEST(WireFormatTest, CampaignOptionsRejectEveryMistypedField) {
  ForEachMistypedField<CampaignOptions>([](const char* key, const Json& bad) {
    Json doc = ParseGolden(kOptions);
    doc.Set(key, bad);
    CampaignOptions decoded;
    std::string error;
    EXPECT_FALSE(fleet::DecodeCampaignOptions(doc, &decoded, &error)) << key;
    EXPECT_NE(error.find(std::string("campaign option \"") + key + "\""),
              std::string::npos)
        << error;
  });
}

// Replays a journal of `lines` (each a record; a valid record follows them so none
// is the torn tail).
JournalReplay Replay(const std::vector<std::string>& lines) {
  ScopedTempDir dir;
  const std::string path = CampaignJournal::PathIn(dir.path);
  {
    std::ofstream out(path, std::ios::binary);
    for (const std::string& line : lines) {
      out << line << "\n";
    }
    out << R"({"converged":true,"type":"complete"})" << "\n";
  }
  JournalReplay replay;
  EXPECT_TRUE(CampaignJournal::Load(path, &replay));
  return replay;
}

TEST(WireFormatTest, JournalHeaderRejectsEveryMistypedField) {
  ASSERT_TRUE(Replay({kJournalHeader}).has_header);
  ForEachMistypedField<JournalHeader>([](const char* key, const Json& bad) {
    Json header = ParseGolden(kJournalHeader);
    header.Set(key, bad);
    const JournalReplay replay = Replay({header.Dump()});
    EXPECT_FALSE(replay.has_header) << key;
    EXPECT_EQ(replay.malformed_records, 1) << key;
  });
}

TEST(WireFormatTest, JournalRoundRecordRejectsEveryMistypedField) {
  ASSERT_EQ(Replay({kJournalHeader, kJournalRound}).completed_rounds.size(), 1u);
  ForEachMistypedField<RoundStats>([](const char* key, const Json& bad) {
    Json record = ParseGolden(kJournalRound);
    Json stats = *record.Find("stats");
    stats.Set(key, bad);
    record.Set("stats", std::move(stats));
    const JournalReplay replay = Replay({kJournalHeader, record.Dump()});
    EXPECT_TRUE(replay.completed_rounds.empty()) << key;
    EXPECT_EQ(replay.malformed_records, 1) << key;
  });
}

TEST(WireFormatTest, BugMgrSnapshotRejectsEveryMistypedField) {
  const auto loads = [](const Json& bug) {
    Json bugs = Json::MakeArray();
    bugs.Push(bug);
    Json snapshot = ParseGolden(kSnapshot);
    snapshot.Set("bugs", std::move(bugs));
    ScopedTempDir dir;
    const std::string path = CampaignJournal::SnapshotPathIn(dir.path);
    std::ofstream(path, std::ios::binary) << snapshot.Dump(2);
    BugMgrSnapshot loaded;
    return LoadBugMgrSnapshot(path, &loaded);
  };
  const Json golden_bug = ParseGolden(kSnapshot).Find("bugs")->at(0);
  ASSERT_TRUE(loads(golden_bug));
  ForEachMistypedField<BugReportMgr::UniqueBug>([&](const char* key, const Json& bad) {
    Json bug = golden_bug;
    bug.Set(key, bad);
    EXPECT_FALSE(loads(bug)) << key;
  });
}

}  // namespace
}  // namespace tsvd::campaign
