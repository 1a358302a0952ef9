// Unit tests for src/report: trap files, bug reports, coverage.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "src/common/callsite.h"
#include "src/report/bug_report.h"
#include "src/report/coverage.h"
#include "src/report/run_summary.h"
#include "src/report/trap_file.h"

namespace tsvd {
namespace {

TEST(LocationPairTest, CanonicalOrdering) {
  const LocationPair a(5, 3);
  const LocationPair b(3, 5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.first, 3u);
  EXPECT_EQ(a.second, 5u);
  EXPECT_EQ(LocationPairHash{}(a), LocationPairHash{}(b));
}

TEST(LocationPairTest, SameLocationPairAllowed) {
  const LocationPair p(4, 4);
  EXPECT_EQ(p.first, p.second);
}

TEST(TrapFileTest, SerializeDeserializeRoundtrip) {
  TrapFile file;
  file.pairs.emplace_back("a.cc:1 Dictionary.Add", "b.cc:2 Dictionary.Get");
  file.pairs.emplace_back("c.cc:3 List.Sort", "c.cc:3 List.Sort");
  const TrapFile out = TrapFile::Deserialize(file.Serialize());
  EXPECT_EQ(out.pairs, file.pairs);
}

TEST(TrapFileTest, EmptyFileRoundtrip) {
  const TrapFile out = TrapFile::Deserialize(TrapFile{}.Serialize());
  EXPECT_TRUE(out.empty());
}

TEST(TrapFileTest, IgnoresMalformedLines) {
  const TrapFile out = TrapFile::Deserialize("tsvd-trap-v1\ngarbage-without-tab\na\tb\n");
  ASSERT_EQ(out.pairs.size(), 1u);
  EXPECT_EQ(out.pairs[0].first, "a");
  EXPECT_EQ(out.pairs[0].second, "b");
}

TEST(TrapFileTest, FileIoRoundtrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tsvd_trap_test.txt").string();
  TrapFile file;
  file.pairs.emplace_back("x.cc:7 HashSet.Add", "y.cc:8 HashSet.Remove");
  ASSERT_TRUE(file.SaveTo(path));
  TrapFile loaded;
  ASSERT_TRUE(TrapFile::LoadFrom(path, &loaded));
  EXPECT_EQ(loaded.pairs, file.pairs);
  std::remove(path.c_str());
}

TEST(TrapFileTest, LoadMissingFileFails) {
  TrapFile loaded;
  EXPECT_FALSE(TrapFile::LoadFrom("/nonexistent/dir/trap.txt", &loaded));
}

TEST(BugReportTest, ToStringContainsBothSides) {
  auto& registry = CallSiteRegistry::Instance();
  BugReport report;
  report.object = 0xabc;
  report.trapped.tid = 1;
  report.trapped.op = registry.InternRaw("rep.cc", 1, "Dictionary.Add", OpKind::kWrite);
  report.trapped.kind = OpKind::kWrite;
  report.trapped.stack = {"main", "WriterTask"};
  report.racing.tid = 2;
  report.racing.op = registry.InternRaw("rep.cc", 2, "Dictionary.Get", OpKind::kRead);
  report.racing.kind = OpKind::kRead;
  report.racing.stack = {"main", "ReaderTask"};
  const std::string text = report.ToString();
  EXPECT_NE(text.find("Dictionary.Add"), std::string::npos);
  EXPECT_NE(text.find("Dictionary.Get"), std::string::npos);
  EXPECT_NE(text.find("WriterTask"), std::string::npos);
  EXPECT_NE(text.find("[write]"), std::string::npos);
  EXPECT_NE(text.find("[read]"), std::string::npos);
}

TEST(RunSummaryTest, MergeAccumulates) {
  RunSummary a;
  a.oncall_count = 10;
  a.delays_injected = 2;
  a.unique_pairs.insert(LocationPair(1, 2));
  RunSummary b;
  b.oncall_count = 5;
  b.unique_pairs.insert(LocationPair(1, 2));
  b.unique_pairs.insert(LocationPair(3, 4));
  a.Merge(b);
  EXPECT_EQ(a.oncall_count, 15u);
  EXPECT_EQ(a.unique_pairs.size(), 2u);
}

TEST(CoverageTest, TracksHitsAndConcurrency) {
  CoverageTracker coverage;
  uint32_t thread1 = 0;  // each simulated thread's lane cell
  uint32_t thread2 = 0;
  coverage.Record(1, &thread1, false);
  coverage.Record(1, &thread2, true);
  coverage.Record(2, &thread1, false);
  EXPECT_EQ(coverage.PointsHit(), 2u);
  EXPECT_EQ(coverage.PointsHitConcurrently(), 1u);
  EXPECT_EQ(coverage.Lookup(1).hits, 2u);
  EXPECT_EQ(coverage.Lookup(1).concurrent_hits, 1u);
  const auto sequential = coverage.SequentialOnlyPoints();
  ASSERT_EQ(sequential.size(), 1u);
  EXPECT_EQ(sequential[0], 2u);
}

TEST(CoverageTest, SumsHitsAcrossThreadLanes) {
  // Threads land on different internal lanes, the later ones and the callers
  // without a lane cell on shared ones; totals must aggregate across all.
  CoverageTracker coverage;
  uint32_t cells[64] = {};
  for (int t = 0; t < 64; ++t) {
    coverage.Record(7, &cells[t], t % 2 == 0);
    coverage.Record(7, nullptr, false);
  }
  EXPECT_EQ(coverage.Lookup(7).hits, 128u);
  EXPECT_EQ(coverage.Lookup(7).concurrent_hits, 32u);
  EXPECT_EQ(coverage.PointsHit(), 1u);
  EXPECT_EQ(coverage.PointsHitConcurrently(), 1u);
}

TEST(CoverageTest, ThreadKeepsTheLaneItClaimedFirst) {
  CoverageTracker coverage;
  uint32_t first = 0;
  uint32_t second = 0;
  coverage.Record(3, &first, false);
  coverage.Record(3, &second, false);
  const uint32_t claimed = first;
  EXPECT_NE(claimed, 0u);
  EXPECT_NE(second, claimed);
  coverage.Record(4, &first, true);
  EXPECT_EQ(first, claimed);
  EXPECT_EQ(coverage.Lookup(3).hits, 2u);
  EXPECT_EQ(coverage.Lookup(4).concurrent_hits, 1u);
}

TEST(CoverageTest, CountsStayExactWithMoreThreadsThanExclusiveLanes) {
  // 40 racing threads: the first 16 to call get lanes of their own, the rest
  // share the shared lanes (fetch_add), the last of them with two callers that
  // have no lane cell.
  CoverageTracker coverage;
  constexpr int kThreads = 40;
  constexpr int kCalls = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads + 2; ++t) {
    threads.emplace_back([&coverage, t] {
      uint32_t cell = 0;
      for (int i = 0; i < kCalls; ++i) {
        coverage.Record(static_cast<OpId>(i % 3), t < kThreads ? &cell : nullptr,
                        i % 2 == 0);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  uint64_t hits = 0;
  uint64_t concurrent = 0;
  for (OpId op = 0; op < 3; ++op) {
    hits += coverage.Lookup(op).hits;
    concurrent += coverage.Lookup(op).concurrent_hits;
  }
  EXPECT_EQ(hits, uint64_t{kThreads + 2} * kCalls);
  EXPECT_EQ(concurrent, uint64_t{kThreads + 2} * kCalls / 2);
}

TEST(CoverageTest, LookupUnknownIsZero) {
  CoverageTracker coverage;
  EXPECT_EQ(coverage.Lookup(42).hits, 0u);
}

}  // namespace
}  // namespace tsvd
