// Trap-store service semantics: versions advance only at round boundaries, and
// only when the store grows, so every job of a round imports one snapshot.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/fleet/trap_store.h"
#include "src/report/trap_file.h"

namespace tsvd::fleet {
namespace {

TrapFile MakeTraps(std::initializer_list<std::pair<std::string, std::string>> pairs) {
  TrapFile file;
  for (const auto& p : pairs) {
    file.pairs.push_back(p);
  }
  file.Canonicalize();
  return file;
}

TEST(TrapStoreServiceTest, VersionAdvancesOnlyWhenARoundGrowsTheStore) {
  TrapStoreService service;
  EXPECT_EQ(service.version(), 1u);

  EXPECT_EQ(service.CommitRound(MakeTraps({{"a.cc:1 Get", "b.cc:2 Set"}})), 1u);
  EXPECT_EQ(service.version(), 2u);

  // Re-committing already-known pairs is a no-op round: no growth, no bump.
  EXPECT_EQ(service.CommitRound(MakeTraps({{"a.cc:1 Get", "b.cc:2 Set"}})), 1u);
  EXPECT_EQ(service.version(), 2u);

  EXPECT_EQ(service.CommitRound(MakeTraps({{"c.cc:3 Put", "d.cc:4 Del"}})), 2u);
  EXPECT_EQ(service.version(), 3u);
}

TEST(TrapStoreServiceTest, SerializeIfStaleOnlyShipsToStaleCallers) {
  TrapStoreService service;
  service.CommitRound(MakeTraps({{"a.cc:1 Get", "b.cc:2 Set"}}));

  uint64_t version = 0;
  std::string text;
  ASSERT_TRUE(service.SerializeIfStale(0, &version, &text));
  EXPECT_EQ(version, service.version());
  EXPECT_EQ(TrapFile::Deserialize(text).size(), 1u);

  // A current caller gets nothing — the lease fast path stays payload-free.
  EXPECT_FALSE(service.SerializeIfStale(version, &version, &text));
}

TEST(TrapStoreServiceTest, RestoreSeedsWithoutBumpingTheVersion) {
  TrapStoreService service;
  service.Restore(MakeTraps({{"a.cc:1 Get", "b.cc:2 Set"},
                             {"c.cc:3 Put", "d.cc:4 Del"}}));
  EXPECT_EQ(service.version(), 1u);
  EXPECT_EQ(service.Snapshot().size(), 2u);
}

}  // namespace
}  // namespace tsvd::fleet
