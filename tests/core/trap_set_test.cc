// Unit tests for the trap set: dangerous pairs, probabilities, decay, persistence
// (Sections 3.4.1, 3.4.5, 3.4.6).
#include <gtest/gtest.h>

#include <string>

#include "src/common/callsite.h"
#include "src/common/paged_table.h"
#include "src/core/trap_set.h"

namespace tsvd {
namespace {

Config SetConfig(double decay = 0.5, double min_p = 0.05) {
  Config cfg;
  cfg.decay_factor = decay;
  cfg.min_probability = min_p;
  return cfg;
}

TEST(TrapSetTest, AddPairArmsBothLocations) {
  TrapSet traps(SetConfig());
  EXPECT_TRUE(traps.AddPair(1, 2));
  EXPECT_DOUBLE_EQ(traps.Prob(1), 1.0);
  EXPECT_DOUBLE_EQ(traps.Prob(2), 1.0);
  EXPECT_EQ(traps.PairCount(), 1u);
}

TEST(TrapSetTest, DuplicateAddIsNoOp) {
  TrapSet traps(SetConfig());
  EXPECT_TRUE(traps.AddPair(1, 2));
  EXPECT_FALSE(traps.AddPair(2, 1));  // canonical ordering
  EXPECT_EQ(traps.PairCount(), 1u);
}

TEST(TrapSetTest, SameLocationPairSupported) {
  TrapSet traps(SetConfig());
  EXPECT_TRUE(traps.AddPair(3, 3));
  EXPECT_DOUBLE_EQ(traps.Prob(3), 1.0);
  EXPECT_EQ(traps.PartnersOf(3).size(), 1u);
}

TEST(TrapSetTest, UnknownLocationHasZeroProbability) {
  TrapSet traps(SetConfig());
  EXPECT_DOUBLE_EQ(traps.Prob(99), 0.0);
}

TEST(TrapSetTest, HbPruneRemovesAndBlocksReaddition) {
  TrapSet traps(SetConfig());
  traps.AddPair(1, 2);
  traps.MarkHbOrdered(1, 2);
  EXPECT_EQ(traps.PairCount(), 0u);
  EXPECT_DOUBLE_EQ(traps.Prob(1), 0.0);
  EXPECT_TRUE(traps.WasHbPruned(1, 2));
  EXPECT_FALSE(traps.AddPair(1, 2));
}

TEST(TrapSetTest, FoundPruneRemovesAndBlocksReaddition) {
  TrapSet traps(SetConfig());
  traps.AddPair(1, 2);
  traps.MarkFound(2, 1);
  EXPECT_EQ(traps.PairCount(), 0u);
  EXPECT_FALSE(traps.AddPair(1, 2));
}

TEST(TrapSetTest, PruningOnePairKeepsOthersAlive) {
  TrapSet traps(SetConfig());
  traps.AddPair(1, 2);
  traps.AddPair(1, 3);
  traps.MarkHbOrdered(1, 2);
  EXPECT_EQ(traps.PairCount(), 1u);
  EXPECT_DOUBLE_EQ(traps.Prob(1), 1.0);  // still has the (1,3) pair
  EXPECT_DOUBLE_EQ(traps.Prob(2), 0.0);  // lost its only pair
}

TEST(TrapSetTest, DecayReducesProbabilityGeometrically) {
  TrapSet traps(SetConfig(0.5));
  traps.AddPair(1, 2);
  traps.DecayAfterFailedDelay(1);
  EXPECT_DOUBLE_EQ(traps.Prob(1), 0.5);
  EXPECT_DOUBLE_EQ(traps.Prob(2), 0.5);  // both endpoints of the pair decay
  traps.DecayAfterFailedDelay(1);
  EXPECT_DOUBLE_EQ(traps.Prob(1), 0.25);
}

TEST(TrapSetTest, DecayBelowMinimumRemovesPairs) {
  TrapSet traps(SetConfig(0.9, 0.2));
  traps.AddPair(1, 2);
  traps.DecayAfterFailedDelay(1);  // 1.0 -> 0.1 < 0.2 -> dead
  EXPECT_DOUBLE_EQ(traps.Prob(1), 0.0);
  EXPECT_EQ(traps.PairCount(), 0u);
  // Not HB-pruned or found: a fresh near miss may re-arm it.
  EXPECT_TRUE(traps.AddPair(1, 2));
}

TEST(TrapSetTest, DecayFactorZeroDisablesDecay) {
  TrapSet traps(SetConfig(0.0));
  traps.AddPair(1, 2);
  for (int i = 0; i < 100; ++i) {
    traps.DecayAfterFailedDelay(1);
  }
  EXPECT_DOUBLE_EQ(traps.Prob(1), 1.0);  // Fig. 9(g): factor 0 means no decay
}

TEST(TrapSetTest, ExportImportRoundtrip) {
  auto& registry = CallSiteRegistry::Instance();
  const OpId a = registry.InternRaw("ts.cc", 1, "Dictionary.Add", OpKind::kWrite);
  const OpId b = registry.InternRaw("ts.cc", 2, "Dictionary.Get", OpKind::kRead);
  TrapSet source(SetConfig());
  source.AddPair(a, b);
  const TrapFile file = source.Export();
  ASSERT_EQ(file.pairs.size(), 1u);

  TrapSet target(SetConfig());
  target.Import(file);
  EXPECT_EQ(target.PairCount(), 1u);
  EXPECT_DOUBLE_EQ(target.Prob(a), 1.0);
  EXPECT_DOUBLE_EQ(target.Prob(b), 1.0);
}

TEST(TrapSetTest, ImportSkipsUnknownSignatures) {
  TrapFile file;
  file.pairs.emplace_back("never_interned.cc:1 X", "never_interned.cc:2 Y");
  TrapSet traps(SetConfig());
  traps.Import(file);
  EXPECT_EQ(traps.PairCount(), 0u);
}

TEST(TrapSetTest, UntouchedPageReadsZero) {
  TrapSet traps(SetConfig());
  EXPECT_DOUBLE_EQ(traps.Prob(0), 0.0);
  EXPECT_DOUBLE_EQ(traps.Prob(4096 * 5 + 3), 0.0);
  EXPECT_DOUBLE_EQ(traps.Prob(static_cast<OpId>(kMaxOps - 1)), 0.0);
  EXPECT_DOUBLE_EQ(traps.Prob(static_cast<OpId>(kMaxOps)), 0.0);
  EXPECT_DOUBLE_EQ(traps.Prob(kInvalidOp), 0.0);
  traps.AddPair(1, 2);
  EXPECT_DOUBLE_EQ(traps.Prob(1), 1.0);
  EXPECT_DOUBLE_EQ(traps.Prob(4096 + 1), 0.0);  // a different, untouched page
  EXPECT_FALSE(traps.AddPair(1, static_cast<OpId>(kMaxOps)));
}

TEST(TrapSetTest, PairAcrossPageBoundaryArmsDecaysAndDies) {
  TrapSet traps(SetConfig(/*decay=*/0.5, /*min_p=*/0.2));
  EXPECT_TRUE(traps.AddPair(4095, 4096));
  EXPECT_DOUBLE_EQ(traps.Prob(4095), 1.0);
  EXPECT_DOUBLE_EQ(traps.Prob(4096), 1.0);
  traps.DecayAfterFailedDelay(4096);
  EXPECT_DOUBLE_EQ(traps.Prob(4095), 0.5);
  EXPECT_DOUBLE_EQ(traps.Prob(4096), 0.5);
  traps.DecayAfterFailedDelay(4095);
  EXPECT_DOUBLE_EQ(traps.Prob(4095), 0.25);
  traps.DecayAfterFailedDelay(4095);  // 0.125 < 0.2: both endpoints die
  EXPECT_DOUBLE_EQ(traps.Prob(4095), 0.0);
  EXPECT_DOUBLE_EQ(traps.Prob(4096), 0.0);
  EXPECT_EQ(traps.PairCount(), 0u);
  EXPECT_TRUE(traps.AddPair(4096, 4095));  // decay removal is not permanent
  EXPECT_DOUBLE_EQ(traps.Prob(4096), 1.0);
}

TEST(TrapSetTest, ImportArmsSitesOnBothSidesOfAPageBoundary) {
  // Intern fresh sites until two consecutive ids straddle a 4096-op page boundary;
  // ids are process-global, so which boundary depends on what ran before.
  auto& registry = CallSiteRegistry::Instance();
  OpId before = kInvalidOp;
  OpId after = kInvalidOp;
  for (uint32_t line = 1; line <= 4097 && after == kInvalidOp; ++line) {
    const OpId id = registry.InternRaw("page_boundary.cc", line, "List.Add", OpKind::kWrite);
    if (id > 0 && id % 4096 == 0 && before == id - 1) {
      after = id;
    }
    before = id;
  }
  ASSERT_NE(after, kInvalidOp);
  const OpId last_of_page = after - 1;

  TrapSet source(SetConfig());
  source.AddPair(last_of_page, after);
  TrapSet target(SetConfig());
  target.Import(source.Export());
  EXPECT_EQ(target.PairCount(), 1u);
  EXPECT_DOUBLE_EQ(target.Prob(last_of_page), 1.0);
  EXPECT_DOUBLE_EQ(target.Prob(after), 1.0);
  target.DecayAfterFailedDelay(after);
  EXPECT_DOUBLE_EQ(target.Prob(last_of_page), 0.5);
  EXPECT_DOUBLE_EQ(target.Prob(after), 0.5);
}

TEST(TrapSetTest, PartnersTracksAllPairsOfALocation) {
  TrapSet traps(SetConfig());
  traps.AddPair(1, 2);
  traps.AddPair(1, 3);
  traps.AddPair(1, 4);
  EXPECT_EQ(traps.PartnersOf(1).size(), 3u);
  EXPECT_EQ(traps.PartnersOf(2).size(), 1u);
}

}  // namespace
}  // namespace tsvd
