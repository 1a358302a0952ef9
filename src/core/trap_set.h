// The trap set: dangerous pairs of program locations and per-location injection
// probabilities (Sections 3.4.1, 3.4.5).
//
// Grows when near misses are discovered; shrinks when a likely happens-before
// relationship is inferred between a pair, when a violation has already been caught at
// a pair, or when decay drives a location's probability to zero.
//
// Hot-path design: AddPair is attempted for every near miss, and in a hot loop the
// same few pairs recur thousands of times — each attempt a no-op that still contended
// the global mutex. Each thread now keeps a small direct-mapped cache of pairs whose
// AddPair is known to be a no-op (already present, HB-pruned, or already caught);
// cache hits return without the lock. Any pair removal bumps a global epoch which
// invalidates every thread's cache wholesale — removals are rare (decay, HB pruning,
// caught bugs), so the conservative flush costs nothing while guaranteeing a removed
// pair can always be re-added.
#ifndef SRC_CORE_TRAP_SET_H_
#define SRC_CORE_TRAP_SET_H_

#include <atomic>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/config.h"
#include "src/common/ids.h"
#include "src/common/padded.h"
#include "src/common/paged_table.h"
#include "src/common/per_thread.h"
#include "src/report/bug_report.h"
#include "src/report/trap_file.h"

namespace tsvd {

class TrapSet {
 public:
  explicit TrapSet(const Config& config);

  // Adds a dangerous pair discovered via a near miss. No-op (returns false) if the
  // pair is already present, was pruned by HB inference, or was already caught as a
  // violation. On a genuine add, both locations' probabilities are set to 1.
  bool AddPair(OpId a, OpId b);

  // Current injection probability of a location; 0 means "not eligible for delays".
  // Lock-free and non-allocating: this is read on every OnCall, and a location
  // whose page was never written has probability 0.
  double Prob(OpId op) const {
    const std::atomic<double>* p = prob_.Peek(op);
    return p == nullptr ? 0.0 : p->load(std::memory_order_relaxed);
  }

  // HB inference concluded a -> b: the pair cannot race. Removes it and blocks
  // re-addition (Section 3.4.4).
  void MarkHbOrdered(OpId a, OpId b);

  // A violation was caught at this pair; no need to keep hunting it (Section 3.4.1).
  void MarkFound(OpId a, OpId b);

  // A delay at `op` completed without exposing a conflict: decay the probability of
  // both endpoints of every pair containing `op` (Section 3.4.5). Locations whose
  // probability falls below the configured minimum drop to 0 and their pairs leave the
  // trap set.
  void DecayAfterFailedDelay(OpId op);

  uint64_t PairCount() const;
  std::vector<OpId> PartnersOf(OpId op) const;
  bool WasHbPruned(OpId a, OpId b) const;

  // Persistence: export surviving pairs as signatures; import pre-arms pairs with
  // probability 1 even before their first dynamic occurrence. Import resolves and
  // inserts the whole file under one lock acquisition and memoizes signature lookups,
  // so trap files with thousands of (often duplicated) signatures load cheaply.
  TrapFile Export() const;
  void Import(const TrapFile& file);

 private:
  bool AddPairLocked(const LocationPair& pair);
  void RemovePairLocked(const LocationPair& pair);
  void SetProbLocked(OpId op, double p);

  // Per-thread direct-mapped cache of pair encodings whose AddPair is a no-op.
  // Entries store EncodePair(pair) + 1 so 0 doubles as "empty"; `epoch` snapshots
  // removal_epoch_ at fill time and a mismatch discards the whole cache.
  // Line-aligned: dense ThreadIds put neighboring threads' caches adjacent, and a
  // cache spilling into a neighbor's line would turn every fill into cross-core
  // invalidation traffic on the near-miss path.
  static constexpr size_t kPairCacheSlots = 32;
  struct alignas(kCacheLineSize) PairCache {
    uint64_t epoch = 0;
    uint64_t entries[kPairCacheSlots] = {};
  };
  static_assert(sizeof(PairCache) % kCacheLineSize == 0 &&
                    alignof(PairCache) == kCacheLineSize,
                "pair caches must not straddle a neighbor's cache line");
  static uint64_t EncodePair(const LocationPair& pair) {
    return ((static_cast<uint64_t>(pair.first) << 32) | pair.second) + 1;
  }

  mutable std::mutex mu_;
  double decay_factor_;
  double min_probability_;

  std::unordered_set<LocationPair, LocationPairHash> pairs_;
  std::unordered_set<LocationPair, LocationPairHash> hb_pruned_;
  std::unordered_set<LocationPair, LocationPairHash> found_;
  std::unordered_map<OpId, std::vector<OpId>> partners_;

  // Bumped (under mu_) whenever a pair leaves pairs_; readers treat a changed value
  // as "all cached no-op conclusions are suspect".
  std::atomic<uint64_t> removal_epoch_{0};
  PerThread<PairCache> pair_caches_;

  // Dense probability table indexed by OpId; reads are lock-free, writes happen under
  // mu_. Pages are allocated by the first nonzero write into them.
  PerOp<std::atomic<double>> prob_;
};

}  // namespace tsvd

#endif  // SRC_CORE_TRAP_SET_H_
