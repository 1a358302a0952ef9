#include "src/core/trap_set.h"

#include <algorithm>
#include <cassert>

#include "src/common/callsite.h"
#include "src/common/thread_id.h"

namespace tsvd {

TrapSet::TrapSet(const Config& config)
    : decay_factor_(config.decay_factor), min_probability_(config.min_probability) {}

bool TrapSet::AddPair(OpId a, OpId b) {
  if (a >= kMaxOps || b >= kMaxOps) {
    return false;
  }
  const LocationPair pair(a, b);
  const uint64_t enc = EncodePair(pair);
  // A thread without a cache slot always takes the locked path.
  PairCache* cache = pair_caches_.Find(CurrentThreadId());
  size_t slot = 0;
  if (cache != nullptr) {
    const uint64_t epoch = removal_epoch_.load(std::memory_order_acquire);
    if (cache->epoch != epoch) {
      cache->epoch = epoch;
      std::fill(std::begin(cache->entries), std::end(cache->entries), uint64_t{0});
    }
    slot = Mix64(enc) & (kPairCacheSlots - 1);
    if (cache->entries[slot] == enc) {
      return false;  // known no-op for this epoch: present, HB-pruned, or caught
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  const bool added = AddPairLocked(pair);
  // Whether freshly added or already known, the pair is now a member (or permanently
  // blocked): further AddPair calls are no-ops until a removal bumps the epoch.
  if (cache != nullptr) {
    cache->entries[slot] = enc;
  }
  return added;
}

bool TrapSet::AddPairLocked(const LocationPair& pair) {
  if (pairs_.contains(pair) || hb_pruned_.contains(pair) || found_.contains(pair)) {
    return false;
  }
  pairs_.insert(pair);
  partners_[pair.first].push_back(pair.second);
  if (pair.first != pair.second) {
    partners_[pair.second].push_back(pair.first);
  }
  SetProbLocked(pair.first, 1.0);
  SetProbLocked(pair.second, 1.0);
  return true;
}

void TrapSet::MarkHbOrdered(OpId a, OpId b) {
  const LocationPair pair(a, b);
  std::lock_guard<std::mutex> lock(mu_);
  hb_pruned_.insert(pair);
  RemovePairLocked(pair);
}

void TrapSet::MarkFound(OpId a, OpId b) {
  const LocationPair pair(a, b);
  std::lock_guard<std::mutex> lock(mu_);
  found_.insert(pair);
  RemovePairLocked(pair);
}

void TrapSet::DecayAfterFailedDelay(OpId op) {
  if (decay_factor_ <= 0.0) {
    return;  // decay disabled (Fig. 9(g), factor 0)
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = partners_.find(op);
  if (it == partners_.end() || it->second.empty()) {
    SetProbLocked(op, 0.0);
    return;
  }
  // Decay both endpoints of every pair containing op; collect locations that dropped
  // to zero, then remove their pairs.
  std::vector<OpId> affected = it->second;
  affected.push_back(op);
  std::vector<OpId> dead;
  for (OpId loc : affected) {
    double p = Prob(loc) * (1.0 - decay_factor_);
    if (p < min_probability_) {
      p = 0.0;
      dead.push_back(loc);
    }
    SetProbLocked(loc, p);
  }
  for (OpId loc : dead) {
    auto pit = partners_.find(loc);
    if (pit == partners_.end()) {
      continue;
    }
    const std::vector<OpId> its_partners = pit->second;
    for (OpId q : its_partners) {
      RemovePairLocked(LocationPair(loc, q));
    }
  }
}

void TrapSet::RemovePairLocked(const LocationPair& pair) {
  if (pairs_.erase(pair) == 0) {
    return;
  }
  // A removed pair may later be re-added (decay removal is not permanent); every
  // thread's no-op cache must forget it. Release pairs with the acquire load in
  // AddPair so a thread observing the new epoch also observes the removal.
  removal_epoch_.fetch_add(1, std::memory_order_release);
  auto drop = [this](OpId from, OpId what) {
    auto it = partners_.find(from);
    if (it == partners_.end()) {
      return;
    }
    auto& vec = it->second;
    vec.erase(std::remove(vec.begin(), vec.end(), what), vec.end());
    if (vec.empty()) {
      partners_.erase(it);
      // A location with no remaining pairs has nothing to trap for.
      SetProbLocked(from, 0.0);
    }
  };
  drop(pair.first, pair.second);
  if (pair.first != pair.second) {
    drop(pair.second, pair.first);
  }
}

void TrapSet::SetProbLocked(OpId op, double p) {
  // Zero is what an untouched page already reads: storing it allocates nothing.
  std::atomic<double>* slot = p == 0.0 ? prob_.Peek(op) : prob_.Find(op);
  if (slot != nullptr) {
    slot->store(p, std::memory_order_relaxed);
  }
}

uint64_t TrapSet::PairCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pairs_.size();
}

std::vector<OpId> TrapSet::PartnersOf(OpId op) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = partners_.find(op);
  return it == partners_.end() ? std::vector<OpId>{} : it->second;
}

bool TrapSet::WasHbPruned(OpId a, OpId b) const {
  std::lock_guard<std::mutex> lock(mu_);
  return hb_pruned_.contains(LocationPair(a, b));
}

TrapFile TrapSet::Export() const {
  TrapFile file;
  const CallSiteRegistry& registry = CallSiteRegistry::Instance();
  std::lock_guard<std::mutex> lock(mu_);
  file.pairs.reserve(pairs_.size());
  for (const LocationPair& pair : pairs_) {
    file.pairs.emplace_back(registry.Get(pair.first).Signature(),
                            registry.Get(pair.second).Signature());
  }
  return file;
}

void TrapSet::Import(const TrapFile& file) {
  const CallSiteRegistry& registry = CallSiteRegistry::Instance();
  // Memoize signature resolution: real trap files repeat the same hot signatures in
  // many pairs, and FindBySignature takes the registry lock per call.
  std::unordered_map<std::string, OpId> resolved;
  auto resolve = [&](const std::string& sig) {
    auto it = resolved.find(sig);
    if (it != resolved.end()) {
      return it->second;
    }
    const OpId id = registry.FindBySignature(sig);
    resolved.emplace(sig, id);
    return id;
  };

  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [sig_a, sig_b] : file.pairs) {
    const OpId a = resolve(sig_a);
    const OpId b = resolve(sig_b);
    if (a == kInvalidOp || b == kInvalidOp) {
      // The call site has not been interned in this process yet. In-process runs of
      // the same module always resolve because the registry is process-global; a
      // cross-process deployment would re-intern from the instrumenter's site list.
      continue;
    }
    if (a >= kMaxOps || b >= kMaxOps) {
      continue;
    }
    AddPairLocked(LocationPair(a, b));
  }
}

}  // namespace tsvd
