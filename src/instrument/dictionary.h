// Instrumented Dictionary<K,V>: the C# System.Collections.Generic.Dictionary analogue
// and, per Table 1, the class involved in 55% of all bugs TSVD found.
//
// Thread-safety contract: reads (ContainsKey, TryGetValue, Get, Count) may run
// concurrently; writes (Add, Set, Remove, Clear) require exclusivity. Violations are
// *detected* at the OnCall layer; the raw operation afterwards is serialized on an
// internal latch so that a detected violation corrupts nothing — a C# Dictionary
// survives what would be UB for an unguarded std::unordered_map. The latch exists in
// baseline runs too, so overhead comparisons are apples-to-apples.
#ifndef SRC_INSTRUMENT_DICTIONARY_H_
#define SRC_INSTRUMENT_DICTIONARY_H_

#include <mutex>
#include <optional>
#include <source_location>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/instrument/instrument.h"

namespace tsvd {

template <typename K, typename V>
class Dictionary : public Instrumented {
 public:
  using SrcLoc = std::source_location;

  Dictionary() = default;

  // ---- write set ----

  // Adds key -> value; throws if the key exists (C# Dictionary.Add semantics).
  void Add(const K& key, const V& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("Dictionary.Add");
    std::lock_guard<std::mutex> latch(latch_);
    if (!map_.emplace(key, value).second) {
      throw std::invalid_argument("Dictionary.Add: key already present");
    }
  }

  // Indexer set: inserts or overwrites.
  void Set(const K& key, const V& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("Dictionary.Set");
    std::lock_guard<std::mutex> latch(latch_);
    map_[key] = value;
  }

  bool Remove(const K& key, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("Dictionary.Remove");
    std::lock_guard<std::mutex> latch(latch_);
    return map_.erase(key) > 0;
  }

  void Clear(const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("Dictionary.Clear");
    std::lock_guard<std::mutex> latch(latch_);
    map_.clear();
  }

  // ---- read set ----

  bool ContainsKey(const K& key, const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("Dictionary.ContainsKey");
    std::lock_guard<std::mutex> latch(latch_);
    return map_.contains(key);
  }

  // Indexer get: throws if absent.
  V Get(const K& key, const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("Dictionary.Get");
    std::lock_guard<std::mutex> latch(latch_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      throw std::out_of_range("Dictionary.Get: key not found");
    }
    return it->second;
  }

  bool TryGetValue(const K& key, V* out, const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("Dictionary.TryGetValue");
    std::lock_guard<std::mutex> latch(latch_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      return false;
    }
    *out = it->second;
    return true;
  }

  size_t Count(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("Dictionary.Count");
    std::lock_guard<std::mutex> latch(latch_);
    return map_.size();
  }

  std::vector<K> Keys(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("Dictionary.Keys");
    std::lock_guard<std::mutex> latch(latch_);
    std::vector<K> keys;
    keys.reserve(map_.size());
    for (const auto& [k, v] : map_) {
      keys.push_back(k);
    }
    return keys;
  }

 private:
  mutable std::mutex latch_;
  std::unordered_map<K, V> map_;
};

}  // namespace tsvd

#endif  // SRC_INSTRUMENT_DICTIONARY_H_
