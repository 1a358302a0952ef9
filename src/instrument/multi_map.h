// Instrumented MultiMap<K,V>: the C# Lookup/grouped-dictionary shape (one key, many
// values) that backs event-handler registries and routing tables.
#ifndef SRC_INSTRUMENT_MULTI_MAP_H_
#define SRC_INSTRUMENT_MULTI_MAP_H_

#include <mutex>
#include <source_location>
#include <unordered_map>
#include <vector>

#include "src/instrument/instrument.h"

namespace tsvd {

template <typename K, typename V>
class MultiMap : public Instrumented {
 public:
  using SrcLoc = std::source_location;

  MultiMap() = default;

  // ---- write set ----

  void Add(const K& key, const V& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("MultiMap.Add");
    std::lock_guard<std::mutex> latch(latch_);
    map_[key].push_back(value);
  }

  bool RemoveKey(const K& key, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("MultiMap.RemoveKey");
    std::lock_guard<std::mutex> latch(latch_);
    return map_.erase(key) > 0;
  }

  void Clear(const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("MultiMap.Clear");
    std::lock_guard<std::mutex> latch(latch_);
    map_.clear();
  }

  // ---- read set ----

  std::vector<V> Get(const K& key, const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("MultiMap.Get");
    std::lock_guard<std::mutex> latch(latch_);
    auto it = map_.find(key);
    return it == map_.end() ? std::vector<V>{} : it->second;
  }

  bool ContainsKey(const K& key, const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("MultiMap.ContainsKey");
    std::lock_guard<std::mutex> latch(latch_);
    return map_.contains(key);
  }

  size_t KeyCount(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("MultiMap.KeyCount");
    std::lock_guard<std::mutex> latch(latch_);
    return map_.size();
  }

 private:
  mutable std::mutex latch_;
  std::unordered_map<K, std::vector<V>> map_;
};

}  // namespace tsvd

#endif  // SRC_INSTRUMENT_MULTI_MAP_H_
