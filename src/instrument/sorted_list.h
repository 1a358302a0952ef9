// Instrumented SortedList<K,V> (C# System.Collections.Generic.SortedList).
#ifndef SRC_INSTRUMENT_SORTED_LIST_H_
#define SRC_INSTRUMENT_SORTED_LIST_H_

#include <map>
#include <mutex>
#include <source_location>
#include <stdexcept>
#include <vector>

#include "src/instrument/instrument.h"

namespace tsvd {

template <typename K, typename V>
class SortedList : public Instrumented {
 public:
  using SrcLoc = std::source_location;

  SortedList() = default;

  // ---- write set ----

  void Add(const K& key, const V& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("SortedList.Add");
    std::lock_guard<std::mutex> latch(latch_);
    if (!map_.emplace(key, value).second) {
      throw std::invalid_argument("SortedList.Add: key already present");
    }
  }

  void Set(const K& key, const V& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("SortedList.Set");
    std::lock_guard<std::mutex> latch(latch_);
    map_[key] = value;
  }

  bool Remove(const K& key, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("SortedList.Remove");
    std::lock_guard<std::mutex> latch(latch_);
    return map_.erase(key) > 0;
  }

  // ---- read set ----

  bool ContainsKey(const K& key, const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("SortedList.ContainsKey");
    std::lock_guard<std::mutex> latch(latch_);
    return map_.contains(key);
  }

  V Get(const K& key, const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("SortedList.Get");
    std::lock_guard<std::mutex> latch(latch_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      throw std::out_of_range("SortedList.Get: key not found");
    }
    return it->second;
  }

  size_t Count(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("SortedList.Count");
    std::lock_guard<std::mutex> latch(latch_);
    return map_.size();
  }

  std::vector<K> Keys(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("SortedList.Keys");
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
  std::map<K, V> map_;
};

}  // namespace tsvd

#endif  // SRC_INSTRUMENT_SORTED_LIST_H_
