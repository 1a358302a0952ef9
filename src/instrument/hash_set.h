// Instrumented HashSet<T> (C# System.Collections.Generic.HashSet).
#ifndef SRC_INSTRUMENT_HASH_SET_H_
#define SRC_INSTRUMENT_HASH_SET_H_

#include <mutex>
#include <source_location>
#include <unordered_set>
#include <vector>

#include "src/instrument/instrument.h"

namespace tsvd {

template <typename T>
class HashSet : public Instrumented {
 public:
  using SrcLoc = std::source_location;

  HashSet() = default;

  // ---- write set ----

  bool Add(const T& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("HashSet.Add");
    std::lock_guard<std::mutex> latch(latch_);
    return set_.insert(value).second;
  }

  bool Remove(const T& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("HashSet.Remove");
    std::lock_guard<std::mutex> latch(latch_);
    return set_.erase(value) > 0;
  }

  void Clear(const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("HashSet.Clear");
    std::lock_guard<std::mutex> latch(latch_);
    set_.clear();
  }

  void UnionWith(const std::vector<T>& other, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("HashSet.UnionWith");
    std::lock_guard<std::mutex> latch(latch_);
    set_.insert(other.begin(), other.end());
  }

  // ---- read set ----

  bool Contains(const T& value, const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("HashSet.Contains");
    std::lock_guard<std::mutex> latch(latch_);
    return set_.contains(value);
  }

  size_t Count(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("HashSet.Count");
    std::lock_guard<std::mutex> latch(latch_);
    return set_.size();
  }

 private:
  mutable std::mutex latch_;
  std::unordered_set<T> set_;
};

}  // namespace tsvd

#endif  // SRC_INSTRUMENT_HASH_SET_H_
