// Instrumented SortedSet<T> (C# System.Collections.Generic.SortedSet).
#ifndef SRC_INSTRUMENT_SORTED_SET_H_
#define SRC_INSTRUMENT_SORTED_SET_H_

#include <mutex>
#include <optional>
#include <set>
#include <source_location>
#include <vector>

#include "src/instrument/instrument.h"

namespace tsvd {

template <typename T>
class SortedSet : public Instrumented {
 public:
  using SrcLoc = std::source_location;

  SortedSet() = default;

  // ---- write set ----

  bool Add(const T& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("SortedSet.Add");
    std::lock_guard<std::mutex> latch(latch_);
    return set_.insert(value).second;
  }

  bool Remove(const T& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("SortedSet.Remove");
    std::lock_guard<std::mutex> latch(latch_);
    return set_.erase(value) > 0;
  }

  void Clear(const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("SortedSet.Clear");
    std::lock_guard<std::mutex> latch(latch_);
    set_.clear();
  }

  // ---- read set ----

  bool Contains(const T& value, const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("SortedSet.Contains");
    std::lock_guard<std::mutex> latch(latch_);
    return set_.contains(value);
  }

  std::optional<T> Min(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("SortedSet.Min");
    std::lock_guard<std::mutex> latch(latch_);
    if (set_.empty()) {
      return std::nullopt;
    }
    return *set_.begin();
  }

  std::optional<T> Max(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("SortedSet.Max");
    std::lock_guard<std::mutex> latch(latch_);
    if (set_.empty()) {
      return std::nullopt;
    }
    return *set_.rbegin();
  }

  size_t Count(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("SortedSet.Count");
    std::lock_guard<std::mutex> latch(latch_);
    return set_.size();
  }

  std::vector<T> ToVector(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("SortedSet.ToVector");
    std::lock_guard<std::mutex> latch(latch_);
    return std::vector<T>(set_.begin(), set_.end());
  }

 private:
  mutable std::mutex latch_;
  std::set<T> set_;
};

}  // namespace tsvd

#endif  // SRC_INSTRUMENT_SORTED_SET_H_
