// Instrumented List<T> (C# System.Collections.Generic.List): involved in 37% of the
// bugs of Table 1, including the production-incident concurrent Sort of Section 5.6.
#ifndef SRC_INSTRUMENT_LIST_H_
#define SRC_INSTRUMENT_LIST_H_

#include <algorithm>
#include <mutex>
#include <source_location>
#include <stdexcept>
#include <vector>

#include "src/instrument/instrument.h"

namespace tsvd {

template <typename T>
class List : public Instrumented {
 public:
  using SrcLoc = std::source_location;

  List() = default;

  // ---- write set ----

  void Add(const T& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("List.Add");
    std::lock_guard<std::mutex> latch(latch_);
    items_.push_back(value);
  }

  void Insert(size_t index, const T& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("List.Insert");
    std::lock_guard<std::mutex> latch(latch_);
    if (index > items_.size()) {
      throw std::out_of_range("List.Insert: index out of range");
    }
    items_.insert(items_.begin() + index, value);
  }

  bool Remove(const T& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("List.Remove");
    std::lock_guard<std::mutex> latch(latch_);
    auto it = std::find(items_.begin(), items_.end(), value);
    if (it == items_.end()) {
      return false;
    }
    items_.erase(it);
    return true;
  }

  void RemoveAt(size_t index, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("List.RemoveAt");
    std::lock_guard<std::mutex> latch(latch_);
    if (index >= items_.size()) {
      throw std::out_of_range("List.RemoveAt: index out of range");
    }
    items_.erase(items_.begin() + index);
  }

  void Clear(const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("List.Clear");
    std::lock_guard<std::mutex> latch(latch_);
    items_.clear();
  }

  void Sort(const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("List.Sort");
    std::lock_guard<std::mutex> latch(latch_);
    std::sort(items_.begin(), items_.end());
  }

  void Reverse(const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("List.Reverse");
    std::lock_guard<std::mutex> latch(latch_);
    std::reverse(items_.begin(), items_.end());
  }

  void Set(size_t index, const T& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("List.Set");
    std::lock_guard<std::mutex> latch(latch_);
    if (index >= items_.size()) {
      throw std::out_of_range("List.Set: index out of range");
    }
    items_[index] = value;
  }

  // ---- read set ----

  T Get(size_t index, const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("List.Get");
    std::lock_guard<std::mutex> latch(latch_);
    if (index >= items_.size()) {
      throw std::out_of_range("List.Get: index out of range");
    }
    return items_[index];
  }

  bool Contains(const T& value, const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("List.Contains");
    std::lock_guard<std::mutex> latch(latch_);
    return std::find(items_.begin(), items_.end(), value) != items_.end();
  }

  ptrdiff_t IndexOf(const T& value, const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("List.IndexOf");
    std::lock_guard<std::mutex> latch(latch_);
    auto it = std::find(items_.begin(), items_.end(), value);
    return it == items_.end() ? -1 : it - items_.begin();
  }

  size_t Count(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("List.Count");
    std::lock_guard<std::mutex> latch(latch_);
    return items_.size();
  }

  std::vector<T> ToVector(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("List.ToVector");
    std::lock_guard<std::mutex> latch(latch_);
    return items_;
  }

 private:
  mutable std::mutex latch_;
  std::vector<T> items_;
};

}  // namespace tsvd

#endif  // SRC_INSTRUMENT_LIST_H_
