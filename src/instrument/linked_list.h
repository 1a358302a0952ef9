// Instrumented LinkedList<T> (C# System.Collections.Generic.LinkedList).
#ifndef SRC_INSTRUMENT_LINKED_LIST_H_
#define SRC_INSTRUMENT_LINKED_LIST_H_

#include <algorithm>
#include <list>
#include <mutex>
#include <optional>
#include <source_location>

#include "src/instrument/instrument.h"

namespace tsvd {

template <typename T>
class LinkedList : public Instrumented {
 public:
  using SrcLoc = std::source_location;

  LinkedList() = default;

  // ---- write set ----

  void AddFirst(const T& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("LinkedList.AddFirst");
    std::lock_guard<std::mutex> latch(latch_);
    items_.push_front(value);
  }

  void AddLast(const T& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("LinkedList.AddLast");
    std::lock_guard<std::mutex> latch(latch_);
    items_.push_back(value);
  }

  bool Remove(const T& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("LinkedList.Remove");
    std::lock_guard<std::mutex> latch(latch_);
    auto it = std::find(items_.begin(), items_.end(), value);
    if (it == items_.end()) {
      return false;
    }
    items_.erase(it);
    return true;
  }

  std::optional<T> RemoveFirst(const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("LinkedList.RemoveFirst");
    std::lock_guard<std::mutex> latch(latch_);
    if (items_.empty()) {
      return std::nullopt;
    }
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  void Clear(const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("LinkedList.Clear");
    std::lock_guard<std::mutex> latch(latch_);
    items_.clear();
  }

  // ---- read set ----

  std::optional<T> First(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("LinkedList.First");
    std::lock_guard<std::mutex> latch(latch_);
    if (items_.empty()) {
      return std::nullopt;
    }
    return items_.front();
  }

  bool Contains(const T& value, const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("LinkedList.Contains");
    std::lock_guard<std::mutex> latch(latch_);
    return std::find(items_.begin(), items_.end(), value) != items_.end();
  }

  size_t Count(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("LinkedList.Count");
    std::lock_guard<std::mutex> latch(latch_);
    return items_.size();
  }

 private:
  mutable std::mutex latch_;
  std::list<T> items_;
};

}  // namespace tsvd

#endif  // SRC_INSTRUMENT_LINKED_LIST_H_
