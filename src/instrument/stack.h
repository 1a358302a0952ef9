// Instrumented Stack<T> (C# System.Collections.Generic.Stack).
#ifndef SRC_INSTRUMENT_STACK_H_
#define SRC_INSTRUMENT_STACK_H_

#include <mutex>
#include <optional>
#include <source_location>
#include <vector>

#include "src/instrument/instrument.h"

namespace tsvd {

template <typename T>
class Stack : public Instrumented {
 public:
  using SrcLoc = std::source_location;

  Stack() = default;

  // ---- write set ----

  void Push(const T& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("Stack.Push");
    std::lock_guard<std::mutex> latch(latch_);
    items_.push_back(value);
  }

  std::optional<T> TryPop(const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("Stack.Pop");
    std::lock_guard<std::mutex> latch(latch_);
    if (items_.empty()) {
      return std::nullopt;
    }
    T value = std::move(items_.back());
    items_.pop_back();
    return value;
  }

  void Clear(const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("Stack.Clear");
    std::lock_guard<std::mutex> latch(latch_);
    items_.clear();
  }

  // ---- read set ----

  std::optional<T> Peek(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("Stack.Peek");
    std::lock_guard<std::mutex> latch(latch_);
    if (items_.empty()) {
      return std::nullopt;
    }
    return items_.back();
  }

  size_t Count(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("Stack.Count");
    std::lock_guard<std::mutex> latch(latch_);
    return items_.size();
  }

 private:
  mutable std::mutex latch_;
  std::vector<T> items_;
};

}  // namespace tsvd

#endif  // SRC_INSTRUMENT_STACK_H_
