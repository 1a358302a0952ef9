// Instrumented Queue<T> (C# System.Collections.Generic.Queue).
#ifndef SRC_INSTRUMENT_QUEUE_H_
#define SRC_INSTRUMENT_QUEUE_H_

#include <deque>
#include <mutex>
#include <optional>
#include <source_location>

#include "src/instrument/instrument.h"

namespace tsvd {

template <typename T>
class Queue : public Instrumented {
 public:
  using SrcLoc = std::source_location;

  Queue() = default;

  // ---- write set ----

  void Enqueue(const T& value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("Queue.Enqueue");
    std::lock_guard<std::mutex> latch(latch_);
    items_.push_back(value);
  }

  // C# Queue.Dequeue throws on empty; the Try variant mirrors common guard usage.
  std::optional<T> TryDequeue(const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("Queue.Dequeue");
    std::lock_guard<std::mutex> latch(latch_);
    if (items_.empty()) {
      return std::nullopt;
    }
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  void Clear(const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("Queue.Clear");
    std::lock_guard<std::mutex> latch(latch_);
    items_.clear();
  }

  // ---- read set ----

  std::optional<T> Peek(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("Queue.Peek");
    std::lock_guard<std::mutex> latch(latch_);
    if (items_.empty()) {
      return std::nullopt;
    }
    return items_.front();
  }

  size_t Count(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("Queue.Count");
    std::lock_guard<std::mutex> latch(latch_);
    return items_.size();
  }

 private:
  mutable std::mutex latch_;
  std::deque<T> items_;
};

}  // namespace tsvd

#endif  // SRC_INSTRUMENT_QUEUE_H_
