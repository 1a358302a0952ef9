// Instrumented BitArray (C# System.Collections.BitArray): fixed-length bit vector
// whose element writes are not atomic — a classic source of "it's just one bit, it
// must be thread safe" violations.
#ifndef SRC_INSTRUMENT_BIT_ARRAY_H_
#define SRC_INSTRUMENT_BIT_ARRAY_H_

#include <mutex>
#include <source_location>
#include <stdexcept>
#include <vector>

#include "src/instrument/instrument.h"

namespace tsvd {

class BitArray : public Instrumented {
 public:
  using SrcLoc = std::source_location;

  explicit BitArray(size_t length) : bits_(length, false) {}

  // ---- write set ----

  void Set(size_t index, bool value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("BitArray.Set");
    std::lock_guard<std::mutex> latch(latch_);
    CheckIndex(index);
    bits_[index] = value;
  }

  void SetAll(bool value, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("BitArray.SetAll");
    std::lock_guard<std::mutex> latch(latch_);
    bits_.assign(bits_.size(), value);
  }

  void Not(const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("BitArray.Not");
    std::lock_guard<std::mutex> latch(latch_);
    for (size_t i = 0; i < bits_.size(); ++i) {
      bits_[i] = !bits_[i];
    }
  }

  // ---- read set ----

  bool Get(size_t index, const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("BitArray.Get");
    std::lock_guard<std::mutex> latch(latch_);
    CheckIndex(index);
    return bits_[index];
  }

  size_t PopCount(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("BitArray.PopCount");
    std::lock_guard<std::mutex> latch(latch_);
    size_t n = 0;
    for (const bool b : bits_) {
      n += b ? 1 : 0;
    }
    return n;
  }

  size_t Length(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("BitArray.Length");
    std::lock_guard<std::mutex> latch(latch_);
    return bits_.size();
  }

 private:
  void CheckIndex(size_t index) const {
    if (index >= bits_.size()) {
      throw std::out_of_range("BitArray: index out of range");
    }
  }

  mutable std::mutex latch_;
  std::vector<bool> bits_;
};

}  // namespace tsvd

#endif  // SRC_INSTRUMENT_BIT_ARRAY_H_
