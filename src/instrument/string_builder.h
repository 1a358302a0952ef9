// Instrumented StringBuilder (C# System.Text.StringBuilder): used by the
// Thunderstruck-style connection-string-buffer scenario of Table 4.
#ifndef SRC_INSTRUMENT_STRING_BUILDER_H_
#define SRC_INSTRUMENT_STRING_BUILDER_H_

#include <mutex>
#include <source_location>
#include <string>

#include "src/instrument/instrument.h"

namespace tsvd {

class StringBuilder : public Instrumented {
 public:
  using SrcLoc = std::source_location;

  StringBuilder() = default;

  // ---- write set ----

  void Append(const std::string& text, const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("StringBuilder.Append");
    std::lock_guard<std::mutex> latch(latch_);
    buffer_ += text;
  }

  void Clear(const SrcLoc& loc = SrcLoc::current()) {
    TSVD_WRITE("StringBuilder.Clear");
    std::lock_guard<std::mutex> latch(latch_);
    buffer_.clear();
  }

  // ---- read set ----

  std::string ToString(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("StringBuilder.ToString");
    std::lock_guard<std::mutex> latch(latch_);
    return buffer_;
  }

  size_t Length(const SrcLoc& loc = SrcLoc::current()) const {
    TSVD_READ("StringBuilder.Length");
    std::lock_guard<std::mutex> latch(latch_);
    return buffer_.size();
  }

 private:
  mutable std::mutex latch_;
  std::string buffer_;
};

}  // namespace tsvd

#endif  // SRC_INSTRUMENT_STRING_BUILDER_H_
