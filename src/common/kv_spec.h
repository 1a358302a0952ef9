// The comma-separated key=value grammar of the fault-schedule specs: storage
// chaos (src/io/chaos_fs.h) and network chaos (src/fleet/chaos_transport.h).
//
//   "seed=7,drop_send=0.1,delay_ms=5"
//
// Empty items are skipped; an item without '=' is refused. Both specs share this
// splitter and the two value parsers below, so their grammar cannot drift.
#ifndef SRC_COMMON_KV_SPEC_H_
#define SRC_COMMON_KV_SPEC_H_

#include <cstdint>
#include <cstdlib>
#include <string>

namespace tsvd {

// A probability in [0, 1].
inline bool ParseProbability(const std::string& value, double* out) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
    return false;
  }
  *out = p;
  return true;
}

// A non-negative base-10 integer.
inline bool ParseNonNegative(const std::string& value, int64_t* out) {
  char* end = nullptr;
  const long long n = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || n < 0) {
    return false;
  }
  *out = n;
  return true;
}

// Hands each item of `text` to apply(key, value), which returns "" to accept it or
// why it is refused. Every error names the spec: "<what> item \"x\" is not
// key=value" or "<what>: <why>".
template <class Apply>
bool ParseKeyValueSpec(const std::string& text, const std::string& what,
                       std::string* error, Apply&& apply) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) {
      comma = text.size();
    }
    const std::string item = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) {
      continue;
    }
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      *error = what + " item \"" + item + "\" is not key=value";
      return false;
    }
    const std::string why = apply(item.substr(0, eq), item.substr(eq + 1));
    if (!why.empty()) {
      *error = what + ": " + why;
      return false;
    }
  }
  return true;
}

}  // namespace tsvd

#endif  // SRC_COMMON_KV_SPEC_H_
