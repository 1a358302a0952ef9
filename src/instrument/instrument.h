// Instrumentation entry point: the C++ analogue of TSVD's proxy methods (Fig. 7).
//
// The deployed instrumenter rewrites each call site of a thread-unsafe API into a
// proxy that calls OnCall(thread_id, obj_id, op_id) and then the original method. Here
// every instrumented container method takes a defaulted std::source_location that
// captures the *caller's* static program location; (file, line, api) is interned into
// a dense OpId with a per-thread memo, so the hot path is one direct-mapped cache
// probe; with no runtime installed it is one atomic load.
#ifndef SRC_INSTRUMENT_INSTRUMENT_H_
#define SRC_INSTRUMENT_INSTRUMENT_H_

#include <source_location>
#include <unordered_map>

#include "src/common/callsite.h"
#include "src/common/ids.h"
#include "src/core/runtime.h"

namespace tsvd {

namespace internal {

struct SiteKey {
  const char* file;
  uint32_t line;
  const char* api;

  bool operator==(const SiteKey&) const = default;
};

struct SiteKeyHash {
  size_t operator()(const SiteKey& k) const {
    size_t h = reinterpret_cast<size_t>(k.file);
    h = h * 0x9e3779b97f4a7c15ULL + k.line;
    h = h * 0x9e3779b97f4a7c15ULL + reinterpret_cast<size_t>(k.api);
    return h;
  }
};

// Thread-local memo: interning proper takes a global lock and builds a key string;
// each thread pays that once per static call site. In front of the memo map sits a
// direct-mapped cache of recently seen sites, so the common repeat call is one
// multiply, one slot compare and no hashing into the map; a miss or a collision
// falls through to the map and takes the slot over.
inline OpId InternCached(const std::source_location& loc, const char* api, OpKind kind) {
  struct RecentSite {
    SiteKey key;
    OpId id;
  };
  // 256 slots, indexed by the top 8 bits of a Fibonacci hash (the top bits of the
  // product mix every input bit). Constant-initialized (a null file marks an empty
  // slot; a real site always has a file name), so reaching it needs no TLS guard.
  thread_local RecentSite recent[256] = {};

  const SiteKey key{loc.file_name(), loc.line(), api};
  RecentSite& slot = recent[(SiteKeyHash{}(key) * 0x9e3779b97f4a7c15ULL) >> 56];
  if (slot.key == key) {
    return slot.id;
  }

  thread_local std::unordered_map<SiteKey, OpId, SiteKeyHash> cache;
  auto it = cache.find(key);
  OpId id;
  if (it != cache.end()) {
    id = it->second;
  } else {
    id = CallSiteRegistry::Instance().Intern(loc, api, kind);
    cache.emplace(key, id);
  }
  slot = RecentSite{key, id};
  return id;
}

}  // namespace internal

// Reports one dynamic execution of a TSVD point. No-op when no runtime is installed
// (the uninstrumented baseline). `handle` is the object's near-miss handle, if it
// has one.
inline void InstrumentPoint(const void* obj, const char* api, OpKind kind,
                            const std::source_location& loc,
                            NearMissHandle* handle = nullptr) {
  Runtime* rt = Runtime::Current();
  if (rt == nullptr) {
    return;
  }
  rt->OnCall(ObjectIdOf(obj), internal::InternCached(loc, api, kind), kind, handle);
}

// Base of every instrumented container: the container's handle to its near-miss
// history, which the tracker keeps pointing at the object's block so that repeat
// accesses skip the object index (nearmiss_tracker.h). Mutable, because read-only
// container methods are TSVD points too.
class Instrumented {
 protected:
  mutable NearMissHandle nearmiss_handle_{0};
};

}  // namespace tsvd

// Convenience used inside instrumented container methods, which all take a trailing
// `const std::source_location& loc = std::source_location::current()` parameter.
#define TSVD_READ(api)                                                      \
  ::tsvd::InstrumentPoint(this, api, ::tsvd::OpKind::kRead, loc,            \
                          &this->nearmiss_handle_)
#define TSVD_WRITE(api)                                                     \
  ::tsvd::InstrumentPoint(this, api, ::tsvd::OpKind::kWrite, loc,           \
                          &this->nearmiss_handle_)

#endif  // SRC_INSTRUMENT_INSTRUMENT_H_
