// Cache-line isolation helpers for runtime-touched shared state.
//
// Every struct the OnCall hot path writes must own its cache line(s) outright:
// two logically independent fields that share a 64-byte line turn into one
// physically shared line, and a store by one thread invalidates the copy every
// other core holds — the classic false-sharing wall that caps thread scaling.
//
// The audit convention: any struct placed in an array that multiple threads
// write carries `alignas(kCacheLineSize)` plus a `static_assert` on its size
// and alignment next to the definition, so a future field addition that spills
// a struct across an extra (shared) line fails the build instead of silently
// costing a ping-pong. std::hardware_destructive_interference_size is avoided
// on purpose: GCC warns that its value is ABI-unstable, and 64 is correct for
// every x86-64 and the common AArch64 parts this runtime targets.
#ifndef SRC_COMMON_PADDED_H_
#define SRC_COMMON_PADDED_H_

#include <cstddef>

namespace tsvd {

inline constexpr std::size_t kCacheLineSize = 64;

}  // namespace tsvd

#endif  // SRC_COMMON_PADDED_H_
