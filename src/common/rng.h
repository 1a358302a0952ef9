// Deterministic, cheap pseudo-random number generation.
//
// Every probabilistic decision in the detectors (should_delay sampling, decay draws,
// random delay lengths) and the workload generator flows through SplitMix64 so entire
// experiments are reproducible from a single seed.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>

namespace tsvd {

// One SplitMix64 step: advances *state and returns the next draw. Tiny, fast, and
// passes BigCrush for this purpose. Code that keeps a bare seed state (the storage
// and network fault schedules, the fleet agent's retry jitter) steps it with this.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// True with `probability`, decided by one draw (its top 53 bits as a uniform double
// in [0, 1)). A probability <= 0 is false whatever the draw; the fault schedules
// draw anyway, so the position of every later decision in their stream does not
// depend on which faults the spec enables.
inline bool FlipDraw(uint64_t draw, double probability) {
  if (probability <= 0.0) {
    return false;
  }
  return static_cast<double>(draw >> 11) * 0x1.0p-53 < probability;
}

// A SplitMix64 stream. Not thread-safe; use one instance per thread or guard
// externally.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) : state_(seed) {}

  uint64_t Next() { return SplitMix64(&state_); }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  // Uniform integer in [0, bound); returns 0 for an empty range.
  uint64_t NextBelow(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

  // Uniform integer in [lo, hi]; returns lo when the range is empty or inverted.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    if (hi <= lo) {
      return lo;
    }
    return lo + static_cast<int64_t>(NextBelow(static_cast<uint64_t>(hi - lo + 1)));
  }

  bool NextBool(double probability) { return NextDouble() < probability; }

  // Derives an independent child generator; used to give each module / thread its own
  // stream from one experiment seed.
  Rng Fork() { return Rng(Next() ^ 0xa5a5a5a5deadbeefULL); }

 private:
  uint64_t state_;
};

}  // namespace tsvd

#endif  // SRC_COMMON_RNG_H_
