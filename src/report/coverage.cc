#include "src/report/coverage.h"

#include <sstream>

#include "src/common/callsite.h"

namespace tsvd {

size_t CoverageTracker::PointsHit() const {
  size_t n = 0;
  ForEachHit([&n](OpId, uint64_t, uint64_t) { ++n; });
  return n;
}

size_t CoverageTracker::PointsHitConcurrently() const {
  size_t n = 0;
  ForEachHit([&n](OpId, uint64_t, uint64_t concurrent) {
    if (concurrent > 0) {
      ++n;
    }
  });
  return n;
}

std::vector<OpId> CoverageTracker::SequentialOnlyPoints() const {
  std::vector<OpId> out;
  ForEachHit([&out](OpId op, uint64_t, uint64_t concurrent) {
    if (concurrent == 0) {
      out.push_back(op);
    }
  });
  return out;
}

CoverageTracker::Entry CoverageTracker::Lookup(OpId op) const {
  Entry entry;
  for (const Lane& lane : lanes_) {
    const Cell* cell = lane.Peek(op);
    if (cell == nullptr) {
      continue;
    }
    const uint64_t packed = cell->packed.load(std::memory_order_relaxed);
    entry.hits += HitsOf(packed);
    entry.concurrent_hits += ConcurrentOf(packed);
  }
  return entry;
}

std::string CoverageTracker::Render() const {
  std::ostringstream out;
  out << "instrumented points hit: " << PointsHit() << "\n";
  ForEachHit([&out](OpId op, uint64_t hits, uint64_t concurrent) {
    const CallSite& site = CallSiteRegistry::Instance().Get(op);
    out << "  " << site.Signature() << "  hits=" << hits
        << " concurrent=" << concurrent;
    if (concurrent == 0) {
      out << "  [sequential-only]";
    }
    out << "\n";
  });
  return out.str();
}

}  // namespace tsvd
