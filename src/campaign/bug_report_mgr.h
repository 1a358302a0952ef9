// Centralized cross-run bug deduplication (the campaign's answer to the paper's
// fleet-side report pipeline).
//
// Every run's violations funnel into one BugReportMgr. Identity is hierarchical:
//   unique bug        = canonical (signature, signature) pair — the paper's
//                       "unique bugs (location pairs)" count, stable across runs
//                       because signatures, unlike OpIds, survive re-interning;
//   manifestation     = (pair, stack digest) — distinct stack-trace pairs of one bug
//                       (the paper observes 18.5 per bug, Section 5.2).
// Ingest deduplicates at both levels; rendering is deterministic (bugs sorted by
// signature) so same-seed campaigns emit identical artifacts.
#ifndef SRC_CAMPAIGN_BUG_REPORT_MGR_H_
#define SRC_CAMPAIGN_BUG_REPORT_MGR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/campaign/round.h"

namespace tsvd::campaign {

class BugReportMgr {
 public:
  struct UniqueBug {
    std::string sig_first;   // canonical: sig_first <= sig_second
    std::string sig_second;
    std::string api_first;
    std::string api_second;
    std::set<std::string> modules;       // every module the pair was caught in
    std::set<uint64_t> stack_digests;    // distinct manifestations
    int first_round = 0;                 // round where the pair was first caught
    uint64_t occurrences = 0;            // raw reports before any dedupe
    bool read_write = false;
    bool same_location = false;
    bool async_flavor = false;

    // The field list of the journal's dedup snapshot (src/campaign/json.h).
    template <class V, class... R>
    static void VisitFields(V&& visit, R&... r) {
      visit("sig_first", r.sig_first...);
      visit("sig_second", r.sig_second...);
      visit("api_first", r.api_first...);
      visit("api_second", r.api_second...);
      visit("modules", r.modules...);
      visit("stack_digests", r.stack_digests...);
      visit("first_round", r.first_round...);
      visit("occurrences", r.occurrences...);
      visit("read_write", r.read_write...);
      visit("same_location", r.same_location...);
      visit("async_flavor", r.async_flavor...);
    }
  };

  // Thread-safe. Returns true iff the observation introduced a NEW unique bug (its
  // pair signature was unseen) — the signal round convergence is computed from.
  bool Ingest(const BugObservation& observation);

  // Snapshot sorted by (sig_first, sig_second): deterministic across runs.
  std::vector<UniqueBug> Bugs() const;

  // Replaces the manager's state with a prior Bugs() snapshot — the resume path's
  // journal-snapshot restore. Ingest picks up exactly where the snapshot left off.
  void Restore(std::vector<UniqueBug> bugs);

  uint64_t UniqueBugCount() const;
  uint64_t ManifestationCount() const;  // distinct (pair, stack digest)
  uint64_t OccurrenceCount() const;     // raw reports ingested

 private:
  using PairKey = std::pair<std::string, std::string>;

  mutable std::mutex mu_;
  std::map<PairKey, UniqueBug> bugs_;  // ordered => deterministic iteration
};

}  // namespace tsvd::campaign

#endif  // SRC_CAMPAIGN_BUG_REPORT_MGR_H_
