// The delay engine's per-run counters (src/core/delay_engine.h).
//
// One struct carries them through every hop: RunSummary (in-process run, filled by
// Runtime::Summary), RunOutcome (sandbox pipe, journal, fleet wire) and RoundStats
// (journal round record, campaign JSON). Each of those derives from DelayCounts, so
// a counter added here — member plus its VisitFields line — is copied, summed,
// encoded and decoded everywhere after Runtime::Summary without further edits.
#ifndef SRC_REPORT_DELAY_COUNTS_H_
#define SRC_REPORT_DELAY_COUNTS_H_

#include <cstdint>

namespace tsvd {

struct DelayCounts {
  uint64_t delays_injected = 0;
  // Trapped threads released the moment their trap was sprung.
  uint64_t delays_early_woken = 0;
  // Delays the progress sentinel cancelled to unstall the run.
  uint64_t delays_aborted_stall = 0;
  // Delays never injected because a budget or the overhead cap said no.
  uint64_t delays_skipped_budget = 0;

  // The field list (src/campaign/json.h): wire name and member, once.
  template <class V, class... R>
  static void VisitFields(V&& visit, R&... r) {
    visit("delays_injected", r.delays_injected...);
    visit("delays_early_woken", r.delays_early_woken...);
    visit("delays_aborted_stall", r.delays_aborted_stall...);
    visit("delays_skipped_budget", r.delays_skipped_budget...);
  }

  void Add(const DelayCounts& other) {
    VisitFields([](const char*, uint64_t& sum, uint64_t n) { sum += n; }, *this, other);
  }
};

}  // namespace tsvd

#endif  // SRC_REPORT_DELAY_COUNTS_H_
