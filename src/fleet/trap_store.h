// The coordinator's trap-store service (DESIGN.md §13).
//
// The fleet-wide trap store is the distributed form of the campaign's between-round
// trap carry-over (PAPER.md §3.4.6): agents publish the near-miss pairs each run
// learned, the coordinator merges them monotonically (union + canonical order, via
// TrapFile), and agents fetch the merged store before their next run.
//
// TrapStoreService is the in-memory versioned store the coordinator serves over the
// transport. Versions advance only at round boundaries, so every job of a round
// imports the same snapshot — the exact semantics of the single-process campaign's
// per-round `imported` copy, which the fleet's bug-set-equality contract depends
// on. The version lets agents cache: a lease response carries the serialized store
// only when the agent's cached version is stale.
#ifndef SRC_FLEET_TRAP_STORE_H_
#define SRC_FLEET_TRAP_STORE_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "src/report/trap_file.h"

namespace tsvd::fleet {

class TrapStoreService {
 public:
  // The current canonical store and its version. Thread-safe.
  TrapFile Snapshot(uint64_t* version = nullptr) const;
  uint64_t version() const;

  // When `have_version` is stale, stores the current version and the serialized
  // store and returns true; when the caller is already current, returns false and
  // touches nothing.
  bool SerializeIfStale(uint64_t have_version, uint64_t* version,
                        std::string* text) const;

  // Seeds the store from a resumed campaign's merged traps without bumping the
  // version. Call before serving.
  void Restore(TrapFile initial);

  // Round boundary: merges the round's learned pairs and bumps the version if
  // the store grew. Returns the store size after the merge.
  size_t CommitRound(const TrapFile& round_traps);

 private:
  mutable std::mutex mu_;
  TrapFile store_;
  uint64_t version_ = 1;
};

}  // namespace tsvd::fleet

#endif  // SRC_FLEET_TRAP_STORE_H_
