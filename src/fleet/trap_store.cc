#include "src/fleet/trap_store.h"

#include <utility>

namespace tsvd::fleet {

TrapFile TrapStoreService::Snapshot(uint64_t* version) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (version != nullptr) {
    *version = version_;
  }
  return store_;
}

uint64_t TrapStoreService::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

bool TrapStoreService::SerializeIfStale(uint64_t have_version, uint64_t* version,
                                        std::string* text) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (have_version == version_) {
    return false;
  }
  if (version != nullptr) {
    *version = version_;
  }
  if (text != nullptr) {
    *text = store_.Serialize();
  }
  return true;
}

void TrapStoreService::Restore(TrapFile initial) {
  std::lock_guard<std::mutex> lock(mu_);
  store_ = std::move(initial);
  store_.Canonicalize();
}

size_t TrapStoreService::CommitRound(const TrapFile& round_traps) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t before = store_.size();
  store_.Merge(round_traps);
  if (store_.size() != before) {
    ++version_;
  }
  return store_.size();
}

}  // namespace tsvd::fleet
