#include "src/core/nearmiss_tracker.h"

#include <algorithm>
#include <new>
#include <thread>

namespace tsvd {

namespace {

// Initial index size. Trackers are built per Runtime (one per test module), and
// most see a few dozen objects, so the index starts small and grows.
constexpr size_t kInitialIndexSlots = 64;
// Blocks allocated per pool chunk.
constexpr size_t kChunkBlocks = 32;

}  // namespace

void NearMissTracker::Block::Lock() {
  // Contention exists only between threads touching the same object at once; spin
  // briefly, then yield so an oversubscribed holder gets to run.
  int spins = 0;
  while (locked.exchange(true, std::memory_order_acquire)) {
    while (locked.load(std::memory_order_relaxed)) {
      if (++spins > 64) {
        std::this_thread::yield();
      }
    }
  }
}

NearMissTracker::NearMissTracker(const Config& config)
    : window_us_(config.disable_nearmiss_window ? -1 : config.nearmiss_window_us),
      history_(config.disable_nearmiss_window ? config.nearmiss_history_unwindowed
                                              : config.nearmiss_history) {
  // The ring needs at least one slot and must fit the inline conflict buffer.
  history_ = std::clamp(history_, 1, kMaxHistory);
  block_lines_ = (sizeof(Block) + history_ * sizeof(Record) + kCacheLineSize - 1) /
                 kCacheLineSize;
  indexes_.push_back(std::make_unique<Index>(kInitialIndexSlots));
  index_.store(indexes_.back().get(), std::memory_order_release);
}

NearMissTracker::Block* NearMissTracker::Find(const Index& index, ObjectId obj) {
  // Bounded so that a probe racing a rewrite of the table cannot spin; a miss only
  // sends the caller to the locked path.
  size_t i = Mix64(obj) & index.mask;
  for (size_t probes = 0; probes <= index.mask; ++probes, i = (i + 1) & index.mask) {
    const Slot& slot = index.slots[i];
    Block* block = slot.block.load(std::memory_order_acquire);
    if (block == nullptr || slot.key.load(std::memory_order_relaxed) == obj) {
      return block;
    }
  }
  return nullptr;
}

void NearMissTracker::Place(Index& index, ObjectId obj, Block* block) {
  size_t i = Mix64(obj) & index.mask;
  while (index.slots[i].block.load(std::memory_order_relaxed) != nullptr) {
    i = (i + 1) & index.mask;
  }
  index.slots[i].key.store(obj, std::memory_order_relaxed);
  index.slots[i].block.store(block, std::memory_order_release);
}

NearMissTracker::Block* NearMissTracker::Resolve(uint32_t number) {
  const size_t b = number - 1;
  const std::atomic<Line*>* chunk = chunk_table_.Peek(b / kChunkBlocks);
  // Acquire pairs with the release that published the chunk's constructed blocks.
  Line* lines = chunk == nullptr ? nullptr : chunk->load(std::memory_order_acquire);
  if (lines == nullptr) {
    return nullptr;
  }
  return std::launder(
      reinterpret_cast<Block*>(&lines[(b % kChunkBlocks) * block_lines_]));
}

NearMissTracker::Block* NearMissTracker::LockIfOwner(Block* block, ObjectId obj) {
  if (block == nullptr) {
    return nullptr;
  }
  block->Lock();
  if (!block->Owns(obj)) {
    block->Unlock();  // swept and reused since the handle or index entry was written
    return nullptr;
  }
  return block;
}

void NearMissTracker::RecordAndFindConflicts(const Access& access, ConflictBuffer& out) {
  // The object's handle names its block without an index probe. A first access,
  // a caller without a handle and a stale handle fall back to the index, then to
  // the locked path.
  const uint32_t number =
      access.handle != nullptr ? access.handle->load(std::memory_order_relaxed) : 0;
  Block* block = number != 0 ? LockIfOwner(Resolve(number), access.obj) : nullptr;
  if (block == nullptr) {
    block = LockIfOwner(Find(*index_.load(std::memory_order_acquire), access.obj),
                        access.obj);
  }
  if (block == nullptr) {
    block = AcquireLocked(access);
  }
  // Rewritten only on a change, so repeat accesses leave the object's line clean.
  if (access.handle != nullptr && block->number != number) {
    access.handle->store(block->number, std::memory_order_relaxed);
  }

  const bool write = access.kind == OpKind::kWrite;
  const bool same_run = block->run_tid == access.tid;
  // A ring holding only this thread's own accesses forms no near miss: skip the scan.
  if (!same_run || block->run_len < block->count) {
    // Oldest-to-newest scan: conflicts are reported oldest first.
    const Record* ring = block->ring();
    int i = block->head - block->count;
    if (i < 0) {
      i += history_;
    }
    for (int k = 0; k < block->count; ++k) {
      const Record& rec = ring[i];
      const bool rec_write = (block->writes >> i) & 1;
      // Within the window on either side: a record stamped after this access
      // (its thread read the clock later but recorded first) is no nearer.
      const Micros gap = access.time - rec.time;
      if (rec.tid != access.tid && (write || rec_write) &&
          (window_us_ < 0 || (gap <= window_us_ && -gap <= window_us_))) {
        out.push_back(NearMiss{rec.op, ((block->concurrent >> i) & 1) != 0});
      }
      if (++i == history_) {
        i = 0;
      }
    }
  }

  const int head = block->head;
  const uint64_t bit = uint64_t{1} << head;
  block->ring()[head] = Record{access.time, access.op, access.tid};
  block->writes = write ? block->writes | bit : block->writes & ~bit;
  block->concurrent =
      access.concurrent_phase ? block->concurrent | bit : block->concurrent & ~bit;
  block->head = static_cast<uint8_t>(head + 1 == history_ ? 0 : head + 1);
  if (block->count < history_) {
    ++block->count;
  }
  if (!same_run) {
    block->run_tid = access.tid;
    block->run_len = 1;
  } else if (block->run_len < history_) {
    ++block->run_len;
  }
  block->Unlock();
}

std::vector<NearMissTracker::NearMiss> NearMissTracker::RecordAndFindConflicts(
    const Access& access) {
  ConflictBuffer buffer;
  RecordAndFindConflicts(access, buffer);
  return std::vector<NearMiss>(buffer.begin(), buffer.end());
}

NearMissTracker::Block* NearMissTracker::AcquireLocked(const Access& access) {
  std::lock_guard<std::mutex> lock(mu_);
  // Exact under mu_: nobody else writes the current table. The block is locked
  // before mu_ is released, so a sweep cannot recycle it in between.
  Block* block = Find(*indexes_.back(), access.obj);
  if (block != nullptr) {
    block->Lock();
    return block;
  }
  // Compared with the survivors of the last sweep, not with live_: live_ counts
  // every insert since then too, so inserts could never catch up with it.
  if (window_us_ >= 0 &&
      ++inserted_since_sweep_ >= std::max(kMinInsertsPerSweep, kept_by_last_sweep_)) {
    Sweep(access.time);
  }
  if (4 * (live_ + 1) > 3 * (indexes_.back()->mask + 1)) {
    Grow();
  }
  block = NewBlock(access);
  Place(*indexes_.back(), access.obj, block);
  ++live_;
  return block;
}

NearMissTracker::Block* NearMissTracker::NewBlock(const Access& access) {
  const size_t pool = access.tid & (kPools - 1);
  std::vector<Block*>& free = free_[pool];
  if (free.empty()) {
    const size_t chunk = chunks_.size();
    chunks_.push_back(std::make_unique<Line[]>(kChunkBlocks * block_lines_));
    Line* lines = chunks_.back().get();
    std::atomic<Line*>* published = chunk_table_.Find(chunk);
    for (size_t b = kChunkBlocks; b-- > 0;) {
      Block* block = ::new (static_cast<void*>(&lines[b * block_lines_])) Block;
      block->pool = static_cast<uint8_t>(pool);
      if (published != nullptr) {
        block->number = static_cast<uint32_t>(chunk * kChunkBlocks + b + 1);
      }
      free.push_back(block);
    }
    if (published != nullptr) {
      published->store(lines, std::memory_order_release);
    }
  }
  Block* block = free.back();
  free.pop_back();
  // A reader holding a stale pointer may be inside the block: reset it under its
  // lock, which the caller keeps. The run needs no reset: with the ring empty, a
  // run left from the previous object covers only records its thread wrote since,
  // as any other thread's access restarts it.
  block->Lock();
  block->owner = access.obj;
  block->live = true;
  block->head = 0;
  block->count = 0;
  return block;
}

void NearMissTracker::Sweep(Micros now) {
  // Objects whose entire history is older than 8x the window can never again
  // produce a near miss; their blocks return to the pool.
  inserted_since_sweep_ = 0;
  Index& index = *indexes_.back();
  std::vector<Block*> keep;
  keep.reserve(live_);
  for (size_t i = 0; i <= index.mask; ++i) {
    Block* block = index.slots[i].block.load(std::memory_order_relaxed);
    if (block == nullptr) {
      continue;
    }
    block->Lock();
    const int newest = (block->head == 0 ? history_ : block->head) - 1;
    const bool stale = now - block->ring()[newest].time > 8 * window_us_;
    block->live = !stale;
    block->Unlock();
    (stale ? free_[block->pool] : keep).push_back(block);
  }
  // Re-place the survivors in the same table. A reader probing meanwhile may miss
  // its object; a miss goes to the locked path, which waits for this sweep.
  for (size_t i = 0; i <= index.mask; ++i) {
    index.slots[i].block.store(nullptr, std::memory_order_relaxed);
  }
  for (Block* block : keep) {
    Place(index, block->owner, block);
  }
  live_ = keep.size();
  kept_by_last_sweep_ = live_;
}

void NearMissTracker::Grow() {
  // The old table stays allocated (and valid) for readers that already loaded it.
  const Index& old = *indexes_.back();
  auto grown = std::make_unique<Index>(2 * (old.mask + 1));
  for (size_t i = 0; i <= old.mask; ++i) {
    if (Block* block = old.slots[i].block.load(std::memory_order_relaxed)) {
      Place(*grown, old.slots[i].key.load(std::memory_order_relaxed), block);
    }
  }
  indexes_.push_back(std::move(grown));
  index_.store(indexes_.back().get(), std::memory_order_release);
}

size_t NearMissTracker::TrackedObjects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_;
}

}  // namespace tsvd
