// Near-miss tracking (Section 3.4.2).
//
// The paper keeps a global table of each object's most recent N_nm accesses. A new
// access forms a near miss with a recorded one if the threads differ, at least one
// operation is a write, and the two are within T_nm of each other. The paper indexes
// by the object's hash-code rather than object metadata; we index by a mixed hash of
// the same id (ObjectIds are pointer-derived, see Mix64 in ids.h).
//
// Every instrumented call updates this table, so its layout decides whether OnCall
// scales across cores. An access writes only its own object's state:
//
//   * The object index is an open-addressing table of history-block pointers that
//     the hot path reads with plain acquire loads. Inserting a new object, sweeping
//     stale ones and growing the index happen under one tracker mutex, and all
//     three are rare.
//   * Each object's history block carries its own small lock and its own ring of
//     the object's last N_nm accesses, on cache lines of its own. Threads touching
//     different objects never write a common line.
//   * Blocks are pooled and recycled inside the tracker, never freed while it
//     lives, and a grown index keeps the old table alive too. A pointer read
//     through a stale index entry therefore always points at some block: the
//     reader locks it and checks that it still belongs to its object. If it does
//     not (the block was swept and reused), the reader retries on the locked path,
//     whose lookup under the tracker mutex is authoritative.
//   * Every block is numbered when its chunk is carved, and each chunk's base is
//     published in a lock-free chunk table. An access that carries its object's
//     NearMissHandle (access.h) resolves the handle's number to a block without
//     probing the index, then locks it and runs the same ownership check; the
//     handle is rewritten whenever the object's block number changes. The paper
//     indexes by hash code because a binary rewriter cannot add a field to a .NET
//     object; our containers own their objects and carry the handle.
//
// The handle holds a number, not a Block*: a handle outlives the tracker that wrote
// it (a container used under one Runtime and then another), and a number resolves
// either to nothing or to a live block of the current tracker, which the ownership
// check then accepts or refuses. It can never dangle and needs no generation count.
//
// After an object's first access, recording plus the conflict scan performs no heap
// allocation, and conflicts are reported through a caller-supplied FixedVector.
#ifndef SRC_CORE_NEARMISS_TRACKER_H_
#define SRC_CORE_NEARMISS_TRACKER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "src/common/config.h"
#include "src/common/fixed_vector.h"
#include "src/common/padded.h"
#include "src/common/paged_table.h"
#include "src/core/access.h"

namespace tsvd {

class NearMissTracker {
 public:
  explicit NearMissTracker(const Config& config);
  NearMissTracker(const NearMissTracker&) = delete;
  NearMissTracker& operator=(const NearMissTracker&) = delete;

  struct NearMiss {
    OpId other_op = kInvalidOp;
    // True if the recorded access executed in a concurrent phase; a dangerous pair
    // needs at least one endpoint in a concurrent phase (Section 3.4.1).
    bool other_concurrent = false;
  };

  // Upper bound on the per-object history, and therefore on the conflicts one access
  // can report (config.nearmiss_history_unwindowed is the largest deployment).
  static constexpr int kMaxHistory = 64;
  using ConflictBuffer = FixedVector<NearMiss, kMaxHistory>;

  // Records `access` and appends the conflicting near misses it forms with the
  // object's recent history to `out` (which the caller keeps on its stack), oldest
  // first.
  void RecordAndFindConflicts(const Access& access, ConflictBuffer& out);

  // Convenience wrapper for tests and non-hot-path callers.
  std::vector<NearMiss> RecordAndFindConflicts(const Access& access);

  // Number of objects currently tracked (diagnostics / memory accounting).
  size_t TrackedObjects() const;

  // Sweeps run once at least this many objects (and at least as many as the last
  // sweep kept) were inserted since the last one, so their O(live) cost stays
  // amortized O(1) per new object.
  static constexpr size_t kMinInsertsPerSweep = 4096;

 private:
  struct Record {
    Micros time;
    OpId op;
    ThreadId tid;
  };

  // One object's history: this header, then `history_` Records, starting on a cache
  // line of its own. `head` is the next write position and `count` saturates at the
  // history length; bit i of `writes` / `concurrent` holds the kind / phase flag of
  // ring slot i (history_ <= 64), which keeps a record at 16 bytes. `run_tid`
  // wrote the ring's newest min(run_len, count) records (`run_len` saturates at the
  // history length): once run_len >= count, the ring holds only its accesses.
  // `number` is what a NearMissHandle holds for this block, fixed when its chunk is
  // carved (0 for a chunk past the chunk table, whose blocks are reached only
  // through the index).
  struct Block {
    std::atomic<bool> locked{false};
    bool live = false;  // false while the block sits in the free pool
    uint8_t head = 0;
    uint8_t count = 0;
    uint8_t pool = 0;  // free list the block returns to
    uint8_t run_len = 0;
    ThreadId run_tid = 0;
    uint32_t number = 0;
    ObjectId owner = 0;
    uint64_t writes = 0;
    uint64_t concurrent = 0;

    Record* ring() { return std::launder(reinterpret_cast<Record*>(this + 1)); }
    void Lock();
    void Unlock() { locked.store(false, std::memory_order_release); }
    bool Owns(ObjectId obj) const { return live && owner == obj; }
  };
  static_assert(alignof(Record) <= alignof(Block) && sizeof(Block) % alignof(Record) == 0,
                "the ring must start aligned right after the block header");
  static_assert(sizeof(Block) + 5 * sizeof(Record) <= 2 * kCacheLineSize,
                "a block at the default history of 5 fits two cache lines");

  // Open-addressing table of live blocks, linear probing from Mix64(key), at most
  // three quarters full. The key sits in the slot so that a probe passing other
  // objects' slots never reads their blocks, whose lines their own threads write.
  // Slots are atomics so the hot path can probe while the tracker mutex holder
  // rewrites them; a key and block read from a slot being rewritten may not match,
  // which the block-lock validation catches.
  struct Slot {
    std::atomic<ObjectId> key{0};
    std::atomic<Block*> block{nullptr};  // nullptr = empty
  };
  struct Index {
    explicit Index(size_t capacity)
        : mask(capacity - 1), slots(std::make_unique<Slot[]>(capacity)) {}
    size_t mask;
    std::unique_ptr<Slot[]> slots;
  };

  // Unit of block storage: chunks are arrays of whole cache lines.
  struct alignas(kCacheLineSize) Line {
    unsigned char bytes[kCacheLineSize];
  };

  // Base of each carved chunk, by chunk number, for resolving handles without the
  // tracker mutex. Small: its first page covers 4,096 blocks; a chunk past its
  // capacity leaves its blocks unnumbered.
  using ChunkTable = PagedTable<std::atomic<Line*>, 128, 128>;

  static Block* Find(const Index& index, ObjectId obj);
  static void Place(Index& index, ObjectId obj, Block* block);
  // The block a handle's number names, or null when no carved block has it.
  Block* Resolve(uint32_t number);
  // Locks `block` and returns it if it holds `obj`'s history; null otherwise (or
  // for a null block). A block read through a handle or an index entry may have
  // been swept and handed to another object since.
  static Block* LockIfOwner(Block* block, ObjectId obj);
  // Both return the block of the object locked; AcquireLocked inserts the object
  // if it is new.
  Block* AcquireLocked(const Access& access);
  Block* NewBlock(const Access& access);
  void Sweep(Micros now);
  void Grow();

  Micros window_us_;  // -1 = unwindowed (Table 3 ablation)
  int history_;
  size_t block_lines_;  // cache lines per block: header plus ring

  // The current table, which the hot path loads and probes without a lock.
  std::atomic<Index*> index_{nullptr};
  // Written under mu_ when a chunk is carved, read by the hot path without a lock.
  ChunkTable chunk_table_;

  // Everything below is guarded by mu_, on lines apart from the read-only ones above.
  alignas(kCacheLineSize) mutable std::mutex mu_;
  std::vector<std::unique_ptr<Index>> indexes_;  // back() is current; the rest retired
  std::vector<std::unique_ptr<Line[]>> chunks_;  // block storage, never released
  // Free blocks, pooled by the residue of the ThreadId that inserts the object.
  // Objects are mostly used by the thread that first touched them; carving each
  // pool's blocks from chunks of its own keeps one thread's blocks off the lines
  // next to another's, which the hardware prefetchers would otherwise drag across
  // cores on every write.
  static constexpr size_t kPools = 8;
  std::vector<Block*> free_[kPools];
  size_t live_ = 0;
  size_t inserted_since_sweep_ = 0;
  size_t kept_by_last_sweep_ = 0;
};

}  // namespace tsvd

#endif  // SRC_CORE_NEARMISS_TRACKER_H_
