// A fixed-capacity table that pays only for the pages it touches.
//
// The runtime keeps several dense tables indexed by ThreadId (RNG streams, pair
// caches, thread timelines, delay budgets) or by OpId (injection
// probabilities, coverage cells, sampling hit counts). Their capacities are sized
// for the largest process the runtime must survive — 4096 threads, 65,536 call
// sites — while a typical run touches a handful of threads and a few dozen sites.
// Allocating every table in full made each Runtime cost megabytes and hundreds of
// microseconds of zeroing before its first call.
//
// PagedTable keeps an inline array of page pointers and allocates a fixed-size,
// value-initialized page the first time any of its slots is asked for. Pages are
// published with a CAS (a racing loser frees its copy and adopts the winner's), are
// never moved or freed while the table lives, and are freed by the destructor, so a
// slot's address is stable for the table's lifetime. Find costs one bounds check
// against a constant, one load of the page pointer and a predicted-not-taken null
// branch; Peek is the same lookup without the allocation, for readers that treat an
// untouched slot as value-initialized.
//
// Slots of one page are contiguous: Peek(p * kPageSlots) addresses all of page p.
#ifndef SRC_COMMON_PAGED_TABLE_H_
#define SRC_COMMON_PAGED_TABLE_H_

#include <atomic>
#include <cstddef>

namespace tsvd {

template <typename T, size_t kPageSlotsArg, size_t kPagesArg>
class PagedTable {
 public:
  static constexpr size_t kPageSlots = kPageSlotsArg;
  static constexpr size_t kPages = kPagesArg;
  static constexpr size_t kCapacity = kPageSlots * kPages;
  static_assert(kPageSlots > 0 && (kPageSlots & (kPageSlots - 1)) == 0,
                "page size must be a power of two");

  PagedTable() = default;
  ~PagedTable() {
    for (std::atomic<T*>& page : pages_) {
      delete[] page.load(std::memory_order_acquire);
    }
  }
  PagedTable(const PagedTable&) = delete;
  PagedTable& operator=(const PagedTable&) = delete;

  // The slot at `index`, allocating its page on first touch; nullptr when `index`
  // is at or past kCapacity.
  T* Find(size_t index) {
    if (index >= kCapacity) [[unlikely]] {
      return nullptr;
    }
    T* page = pages_[index / kPageSlots].load(std::memory_order_acquire);
    if (page == nullptr) [[unlikely]] {
      page = AllocatePage(index / kPageSlots);
    }
    return page + index % kPageSlots;
  }

  // The slot at `index` if its page exists; never allocates.
  T* Peek(size_t index) {
    if (index >= kCapacity) [[unlikely]] {
      return nullptr;
    }
    T* page = pages_[index / kPageSlots].load(std::memory_order_acquire);
    return page == nullptr ? nullptr : page + index % kPageSlots;
  }
  const T* Peek(size_t index) const { return const_cast<PagedTable*>(this)->Peek(index); }

  // Calls fn(index, slot) for every slot of every allocated page, in index order.
  // Never allocates; untouched pages are skipped whole.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t p = 0; p < kPages; ++p) {
      const T* page = pages_[p].load(std::memory_order_acquire);
      if (page == nullptr) {
        continue;
      }
      for (size_t i = 0; i < kPageSlots; ++i) {
        fn(p * kPageSlots + i, page[i]);
      }
    }
  }

  size_t AllocatedPages() const {
    size_t n = 0;
    for (const std::atomic<T*>& page : pages_) {
      n += page.load(std::memory_order_acquire) != nullptr;
    }
    return n;
  }

 private:
  [[gnu::noinline]] T* AllocatePage(size_t page) {
    T* fresh = new T[kPageSlots]();
    T* expected = nullptr;
    if (pages_[page].compare_exchange_strong(expected, fresh, std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;  // lost the race; use the winner's page
    return expected;
  }

  std::atomic<T*> pages_[kPages] = {};
};

// Dense tables indexed by OpId. Call sites are interned densely from 0; 65,536 is
// far beyond what one test process interns, and one 4096-op page covers a typical
// process.
inline constexpr size_t kMaxOps = size_t{1} << 16;
template <typename T>
using PerOp = PagedTable<T, 4096, kMaxOps / 4096>;

}  // namespace tsvd

#endif  // SRC_COMMON_PAGED_TABLE_H_
