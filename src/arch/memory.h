// Sparse flat physical memory for the simulated SoC.
//
// Backing store is allocated in 4 KiB pages on first touch so multi-megabyte
// working sets cost only what they use. All cores share one Memory instance
// (the simulated SoC has a single physical address space).
//
// The access fast path is inlined here: a small direct-mapped page-pointer
// cache resolves the hot page without touching the hash map, so the common
// aligned access is a mask, a table probe and a memcpy. A single-entry cache
// thrashed whenever a core's code/data pages interleaved (or main and checker
// accesses alternated); the multi-entry table keeps all hot pages resident.
#pragma once

#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace flexstep::arch {

/// Receives a deferred notification when a watched (code) page is written.
/// Used by the per-core trace caches: a store into a page covered by recorded
/// traces must eventually drop those traces. Handlers run inside Memory's
/// write path, so they must only set flags / record the page — never free
/// trace storage that might be executing (TraceCache defers the flush to its
/// next lookup boundary).
class CodeWriteListener {
 public:
  virtual void on_code_page_written(u64 page_id) = 0;

 protected:
  ~CodeWriteListener() = default;
};

/// Holder of an LR/SC reservation. Memory tracks every live reservation in
/// the (shared) physical address space and invalidates it when ANY agent —
/// the owning core, another core's store/AMO/SC, a bulk write — touches the
/// reserved 8-byte granule. This centralises what the per-core cache port
/// used to approximate locally ("cross-core invalidation handled in sc()"),
/// which let a different core's store to the reserved line slip through and
/// an AMO leave the owner's own reservation standing.
class ReservationObserver {
 public:
  virtual void on_reservation_invalidated() = 0;

 protected:
  ~ReservationObserver() = default;
};

class Memory {
 public:
  static constexpr unsigned kPageBits = 12;
  static constexpr Addr kPageSize = Addr{1} << kPageBits;
  using Page = std::array<u8, kPageSize>;

  Memory() = default;
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  /// Resident-page image of the address space: only pages a core ever touched
  /// are copied (a never-written page reads as zero, so dropping it from the
  /// snapshot loses nothing), never the full 2^addr space.
  struct Snapshot {
    std::vector<std::pair<u64, Page>> pages;  ///< (page id, contents), id-sorted.
    std::size_t bytes() const { return pages.size() * sizeof(Page); }

    /// Wire format: page count, then (id, raw 4 KiB span) pairs — all fields
    /// fixed-width so the page payloads stay 8-aligned in the archive.
    template <class Ar>
    void transfer(Ar& ar);
  };

  void save(Snapshot& out) const;

  /// Restore to the exact saved state: snapshot pages are copied back and
  /// pages materialised after the save are dropped (they were implicitly zero
  /// at save time, so a restored run re-materialises them zero-filled).
  void restore(const Snapshot& snapshot);

  /// Aligned little-endian accessors; `bytes` in {1,2,4,8}. Accesses that
  /// straddle a page split into two chunk copies.
  u64 read(Addr addr, u32 bytes) {
    FLEX_DCHECK(bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8);
    const Addr offset = addr & (kPageSize - 1);
    if (offset + bytes <= kPageSize) [[likely]] {
      u64 value = 0;
      std::memcpy(&value, page_data(addr) + offset,
                  bytes);  // little-endian host assumed (linux/x86-64 & aarch64)
      return value;
    }
    return read_split(addr, bytes);
  }

  void write(Addr addr, u32 bytes, u64 value) {
    FLEX_DCHECK(bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8);
    // Write guards, filtered to two predictable compares on the hot path:
    // code-page watch (trace invalidation) and live LR/SC reservations.
    if ((addr >> kPageBits) - watch_min_page_ <= watch_page_span_) [[unlikely]] {
      notify_code_write(addr >> kPageBits);
    }
    if (!reservations_.empty()) [[unlikely]] {
      invalidate_reservations(addr, bytes);
    }
    const Addr offset = addr & (kPageSize - 1);
    if (offset + bytes <= kPageSize) [[likely]] {
      std::memcpy(page_data(addr) + offset, &value, bytes);
      return;
    }
    write_split(addr, bytes, value);
  }

  /// Bulk helpers (program loading, test fixtures).
  void write_block(Addr addr, const void* src, std::size_t n);
  void read_block(Addr addr, void* dst, std::size_t n);

  /// Number of materialised pages (tests / footprint accounting).
  std::size_t resident_pages() const { return pages_.size(); }

  /// True when this address space and `other` hold the same bytes, except the
  /// 8-byte word at `skip_word` (8-aligned) when one is given. A page resident
  /// on one side only compares against zero, as a never-touched page reads.
  bool same_contents(const Memory& other, std::optional<Addr> skip_word) const;

  // ---- fault-site adapter (fault/sites.h) ----

  /// Resident 8-byte words enumerable as fault sites. Word indices walk the
  /// resident pages in page-id order, so the index space is deterministic for
  /// a given touched-page set (never the hash map's iteration order).
  std::size_t fault_word_count() const {
    return pages_.size() * (kPageSize / 8);
  }
  /// Physical address of resident word `word_index` (id-sorted page walk).
  Addr fault_word_addr(std::size_t word_index) const;
  /// XOR one bit of a resident word, bypassing the write-path guards: a
  /// particle strike corrupts the cell silently — it is not an agent's store,
  /// so it must not invalidate LR/SC reservations or fire code-page watches.
  void fault_flip_word(std::size_t word_index, u64 bit);

  // ---- code-page write watching (trace-cache invalidation) ----

  /// Ask for on_code_page_written() whenever any page in [first, last] is
  /// stored to. Ranges from repeated calls merge; watching is idempotent.
  void watch_code_pages(CodeWriteListener* listener, u64 first_page, u64 last_page);
  void unwatch_code_pages(CodeWriteListener* listener);

  // ---- LR/SC reservation registry ----

  /// Register/replace `owner`'s reservation on the 8-byte granule at
  /// `granule_addr` (already masked). Any subsequent write overlapping the
  /// granule — from any core or bulk path — invalidates it and notifies.
  void set_reservation(ReservationObserver* owner, Addr granule_addr);
  void clear_reservation(ReservationObserver* owner);
  /// Live reservations (tests).
  std::size_t reservation_count() const { return reservations_.size(); }

 private:
  /// Direct-mapped page-pointer cache. 16 entries cover a core's code, stack
  /// and a few data streams plus the checker's interleaved pages.
  static constexpr std::size_t kPtrCacheSize = 16;
  struct PtrSlot {
    u64 id = ~u64{0};
    u8* data = nullptr;
  };

  u8* page_data(Addr addr) {
    const u64 id = addr >> kPageBits;
    PtrSlot& slot = ptr_cache_[id & (kPtrCacheSize - 1)];
    if (slot.id == id) [[likely]] return slot.data;
    return page_data_slow(addr);
  }

  u8* page_data_slow(Addr addr);
  u64 read_split(Addr addr, u32 bytes);
  void write_split(Addr addr, u32 bytes, u64 value);
  void notify_code_write(u64 page_id);
  void invalidate_reservations(Addr addr, std::size_t bytes);

  std::unordered_map<u64, std::unique_ptr<Page>> pages_;
  std::array<PtrSlot, kPtrCacheSize> ptr_cache_{};

  // Code-page watch: the hot-path filter is a single range compare over the
  // union of all watched ranges; listeners narrow to their own pages.
  std::vector<CodeWriteListener*> code_listeners_;
  u64 watch_min_page_ = ~u64{0};  ///< ~0 disarms the filter (page - ~0 wraps).
  u64 watch_page_span_ = 0;

  struct Reservation {
    ReservationObserver* owner;
    Addr granule;  ///< 8-byte-aligned reserved address.
  };
  std::vector<Reservation> reservations_;  ///< At most one entry per core.
};

}  // namespace flexstep::arch
