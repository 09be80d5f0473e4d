#include "arch/memory.h"

#include <algorithm>

#include "common/archive.h"
#include "common/check.h"

namespace flexstep::arch {

template <class Ar>
void Memory::Snapshot::transfer(Ar& ar) {
  u64 count = pages.size();
  ar.fixed(count);
  ar.require(count <= (~u64{0}) / (kPageSize + 8), "page count exceeds payload size");
  if constexpr (Ar::kReading) pages.clear();
  for (u64 i = 0; ar.ok() && i < count; ++i) {
    if constexpr (Ar::kReading) pages.emplace_back();
    auto& [id, page] = pages[i];
    ar.fixed(id);
    // Ids are strictly increasing by the save() sort; a CRC-clean file
    // violating it was written by a broken producer.
    ar.require(i == 0 || id > pages[i - 1].first, "memory page ids not id-sorted");
    ar.bytes(page.data(), page.size());
  }
  if constexpr (Ar::kReading) {
    if (!ar.ok()) pages.clear();
  }
}
template void Memory::Snapshot::transfer(io::ArchiveWriter&);
template void Memory::Snapshot::transfer(io::ArchiveReader&);

void Memory::save(Snapshot& out) const {
  // Id-sorted so a snapshot's layout depends only on the touched pages, not on
  // the hash map's iteration order. Sort the ids, then copy each page once.
  std::vector<std::pair<u64, const Page*>> order;
  order.reserve(pages_.size());
  for (const auto& [id, page] : pages_) order.emplace_back(id, page.get());
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.pages.clear();
  out.pages.reserve(order.size());
  for (const auto& [id, page] : order) out.pages.emplace_back(id, *page);
}

void Memory::restore(const Snapshot& snapshot) {
  // Drop pages the run materialised after the save; they read as zero in the
  // saved state and will re-materialise zero-filled on next touch.
  std::erase_if(pages_, [&](const auto& entry) {
    const auto it = std::lower_bound(
        snapshot.pages.begin(), snapshot.pages.end(), entry.first,
        [](const auto& p, u64 id) { return p.first < id; });
    return it == snapshot.pages.end() || it->first != entry.first;
  });
  for (const auto& [id, contents] : snapshot.pages) {
    auto it = pages_.find(id);
    if (it == pages_.end()) {
      pages_.emplace(id, std::make_unique<Page>(contents));
    } else {
      *it->second = contents;
    }
  }
  // Cached page pointers may reference erased pages.
  ptr_cache_.fill(PtrSlot{});
  // Reservations are derived per-core state: whoever restores the cores
  // re-registers any reservation the snapshot carried (Core::restore), so a
  // stale registry entry must not survive the memory rewind.
  for (const Reservation& r : reservations_) r.owner->on_reservation_invalidated();
  reservations_.clear();
}

void Memory::watch_code_pages(CodeWriteListener* listener, u64 first_page,
                              u64 last_page) {
  FLEX_CHECK(first_page <= last_page);
  if (std::find(code_listeners_.begin(), code_listeners_.end(), listener) ==
      code_listeners_.end()) {
    code_listeners_.push_back(listener);
  }
  const u64 min = std::min(watch_min_page_ == ~u64{0} ? first_page : watch_min_page_,
                           first_page);
  const u64 max = std::max(watch_min_page_ == ~u64{0} ? last_page
                                                      : watch_min_page_ + watch_page_span_,
                           last_page);
  watch_min_page_ = min;
  watch_page_span_ = max - min;
}

void Memory::unwatch_code_pages(CodeWriteListener* listener) {
  std::erase(code_listeners_, listener);
  if (code_listeners_.empty()) {
    watch_min_page_ = ~u64{0};
    watch_page_span_ = 0;
  }
}

void Memory::notify_code_write(u64 page_id) {
  for (CodeWriteListener* listener : code_listeners_) {
    listener->on_code_page_written(page_id);
  }
}

void Memory::set_reservation(ReservationObserver* owner, Addr granule_addr) {
  FLEX_DCHECK((granule_addr & 7) == 0);
  for (Reservation& r : reservations_) {
    if (r.owner == owner) {
      r.granule = granule_addr;
      return;
    }
  }
  reservations_.push_back({owner, granule_addr});
}

void Memory::clear_reservation(ReservationObserver* owner) {
  std::erase_if(reservations_, [&](const Reservation& r) { return r.owner == owner; });
}

void Memory::invalidate_reservations(Addr addr, std::size_t bytes) {
  const Addr lo = addr & ~Addr{7};
  const Addr hi = (addr + bytes - 1) & ~Addr{7};
  std::erase_if(reservations_, [&](const Reservation& r) {
    if (r.granule < lo || r.granule > hi) return false;
    r.owner->on_reservation_invalidated();
    return true;
  });
}

bool Memory::same_contents(const Memory& other, std::optional<Addr> skip_word) const {
  static const Page kZeroPage{};
  const auto page_equal = [&](u64 id, const Page& a, const Page& b) {
    if (!skip_word.has_value() || (*skip_word >> kPageBits) != id) {
      return std::memcmp(a.data(), b.data(), kPageSize) == 0;
    }
    const std::size_t skip = *skip_word & (kPageSize - 1);
    const std::size_t resume = std::min<std::size_t>(skip + 8, kPageSize);
    return std::memcmp(a.data(), b.data(), skip) == 0 &&
           std::memcmp(a.data() + resume, b.data() + resume, kPageSize - resume) == 0;
  };
  for (const auto& [id, page] : pages_) {
    const auto it = other.pages_.find(id);
    if (!page_equal(id, *page, it != other.pages_.end() ? *it->second : kZeroPage)) {
      return false;
    }
  }
  for (const auto& [id, page] : other.pages_) {
    if (!pages_.contains(id) && !page_equal(id, kZeroPage, *page)) return false;
  }
  return true;
}

Addr Memory::fault_word_addr(std::size_t word_index) const {
  constexpr std::size_t kWordsPerPage = kPageSize / 8;
  FLEX_CHECK_MSG(word_index < fault_word_count(), "fault word index out of range");
  std::vector<u64> ids;
  ids.reserve(pages_.size());
  for (const auto& [id, page] : pages_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  const u64 page_id = ids[word_index / kWordsPerPage];
  return (page_id << kPageBits) + (word_index % kWordsPerPage) * 8;
}

void Memory::fault_flip_word(std::size_t word_index, u64 bit) {
  FLEX_CHECK(bit < 64);
  const Addr addr = fault_word_addr(word_index);
  Page& page = *pages_.at(addr >> kPageBits);
  // Direct page access: deliberately skips notify_code_write and reservation
  // invalidation (see header) and therefore also write()'s pointer cache.
  page[(addr & (kPageSize - 1)) + bit / 8] ^= static_cast<u8>(1u << (bit % 8));
}

u8* Memory::page_data_slow(Addr addr) {
  const u64 id = addr >> kPageBits;
  auto it = pages_.find(id);
  if (it == pages_.end()) {
    auto page = std::make_unique<Page>();
    page->fill(0);
    it = pages_.emplace(id, std::move(page)).first;
  }
  PtrSlot& slot = ptr_cache_[id & (kPtrCacheSize - 1)];
  slot.id = id;
  slot.data = it->second->data();
  return slot.data;
}

u64 Memory::read_split(Addr addr, u32 bytes) {
  FLEX_DCHECK(bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8);
  const u32 first = static_cast<u32>(kPageSize - (addr & (kPageSize - 1)));
  u64 value = 0;
  auto* dst = reinterpret_cast<u8*>(&value);
  std::memcpy(dst, page_data(addr) + (addr & (kPageSize - 1)), first);
  std::memcpy(dst + first, page_data(addr + first), bytes - first);
  return value;
}

void Memory::write_split(Addr addr, u32 bytes, u64 value) {
  FLEX_DCHECK(bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8);
  // write() already ran the guards for the first page; the split also lands
  // on the next page, which may be watched independently.
  const u64 second_page = (addr >> kPageBits) + 1;
  if (second_page - watch_min_page_ <= watch_page_span_) {
    notify_code_write(second_page);
  }
  const u32 first = static_cast<u32>(kPageSize - (addr & (kPageSize - 1)));
  const auto* src = reinterpret_cast<const u8*>(&value);
  std::memcpy(page_data(addr) + (addr & (kPageSize - 1)), src, first);
  std::memcpy(page_data(addr + first), src + first, bytes - first);
}

void Memory::write_block(Addr addr, const void* src, std::size_t n) {
  if (n == 0) return;
  for (u64 page = addr >> kPageBits, last = (addr + n - 1) >> kPageBits; page <= last;
       ++page) {
    if (page - watch_min_page_ <= watch_page_span_) notify_code_write(page);
  }
  if (!reservations_.empty()) invalidate_reservations(addr, n);
  const auto* bytes = static_cast<const u8*>(src);
  while (n > 0) {
    const Addr offset = addr & (kPageSize - 1);
    const std::size_t chunk = std::min<std::size_t>(n, kPageSize - offset);
    std::memcpy(page_data(addr) + offset, bytes, chunk);
    addr += chunk;
    bytes += chunk;
    n -= chunk;
  }
}

void Memory::read_block(Addr addr, void* dst, std::size_t n) {
  auto* bytes = static_cast<u8*>(dst);
  while (n > 0) {
    const Addr offset = addr & (kPageSize - 1);
    const std::size_t chunk = std::min<std::size_t>(n, kPageSize - offset);
    std::memcpy(bytes, page_data(addr) + offset, chunk);
    addr += chunk;
    bytes += chunk;
    n -= chunk;
  }
}

}  // namespace flexstep::arch
