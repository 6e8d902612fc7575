#include "storage/table_heap.h"

#include <cstring>
#include <string>

#include "common/logging.h"

namespace setm {

namespace {

// On-page layout ------------------------------------------------------------

struct HeapPageHeader {
  PageId next_page;         // kInvalidPageId at the tail
  uint16_t num_slots;       // slots ever created on this page
  uint16_t free_space_end;  // records occupy [free_space_end, kPageSize)
};

struct Slot {
  uint16_t offset;  // byte offset of the record within the page
  uint16_t length;  // record length
};

constexpr size_t kHeaderSize = sizeof(HeapPageHeader);
constexpr size_t kSlotSize = sizeof(Slot);

HeapPageHeader* Header(Page* p) { return p->As<HeapPageHeader>(); }
const HeapPageHeader* Header(const Page* p) {
  return p->As<HeapPageHeader>();
}

Slot* SlotAt(Page* p, uint16_t i) {
  return p->As<Slot>(kHeaderSize + i * kSlotSize);
}
const Slot* SlotAt(const Page* p, uint16_t i) {
  return p->As<Slot>(kHeaderSize + i * kSlotSize);
}

// Free bytes available for one more record + its slot entry.
size_t FreeSpace(const Page* p) {
  const HeapPageHeader* h = Header(p);
  const size_t slots_end = kHeaderSize + h->num_slots * kSlotSize;
  SETM_DCHECK(h->free_space_end >= slots_end);
  return h->free_space_end - slots_end;
}

void InitHeapPage(Page* p) {
  p->Clear();
  HeapPageHeader* h = Header(p);
  h->next_page = kInvalidPageId;
  h->num_slots = 0;
  h->free_space_end = static_cast<uint16_t>(kPageSize);
}

/// Checks the slot directory of heap page `id` before anyone trusts it: the
/// directory ends inside the page and before the record area, and the
/// records lie after the directory, inside the page, and fit in it together
/// (so a reader copying them all cannot overrun a page-sized buffer).
Status CheckHeapPage(const Page* p, PageId id) {
  const HeapPageHeader* h = Header(p);
  const size_t slots_end = kHeaderSize + size_t{h->num_slots} * kSlotSize;
  auto corrupt = [id](const std::string& what) {
    return Status::Corruption("heap page " + std::to_string(id) + ": " + what);
  };
  if (slots_end > kPageSize || h->free_space_end > kPageSize ||
      h->free_space_end < slots_end) {
    return corrupt(std::to_string(h->num_slots) +
                   " slots with free space ending at " +
                   std::to_string(h->free_space_end) +
                   " do not fit the page");
  }
  size_t record_bytes = 0;
  for (uint16_t i = 0; i < h->num_slots; ++i) {
    const Slot* slot = SlotAt(p, i);
    if (slot->offset < slots_end ||
        size_t{slot->offset} + slot->length > kPageSize) {
      return corrupt("slot " + std::to_string(i) + " record [" +
                     std::to_string(slot->offset) + ", +" +
                     std::to_string(slot->length) + ") lies outside the " +
                     "record area");
    }
    record_bytes += slot->length;
  }
  if (record_bytes > kPageSize - slots_end) {
    return corrupt("records overlap");
  }
  return Status::OK();
}

/// Pins heap page `id` and checks its slot directory.
Result<PageGuard> FetchHeapPage(BufferPool* pool, PageId id) {
  auto guard_or = pool->FetchPage(id);
  if (!guard_or.ok()) return guard_or.status();
  SETM_RETURN_IF_ERROR(CheckHeapPage(guard_or.value().page(), id));
  return guard_or;
}

}  // namespace

/// Largest record a single heap page can hold.
static constexpr size_t kMaxRecordSize = kPageSize - kHeaderSize - kSlotSize;

Result<TableHeap> TableHeap::Create(BufferPool* pool, PageHook page_hook) {
  auto guard_or = pool->NewPage();
  if (!guard_or.ok()) return guard_or.status();
  PageGuard& guard = guard_or.value();
  InitHeapPage(guard.page());
  guard.MarkDirty();
  if (page_hook) page_hook(guard.id());
  TableHeap heap(pool, guard.id(), guard.id(), /*pages=*/1);
  heap.page_hook_ = std::move(page_hook);
  return heap;
}

Result<TableHeap> TableHeap::Open(BufferPool* pool, PageId first_page,
                                  std::vector<PageId>* chain) {
  PageId last = first_page;
  uint64_t pages = 0;
  uint64_t live = 0;
  uint64_t bytes = 0;
  PageId cur = first_page;
  const uint64_t max_pages = pool->backend()->NumPages();
  while (cur != kInvalidPageId) {
    if (pages >= max_pages) {
      return Status::Corruption(
          "heap page chain starting at page " + std::to_string(first_page) +
          " does not terminate within the file's " +
          std::to_string(max_pages) + " pages (cycle or corrupt link)");
    }
    auto guard_or = FetchHeapPage(pool, cur);
    if (!guard_or.ok()) return guard_or.status();
    if (chain != nullptr) chain->push_back(cur);
    const Page* p = guard_or.value().page();
    const HeapPageHeader* h = Header(p);
    live += h->num_slots;
    for (uint16_t i = 0; i < h->num_slots; ++i) bytes += SlotAt(p, i)->length;
    ++pages;
    last = cur;
    cur = h->next_page;
  }
  TableHeap heap(pool, first_page, last, pages);
  heap.live_records_ = live;
  heap.live_bytes_ = bytes;
  return heap;
}

Status TableHeap::AppendChainPages(std::vector<PageId>* out) const {
  PageId cur = first_page_;
  uint64_t seen = 0;
  const uint64_t max_pages = pool_->backend()->NumPages();
  while (cur != kInvalidPageId) {
    if (seen >= max_pages || cur >= max_pages) {
      return Status::Corruption(
          "heap page chain starting at page " + std::to_string(first_page_) +
          " does not terminate within the file's " +
          std::to_string(max_pages) + " pages (cycle or corrupt link)");
    }
    out->push_back(cur);
    auto guard_or = pool_->FetchPage(cur);
    if (!guard_or.ok()) return guard_or.status();
    cur = Header(guard_or.value().page())->next_page;
    ++seen;
  }
  return Status::OK();
}

Status TableHeap::Insert(std::string_view record) {
  if (record.size() > kMaxRecordSize) {
    return Status::InvalidArgument("record of " +
                                   std::to_string(record.size()) +
                                   " bytes exceeds page capacity");
  }
  auto guard_or = pool_->FetchPage(last_page_);
  if (!guard_or.ok()) return guard_or.status();
  PageGuard guard = std::move(guard_or).value();
  if (FreeSpace(guard.page()) < record.size() + kSlotSize) {
    // Tail page is full: chain a fresh page.
    auto new_or = pool_->NewPage();
    if (!new_or.ok()) return new_or.status();
    PageGuard new_guard = std::move(new_or).value();
    InitHeapPage(new_guard.page());
    Header(guard.page())->next_page = new_guard.id();
    guard.MarkDirty();
    new_guard.MarkDirty();
    last_page_ = new_guard.id();
    ++num_pages_;
    if (page_hook_) page_hook_(new_guard.id());
    guard = std::move(new_guard);
  }
  Page* p = guard.page();
  HeapPageHeader* h = Header(p);
  h->free_space_end = static_cast<uint16_t>(h->free_space_end - record.size());
  Slot* slot = SlotAt(p, h->num_slots);
  slot->offset = h->free_space_end;
  slot->length = static_cast<uint16_t>(record.size());
  std::memcpy(p->data + slot->offset, record.data(), record.size());
  ++h->num_slots;
  guard.MarkDirty();
  ++live_records_;
  live_bytes_ += record.size();
  return Status::OK();
}

Result<bool> TableHeap::Iterator::Next() {
  if (on_page_ && ++slot_ < Header(copy_.get())->num_slots) return true;
  while (true) {
    if (next_page_ == kInvalidPageId) {
      on_page_ = false;
      return false;
    }
    auto guard_or = FetchHeapPage(pool_, next_page_);
    if (!guard_or.ok()) return guard_or.status();
    if (copy_ == nullptr) copy_ = std::make_unique<Page>();
    std::memcpy(copy_->data, guard_or.value().page()->data, kPageSize);
    next_page_ = Header(copy_.get())->next_page;
    slot_ = 0;
    on_page_ = true;
    if (Header(copy_.get())->num_slots > 0) return true;
  }
}

std::string_view TableHeap::Iterator::record() const {
  SETM_DCHECK(on_page_);
  const Slot* slot = SlotAt(copy_.get(), slot_);
  return std::string_view(copy_->data + slot->offset, slot->length);
}

}  // namespace setm
