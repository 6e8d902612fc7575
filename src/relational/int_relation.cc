#include "relational/int_relation.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace setm {

namespace {

/// The head of a packed page; the rows follow it back to back.
struct PackedPageHeader {
  uint32_t rows;
  uint32_t width;
};

constexpr size_t kPackedHeaderSize = sizeof(PackedPageHeader);

/// The head of a grouped page; the groups follow it back to back.
struct GroupPageHeader {
  uint32_t bytes;
  uint32_t ids;
};

static_assert(sizeof(GroupPageHeader) == GroupPage::kHeaderSize);

/// Corruption unless packed page `index` holds `rows` rows of `width`.
Status CheckHeader(const Page& page, size_t index, uint64_t rows,
                   size_t width) {
  const PackedPageHeader* h = page.As<PackedPageHeader>();
  if (h->rows == rows && h->width == width) return Status::OK();
  return Status::Corruption(
      "packed page " + std::to_string(index) + " holds " +
      std::to_string(h->rows) + " rows of width " + std::to_string(h->width) +
      " where " + std::to_string(rows) + " rows of width " +
      std::to_string(width) + " were written");
}

/// Sealed scratch pages held, in memory or in a pool.
obs::Gauge* ScratchPagesGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global()->GetGauge(
      "setm_scratch_pages",
      "Pages of sealed scratch relations (R_1, R_k, C_k count runs) held");
  return gauge;
}

uint32_t ZigZag(int32_t v) {
  return (static_cast<uint32_t>(v) << 1) ^ static_cast<uint32_t>(v >> 31);
}

int32_t UnZigZag(uint32_t u) {
  return static_cast<int32_t>((u >> 1) ^ (0u - (u & 1)));
}

/// id - prev for prev <= id: fits 32 bits for any two int32s.
uint32_t Delta(int32_t prev, int32_t id) {
  return static_cast<uint32_t>(int64_t{id} - int64_t{prev});
}

size_t VarintSize(uint32_t v) {
  return v < (1u << 7) ? 1 : v < (1u << 14) ? 2 : v < (1u << 21) ? 3
         : v < (1u << 28)                    ? 4
                                             : 5;
}

uint8_t* PutVarint(uint8_t* p, uint32_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

/// Reads a varint of at most 32 bits from [*p, end) into `*v`; null, or
/// why it cannot.
const char* GetVarint(const uint8_t** p, const uint8_t* end, uint32_t* v) {
  uint32_t value = 0;
  for (int shift = 0; shift < 35; shift += 7) {
    if (*p == end) return "a varint overruns the page";
    const uint8_t byte = *(*p)++;
    // The fifth byte holds the top 4 bits and ends the varint.
    if (shift == 28 && byte > 0x0F) return "a varint exceeds 32 bits";
    value |= static_cast<uint32_t>(byte & 0x7F) << shift;
    if (byte < 0x80) {
      *v = value;
      return nullptr;
    }
  }
  return "a varint exceeds 32 bits";
}

}  // namespace

// --------------------------------------------------------------------------
// ScratchPages
// --------------------------------------------------------------------------

ScratchPages::ScratchPages(BufferPool* pool, PageHook page_hook, PageHint hint)
    : pool_(pool), page_hook_(std::move(page_hook)), hint_(hint) {}

ScratchPages::~ScratchPages() {
  if (sealed_) ScratchPagesGauge()->Add(-static_cast<int64_t>(size()));
  for (size_t i = taken_; i < ids_.size(); ++i) {
    Status released = pool_->ReleasePage(ids_[i]);
    if (!released.ok()) {
      SETM_LOG(kError) << "scratch page not released: " << released.ToString();
    }
  }
}

Status ScratchPages::Add(const Page& image) {
  if (pool_ == nullptr) {
    images_.push_back(std::make_unique<Page>(image));
    return Status::OK();
  }
  auto id_or = pool_->AddPage(image, hint_, page_hook_);
  if (!id_or.ok()) return id_or.status();
  ids_.push_back(id_or.value());
  return Status::OK();
}

Status ScratchPages::Copy(size_t i, Page* out) const {
  if (pool_ == nullptr) {
    std::memcpy(out->data, images_[i]->data, kPageSize);
    return Status::OK();
  }
  auto guard_or = pool_->FetchPage(ids_[i], hint_);
  if (!guard_or.ok()) return guard_or.status();
  std::memcpy(out->data, guard_or.value().page()->data, kPageSize);
  return Status::OK();
}

Status ScratchPages::Take(size_t i, Page* out) {
  SETM_DCHECK(i == taken_);
  if (pool_ == nullptr) {
    std::memcpy(out->data, images_[i]->data, kPageSize);
    images_[i].reset();
  } else {
    SETM_RETURN_IF_ERROR(pool_->TakePage(ids_[i], out));
  }
  taken_ = i + 1;
  return Status::OK();
}

void ScratchPages::Seal() {
  sealed_ = true;
  ScratchPagesGauge()->Add(static_cast<int64_t>(size()));
}

// --------------------------------------------------------------------------
// IntRelation
// --------------------------------------------------------------------------

namespace {

/// A stream that fails on its first Next(): the scan of an unfinished
/// relation, whose last rows are not on a page yet.
class UnfinishedCursor : public IntRowCursor {
 public:
  Result<bool> Next(const int32_t**) override {
    return Status::Internal("scan of an IntRelation before Finish()");
  }
};

}  // namespace

/// Streams an IntRelation's packed pages into its own page buffer, one at a
/// time, and checks each page's header against the rows the relation put
/// there. A last scan owns the relation and takes each page.
class IntRelation::PageCursor : public IntRowCursor {
 public:
  /// Reads `rel` in place, or owns it when `last` is set.
  PageCursor(const IntRelation* rel, std::unique_ptr<IntRelation> last)
      : owned_(std::move(last)),
        rel_(owned_ != nullptr ? owned_.get() : rel),
        rows_left_(rel_->num_rows_),
        page_(std::make_unique<Page>()) {}

  Result<bool> Next(const int32_t** row) override {
    if (pos_ == end_) {
      if (next_ == rel_->pages_.size()) return false;
      SETM_RETURN_IF_ERROR(Load(next_++));
    }
    *row = page_->As<int32_t>(kPackedHeaderSize) + pos_;
    pos_ += rel_->width_;
    return true;
  }

 private:
  Status Load(size_t index) {
    const uint64_t expected =
        std::min<uint64_t>(rows_left_, rel_->rows_per_page_);
    SETM_RETURN_IF_ERROR(owned_ != nullptr
                             ? owned_->pages_.Take(index, page_.get())
                             : rel_->pages_.Copy(index, page_.get()));
    SETM_RETURN_IF_ERROR(CheckHeader(*page_, index, expected, rel_->width_));
    rows_left_ -= expected;
    pos_ = 0;
    end_ = expected * rel_->width_;
    return Status::OK();
  }

  std::unique_ptr<IntRelation> owned_;  ///< set for a last scan
  const IntRelation* rel_;
  uint64_t rows_left_;  ///< rows on the pages not yet loaded
  size_t next_ = 0;     ///< index of the next page to load
  std::unique_ptr<Page> page_;  ///< copy of the current page
  size_t pos_ = 0;              ///< next row's offset into its rows, in ints
  size_t end_ = 0;              ///< ints of rows on the current page
};

IntRelation::IntRelation(size_t width, BufferPool* pool, PageHook page_hook)
    : width_(width),
      rows_per_page_(RowsPerPage(width)),
      pages_(pool, std::move(page_hook), PageHint::kNone) {}

size_t IntRelation::RowsPerPage(size_t width) {
  return width == 0 ? 0
                    : (kPageSize - kPackedHeaderSize) / (width * sizeof(int32_t));
}

Result<std::unique_ptr<IntRelation>> IntRelation::CreateInPool(
    BufferPool* pool, size_t width, PageHook page_hook) {
  if (RowsPerPage(width) == 0) {
    return Status::InvalidArgument("no page holds a row of " +
                                   std::to_string(width) + " ints");
  }
  return std::unique_ptr<IntRelation>(
      new IntRelation(width, pool, std::move(page_hook)));
}

Status IntRelation::Append(const int32_t* rows, size_t n) {
  if (finished_) {
    return Status::Internal("append to an IntRelation after Finish()");
  }
  const size_t row_bytes = width_ * sizeof(int32_t);
  while (n > 0) {
    const size_t fit = std::min(n, rows_per_page_ - tail_rows_);
    std::memcpy(tail_.data + kPackedHeaderSize + tail_rows_ * row_bytes, rows,
                fit * row_bytes);
    tail_rows_ += fit;
    num_rows_ += fit;
    rows += fit * width_;
    n -= fit;
    if (tail_rows_ == rows_per_page_) SETM_RETURN_IF_ERROR(WriteTail());
  }
  return Status::OK();
}

Status IntRelation::WriteTail() {
  PackedPageHeader* h = tail_.As<PackedPageHeader>();
  h->rows = static_cast<uint32_t>(tail_rows_);
  h->width = static_cast<uint32_t>(width_);
  // A partial last page: zero what earlier pages left past its rows.
  const size_t used = kPackedHeaderSize + tail_rows_ * width_ * sizeof(int32_t);
  std::memset(tail_.data + used, 0, kPageSize - used);
  SETM_RETURN_IF_ERROR(pages_.Add(tail_));
  tail_rows_ = 0;
  return Status::OK();
}

Status IntRelation::Finish() {
  if (finished_) return Status::Internal("IntRelation finished twice");
  if (tail_rows_ > 0) SETM_RETURN_IF_ERROR(WriteTail());
  finished_ = true;
  pages_.Seal();
  return Status::OK();
}

std::unique_ptr<IntRowCursor> IntRelation::Scan() const {
  if (!finished_) return std::make_unique<UnfinishedCursor>();
  return std::make_unique<PageCursor>(this, nullptr);
}

std::unique_ptr<IntRowCursor> IntRelation::LastScan(
    std::unique_ptr<IntRelation> relation) {
  if (!relation->finished_) return std::make_unique<UnfinishedCursor>();
  return std::make_unique<PageCursor>(nullptr, std::move(relation));
}

// --------------------------------------------------------------------------
// GroupPage, GroupedRelation, GroupCursor
// --------------------------------------------------------------------------

Status GroupPage::Decode(const uint8_t* data, size_t size, Position* last,
                         std::vector<Group>* groups,
                         std::vector<int32_t>* ids) {
  groups->clear();
  ids->clear();
  if (size < kHeaderSize) {
    return Status::Corruption("a page of " + std::to_string(size) +
                              " bytes has no header");
  }
  GroupPageHeader header;
  std::memcpy(&header, data, kHeaderSize);
  if (header.bytes > size - kHeaderSize) {
    return Status::Corruption("the header's " + std::to_string(header.bytes) +
                              " bytes of groups overrun the page");
  }
  if (header.bytes == 0) return Status::Corruption("the page holds no group");
  const uint8_t* p = data + kHeaderSize;
  const uint8_t* const end = p + header.bytes;
  // A varint that fails leaves its reason in `why`; the Status is made
  // once, on the way out, not per id.
  const char* why = nullptr;
  const auto get = [&](uint32_t* v) -> bool {
    if (p != end && *p < 0x80) {  // the one-byte varint of most deltas
      *v = *p++;
      return true;
    }
    why = GetVarint(&p, end, v);
    return why == nullptr;
  };
  // Every id takes at least one byte, so the header's count is trusted
  // only that far.
  ids->reserve(std::min<size_t>(header.ids, header.bytes));
  while (p != end) {
    uint32_t tid_code, n, first_code;
    if (!get(&tid_code) || !get(&n)) return Status::Corruption(why);
    const int32_t tid = UnZigZag(tid_code);
    if (n == 0) {
      return Status::Corruption("trans_id " + std::to_string(tid) +
                                " has an empty group");
    }
    // Every id takes at least one byte.
    if (n > static_cast<size_t>(end - p)) {
      return Status::Corruption("trans_id " + std::to_string(tid) +
                                "'s group of " + std::to_string(n) +
                                " ids overruns the page");
    }
    if (!get(&first_code)) return Status::Corruption(why);
    int64_t id = UnZigZag(first_code);
    if (last->any && tid <= last->tid) {
      if (tid < last->tid) {
        return Status::Corruption("trans_id " + std::to_string(tid) +
                                  " descends after " +
                                  std::to_string(last->tid));
      }
      if (!groups->empty()) {
        return Status::Corruption("trans_id " + std::to_string(tid) +
                                  " repeats within a page");
      }
      if (id < last->id) {
        return Status::Corruption("trans_id " + std::to_string(tid) +
                                  "'s id " + std::to_string(id) +
                                  " descends after " +
                                  std::to_string(last->id));
      }
    }
    const uint32_t begin = static_cast<uint32_t>(ids->size());
    ids->push_back(static_cast<int32_t>(id));
    for (uint32_t j = 1; j < n; ++j) {
      uint32_t delta;
      if (!get(&delta)) return Status::Corruption(why);
      id += delta;
      if (id > INT32_MAX) {
        return Status::Corruption("trans_id " + std::to_string(tid) +
                                  "'s ids pass INT32_MAX");
      }
      ids->push_back(static_cast<int32_t>(id));
    }
    groups->push_back(
        Group{tid, begin, static_cast<uint32_t>(ids->size())});
    *last = Position{true, tid, static_cast<int32_t>(id)};
  }
  if (ids->size() != header.ids) {
    return Status::Corruption("the header counts " +
                              std::to_string(header.ids) + " ids where its " +
                              "groups hold " + std::to_string(ids->size()));
  }
  return Status::OK();
}

std::unique_ptr<GroupedRelation> GroupedRelation::Create(Database* db,
                                                         TableBacking backing,
                                                         std::string name,
                                                         PageHint hint) {
  if (backing == TableBacking::kHeap) {
    return std::make_unique<GroupedRelation>(
        db->pool(), std::move(name), db->UnloggedPageTagger(), hint);
  }
  return std::make_unique<GroupedRelation>(nullptr, std::move(name));
}

GroupedRelation::GroupedRelation(BufferPool* pool, std::string name,
                                 PageHook page_hook, PageHint hint)
    : name_(std::move(name)), pages_(pool, std::move(page_hook), hint) {}

Status GroupedRelation::Append(int32_t tid, const int32_t* ids, size_t n) {
  if (finished_) {
    return Status::Internal("append to " + name_ + " after Finish()");
  }
  if (n == 0) return Status::OK();
  if (any_ && tid <= last_tid_) {
    return Status::Internal("trans_id " + std::to_string(tid) +
                            " appended to " + name_ + " after " +
                            std::to_string(last_tid_));
  }
  for (size_t j = 1; j < n; ++j) {
    if (ids[j] < ids[j - 1]) {
      return Status::Internal("descending ids appended to " + name_ +
                              " for trans_id " + std::to_string(tid));
    }
  }
  any_ = true;
  last_tid_ = tid;
  num_rows_ += n;
  const uint32_t tid_code = ZigZag(tid);
  const size_t tid_size = VarintSize(tid_code);
  // Writes ids [i, i + m) to the tail page as one group.
  const auto put = [&](size_t i, size_t m) {
    uint8_t* start = reinterpret_cast<uint8_t*>(tail_.data) +
                     GroupPage::kHeaderSize + tail_bytes_;
    uint8_t* p = PutVarint(start, tid_code);
    p = PutVarint(p, static_cast<uint32_t>(m));
    p = PutVarint(p, ZigZag(ids[i]));
    for (size_t j = i + 1; j < i + m; ++j) {
      p = PutVarint(p, Delta(ids[j - 1], ids[j]));
    }
    tail_bytes_ += static_cast<size_t>(p - start);
    tail_ids_ += static_cast<uint32_t>(m);
  };
  // The usual group fits the tail at the widest varints, 5 bytes an id:
  // written at once, as the sizing below would write it.
  if (tid_size + VarintSize(static_cast<uint32_t>(n)) + 5 * n <=
      GroupPage::kCapacity - tail_bytes_) {
    put(0, n);
    return Status::OK();
  }
  for (size_t i = 0; i < n;) {
    // The ids [i, i + m) that fit the tail page as one group.
    const size_t room = GroupPage::kCapacity - tail_bytes_;
    size_t body = VarintSize(ZigZag(ids[i]));
    if (tid_size + VarintSize(1) + body > room) {
      SETM_RETURN_IF_ERROR(WriteTail());
      continue;
    }
    size_t m = 1;
    for (; i + m < n; ++m) {
      const size_t delta = VarintSize(Delta(ids[i + m - 1], ids[i + m]));
      if (tid_size + VarintSize(static_cast<uint32_t>(m + 1)) + body + delta >
          room) {
        break;
      }
      body += delta;
    }
    put(i, m);
    i += m;
    // The rest of the transaction continues on the next page.
    if (i < n) SETM_RETURN_IF_ERROR(WriteTail());
  }
  return Status::OK();
}

Status GroupedRelation::WriteTail() {
  const GroupPageHeader header{static_cast<uint32_t>(tail_bytes_), tail_ids_};
  std::memcpy(tail_.data, &header, GroupPage::kHeaderSize);
  // Zero what earlier pages left past the groups.
  const size_t used = GroupPage::kHeaderSize + tail_bytes_;
  std::memset(tail_.data + used, 0, kPageSize - used);
  SETM_RETURN_IF_ERROR(pages_.Add(tail_));
  page_ids_.push_back(tail_ids_);
  tail_bytes_ = 0;
  tail_ids_ = 0;
  return Status::OK();
}

Status GroupedRelation::Finish() {
  if (finished_) return Status::Internal(name_ + " finished twice");
  if (tail_ids_ > 0) SETM_RETURN_IF_ERROR(WriteTail());
  finished_ = true;
  pages_.Seal();
  return Status::OK();
}

std::unique_ptr<GroupCursor> GroupedRelation::Scan() const {
  return std::unique_ptr<GroupCursor>(new GroupCursor(this, nullptr));
}

std::unique_ptr<GroupCursor> GroupedRelation::LastScan(
    std::unique_ptr<GroupedRelation> relation) {
  return std::unique_ptr<GroupCursor>(
      new GroupCursor(nullptr, std::move(relation)));
}

GroupCursor::GroupCursor(const GroupedRelation* rel,
                         std::unique_ptr<GroupedRelation> last)
    : owned_(std::move(last)),
      rel_(owned_ != nullptr ? owned_.get() : rel),
      page_(std::make_unique<Page>()) {}

Status GroupCursor::Load() {
  const size_t index = next_page_++;
  SETM_RETURN_IF_ERROR(owned_ != nullptr
                           ? owned_->pages_.Take(index, page_.get())
                           : rel_->pages_.Copy(index, page_.get()));
  const auto corrupt = [&](const std::string& why) {
    return Status::Corruption(rel_->name_ + " page " + std::to_string(index) +
                              ": " + why);
  };
  Status decoded =
      GroupPage::Decode(reinterpret_cast<const uint8_t*>(page_->data),
                        kPageSize, &last_, &groups_, &ids_);
  if (!decoded.ok()) return corrupt(decoded.message());
  if (ids_.size() != rel_->page_ids_[index]) {
    return corrupt("holds " + std::to_string(ids_.size()) + " ids where " +
                   std::to_string(rel_->page_ids_[index]) + " were written");
  }
  at_ = 0;
  return Status::OK();
}

Result<bool> GroupCursor::Next(IdGroup* group) {
  if (!rel_->finished_) {
    return Status::Internal("scan of " + rel_->name_ + " before Finish()");
  }
  const size_t pages = rel_->pages_.size();
  if (at_ == groups_.size()) {
    if (next_page_ == pages) return false;
    SETM_RETURN_IF_ERROR(Load());
  }
  const GroupPage::Group& g = groups_[at_++];
  if (at_ < groups_.size() || next_page_ == pages) {
    *group = IdGroup{g.tid, ids_.data() + g.begin, ids_.data() + g.end};
    return true;
  }
  // The page's last group: its transaction may go on in the next pages'
  // first groups.
  const int32_t tid = g.tid;
  joined_.assign(ids_.data() + g.begin, ids_.data() + g.end);
  while (next_page_ < pages) {
    SETM_RETURN_IF_ERROR(Load());
    const GroupPage::Group& more = groups_.front();
    if (more.tid != tid) break;
    joined_.insert(joined_.end(), ids_.data() + more.begin,
                   ids_.data() + more.end);
    at_ = 1;
    if (at_ < groups_.size()) break;
  }
  *group = IdGroup{tid, joined_.data(), joined_.data() + joined_.size()};
  return true;
}

}  // namespace setm
