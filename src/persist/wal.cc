#include "persist/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "persist/catalog_codec.h"

namespace setm {

namespace {

constexpr uint8_t kWalRecordPage = 1;
constexpr uint8_t kWalRecordCommit = 2;

// Process-wide WAL series, shared by every Wal instance.
struct GlobalWalMetrics {
  obs::Counter* page_records;
  obs::Counter* commit_records;
  obs::Counter* bytes;
  obs::Counter* fsyncs;
  obs::Histogram* group_commit_batch;
};

const GlobalWalMetrics& WalMetrics() {
  static const GlobalWalMetrics metrics = [] {
    obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
    GlobalWalMetrics m;
    m.page_records = registry->GetCounter(
        "setm_wal_page_records_total", "Page after-images appended to WALs");
    m.commit_records = registry->GetCounter(
        "setm_wal_commit_records_total", "Commit markers appended to WALs");
    m.bytes = registry->GetCounter("setm_wal_bytes_total",
                                   "Record bytes appended to WALs");
    m.fsyncs = registry->GetCounter("setm_wal_fsyncs_total",
                                    "WAL syncs that reached the file");
    m.group_commit_batch = registry->GetHistogram(
        "setm_wal_group_commit_batch",
        "Commit records made durable per WAL fsync");
    return m;
  }();
  return metrics;
}

static_assert(kWalPageRecordSize == 21 + kPageSize,
              "page record layout drifted from the documented format");
static_assert(kWalCommitRecordSize == 17,
              "commit record layout drifted from the documented format");

/// Serialized page record. The CRC covers type+seq+id+payload, so a record
/// whose tail never hit the disk (torn append) fails validation and ends
/// replay exactly there.
std::string EncodePageRecord(uint64_t seq, PageId id, const Page& page) {
  RecordWriter crc_input;
  crc_input.PutU8(kWalRecordPage);
  crc_input.PutU64(seq);
  crc_input.PutU32(id);
  std::string bytes = crc_input.bytes();
  bytes.append(page.data, kPageSize);
  const uint64_t crc = Fnv1a64(bytes);

  RecordWriter w;
  w.PutU8(kWalRecordPage);
  w.PutU64(seq);
  w.PutU32(id);
  w.PutU64(crc);
  std::string record = w.bytes();
  record.append(page.data, kPageSize);
  SETM_DCHECK(record.size() == kWalPageRecordSize);
  return record;
}

std::string EncodeCommitRecord(uint64_t seq) {
  RecordWriter crc_input;
  crc_input.PutU8(kWalRecordCommit);
  crc_input.PutU64(seq);
  const uint64_t crc = Fnv1a64(crc_input.bytes());

  RecordWriter w;
  w.PutU8(kWalRecordCommit);
  w.PutU64(seq);
  w.PutU64(crc);
  SETM_DCHECK(w.size() == kWalCommitRecordSize);
  return w.bytes();
}

}  // namespace

// ---------------------------------------------------------------------------
// PosixWalFile
// ---------------------------------------------------------------------------

Result<std::unique_ptr<PosixWalFile>> PosixWalFile::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("open(" + path + "): " + std::strerror(errno));
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return Status::IOError("lseek(" + path + "): " + std::strerror(errno));
  }
  return std::unique_ptr<PosixWalFile>(
      new PosixWalFile(path, fd, static_cast<uint64_t>(size)));
}

PosixWalFile::~PosixWalFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status PosixWalFile::Append(std::string_view data) {
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = ::pwrite(fd_, data.data() + written, data.size() - written,
                         static_cast<off_t>(size_ + written));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite(" + path_ + "): " +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  size_ += data.size();
  return Status::OK();
}

Status PosixWalFile::Read(uint64_t offset, size_t n, std::string* out) {
  out->clear();
  out->resize(n);
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::pread(fd_, out->data() + got, n - got,
                        static_cast<off_t>(offset + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread(" + path_ + "): " + std::strerror(errno));
    }
    if (r == 0) break;  // EOF: short read is the caller's signal
    got += static_cast<size_t>(r);
  }
  out->resize(got);
  return Status::OK();
}

Result<uint64_t> PosixWalFile::Size() { return size_; }

Status PosixWalFile::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IOError("fdatasync(" + path_ + "): " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status PosixWalFile::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Status::IOError("ftruncate(" + path_ + "): " +
                           std::strerror(errno));
  }
  size_ = size;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Wal
// ---------------------------------------------------------------------------

void Wal::SetEpoch(uint64_t seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  epoch_ = seq;
}

Status Wal::AppendPage(PageId id, const Page& page) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string record = EncodePageRecord(epoch_, id, page);
  SETM_RETURN_IF_ERROR(file_->Append(record));
  overlay_[id] = append_offset_ + kWalPagePayloadOffset;
  append_offset_ += record.size();
  needs_commit_ = true;
  unsynced_ = true;
  ++stats_.page_records;
  stats_.bytes_appended += record.size();
  WalMetrics().page_records->Increment();
  WalMetrics().bytes->Increment(record.size());
  return Status::OK();
}

Status Wal::AppendCommit() {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string record = EncodeCommitRecord(epoch_);
  SETM_RETURN_IF_ERROR(file_->Append(record));
  append_offset_ += record.size();
  needs_commit_ = false;
  unsynced_ = true;
  ++stats_.commit_records;
  stats_.bytes_appended += record.size();
  ++commits_since_sync_;
  WalMetrics().commit_records->Increment();
  WalMetrics().bytes->Increment(record.size());
  return Status::OK();
}

Status Wal::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!unsynced_) return Status::OK();
  SETM_RETURN_IF_ERROR(file_->Sync());
  unsynced_ = false;
  ++stats_.fsyncs;
  WalMetrics().fsyncs->Increment();
  // How many commit markers this fsync made durable — the group-commit
  // payoff the commit window buys.
  WalMetrics().group_commit_batch->Observe(commits_since_sync_);
  commits_since_sync_ = 0;
  return Status::OK();
}

Result<bool> Wal::TryReadImage(PageId id, Page* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = overlay_.find(id);
  if (it == overlay_.end()) return false;
  std::string bytes;
  SETM_RETURN_IF_ERROR(file_->Read(it->second, kPageSize, &bytes));
  if (bytes.size() != kPageSize) {
    return Status::Corruption("WAL overlay read of page " +
                              std::to_string(id) + " came back short (" +
                              std::to_string(bytes.size()) + " bytes)");
  }
  std::memcpy(out->data, bytes.data(), kPageSize);
  return true;
}

Status Wal::Materialize(StorageBackend* target) {
  std::lock_guard<std::mutex> lock(mutex_);
  Page page;
  std::string bytes;
  for (const auto& [id, offset] : overlay_) {
    SETM_RETURN_IF_ERROR(file_->Read(offset, kPageSize, &bytes));
    if (bytes.size() != kPageSize) {
      return Status::Corruption("WAL overlay read of page " +
                                std::to_string(id) + " came back short (" +
                                std::to_string(bytes.size()) + " bytes)");
    }
    std::memcpy(page.data, bytes.data(), kPageSize);
    SETM_RETURN_IF_ERROR(target->WritePage(id, page));
  }
  return Status::OK();
}

Status Wal::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  SETM_RETURN_IF_ERROR(file_->Truncate(0));
  SETM_RETURN_IF_ERROR(file_->Sync());
  overlay_.clear();
  append_offset_ = 0;
  needs_commit_ = false;
  unsynced_ = false;
  return Status::OK();
}

Status Wal::Recover(uint64_t expect_seq, StorageBackend* inner,
                    uint64_t* replayed_pages) {
  std::lock_guard<std::mutex> lock(mutex_);
  SETM_RETURN_IF_ERROR(
      ReplayWal(file_.get(), expect_seq, inner, replayed_pages));
  overlay_.clear();
  append_offset_ = 0;
  needs_commit_ = false;
  unsynced_ = false;
  return Status::OK();
}

bool Wal::HasRecords() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !overlay_.empty();
}

bool Wal::NeedsCommitMarker() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return needs_commit_;
}

bool Wal::HasUnsyncedData() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return unsynced_;
}

WalStats Wal::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// ---------------------------------------------------------------------------
// WalBackend
// ---------------------------------------------------------------------------

Result<PageId> WalBackend::AllocatePage() {
  auto id_or = inner_->AllocatePage();
  if (id_or.ok()) AccountAllocation();
  return id_or;
}

Status WalBackend::ReadPage(PageId id, Page* out) {
  if (IsUnlogged(id)) {
    // Unlogged pages are written straight to the inner file, so the file is
    // always current for them — the overlay cannot hold a newer image: a
    // page joins the free list either at the checkpoint that clears the
    // overlay or as released scratch, which never reached the log.
    SETM_RETURN_IF_ERROR(inner_->ReadPage(id, out));
    AccountRead(id);
    return Status::OK();
  }
  auto from_wal = wal_->TryReadImage(id, out);
  if (!from_wal.ok()) return from_wal.status();
  if (!from_wal.value()) {
    SETM_RETURN_IF_ERROR(inner_->ReadPage(id, out));
  }
  AccountRead(id);
  return Status::OK();
}

Status WalBackend::WritePage(PageId id, const Page& page) {
  if (id >= inner_->NumPages()) {
    return Status::InvalidArgument("write of unallocated page " +
                                   std::to_string(id));
  }
  if (IsUnlogged(id)) {
    SETM_RETURN_IF_ERROR(inner_->WritePage(id, page));
    AccountWrite(id);
    return Status::OK();
  }
  SETM_RETURN_IF_ERROR(wal_->AppendPage(id, page));
  AccountWrite(id);
  return Status::OK();
}

void WalBackend::MarkUnlogged(PageId id) {
  std::lock_guard<std::mutex> lock(unlogged_mutex_);
  unlogged_.insert(id);
}

void WalBackend::ClearUnlogged(PageId id) {
  std::lock_guard<std::mutex> lock(unlogged_mutex_);
  unlogged_.erase(id);
}

bool WalBackend::IsUnlogged(PageId id) const {
  std::lock_guard<std::mutex> lock(unlogged_mutex_);
  return unlogged_.count(id) != 0;
}

size_t WalBackend::UnloggedPageCount() const {
  std::lock_guard<std::mutex> lock(unlogged_mutex_);
  return unlogged_.size();
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

Status ReplayWal(WalFile* file, uint64_t expect_seq, StorageBackend* inner,
                 uint64_t* replayed_pages) {
  auto size_or = file->Size();
  if (!size_or.ok()) return size_or.status();
  const uint64_t size = size_or.value();
  if (replayed_pages != nullptr) *replayed_pages = 0;

  std::string buf;
  if (size > 0) {
    SETM_RETURN_IF_ERROR(file->Read(0, size, &buf));
  }

  // Pass 1: scan forward, validating every record, and remember where the last
  // intact commit record of the expected epoch ends. Any malformed byte —
  // unknown type, short record, CRC mismatch — is a torn tail: the scan
  // stops and everything from there on is discarded.
  struct PendingImage {
    PageId id;
    size_t payload_offset;
  };
  std::vector<std::pair<size_t, PendingImage>> images;  // (record offset, _)
  size_t offset = 0;
  size_t committed_end = 0;
  while (offset < buf.size()) {
    const uint8_t type = static_cast<uint8_t>(buf[offset]);
    if (type == kWalRecordPage) {
      if (buf.size() - offset < kWalPageRecordSize) break;
      RecordReader r(std::string_view(buf).substr(offset, 21));
      (void)r.GetU8();
      const uint64_t seq = r.GetU64().value();
      const PageId id = r.GetU32().value();
      const uint64_t crc = r.GetU64().value();
      RecordWriter crc_input;
      crc_input.PutU8(kWalRecordPage);
      crc_input.PutU64(seq);
      crc_input.PutU32(id);
      std::string check = crc_input.bytes();
      check.append(buf, offset + kWalPagePayloadOffset, kPageSize);
      if (Fnv1a64(check) != crc) break;
      if (seq == expect_seq) {
        images.push_back({offset, {id, offset + kWalPagePayloadOffset}});
      }
      offset += kWalPageRecordSize;
    } else if (type == kWalRecordCommit) {
      if (buf.size() - offset < kWalCommitRecordSize) break;
      RecordReader r(std::string_view(buf).substr(offset, 9));
      (void)r.GetU8();
      const uint64_t seq = r.GetU64().value();
      RecordReader rc(
          std::string_view(buf).substr(offset + 9, 8));
      const uint64_t crc = rc.GetU64().value();
      RecordWriter crc_input;
      crc_input.PutU8(kWalRecordCommit);
      crc_input.PutU64(seq);
      if (Fnv1a64(crc_input.bytes()) != crc) break;
      if (seq == expect_seq) committed_end = offset + kWalCommitRecordSize;
      offset += kWalCommitRecordSize;
    } else {
      break;
    }
  }

  // Pass 2: apply committed images, last write per page wins.
  std::map<PageId, size_t> latest;  // ordered: extension happens low-to-high
  for (const auto& [record_offset, img] : images) {
    if (record_offset >= committed_end) continue;
    latest[img.id] = img.payload_offset;
  }
  Page page;
  for (const auto& [id, payload_offset] : latest) {
    if (id <= 1) {
      // Superblock slots are written directly by the checkpoint, never
      // through the WAL; a log claiming otherwise is hand-crafted garbage.
      SETM_LOG(kWarn) << "WAL replay skipping image of superblock page "
                         << id;
      continue;
    }
    while (id >= inner->NumPages()) {
      auto alloc = inner->AllocatePage();
      if (!alloc.ok()) return alloc.status();
    }
    std::memcpy(page.data, buf.data() + payload_offset, kPageSize);
    SETM_RETURN_IF_ERROR(inner->WritePage(id, page));
    if (replayed_pages != nullptr) ++*replayed_pages;
  }
  if (!latest.empty()) {
    SETM_RETURN_IF_ERROR(inner->Sync());
  }

  // The log's job is done (or it held nothing applicable); truncating keeps
  // a stale epoch from being rescanned forever.
  if (size > 0) {
    SETM_RETURN_IF_ERROR(file->Truncate(0));
    SETM_RETURN_IF_ERROR(file->Sync());
  }
  return Status::OK();
}

}  // namespace setm
