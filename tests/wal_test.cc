// Crash-consistency tests for the write-ahead log (src/persist/wal) and the
// dual-slot superblock protocol: a simulated disk with an operation fuse
// cuts "power" after the K-th storage operation, for every K until the
// workload completes — then the database is reopened from the durable bytes
// alone and must (a) open, and (b) contain exactly a whole-batch prefix of
// the committed work. Real-file tests cover byte-level damage the
// operation-granular simulator cannot express: torn WAL tails, corrupt
// records, scribbled superblock slots, and foreign format versions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/miner_registry.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"
#include "incremental/itemset_store.h"
#include "obs/metrics.h"
#include "persist/superblock.h"
#include "persist/wal.h"
#include "relational/database.h"
#include "storage/storage_backend.h"

namespace setm {
namespace {

Schema TwoIntSchema() {
  return Schema(
      {Column{"a", ValueType::kInt32}, Column{"b", ValueType::kInt32}});
}

// --------------------------------------------------------------------------
// Simulated disk
// --------------------------------------------------------------------------

/// Shared state of one simulated device: the volatile view (what the
/// process reads back) and the durable view (what survives the power cut).
/// Every fallible operation ticks the fuse; once it reaches zero the device
/// is dead — the operation fails *before* taking effect and the durable
/// view is frozen.
///
/// Two durability models bracket real hardware:
///   retain=false — nothing becomes durable except at an explicit Sync
///                  (maximum write-back caching);
///   retain=true  — every completed operation is durable instantly
///                  (write-through, the strictest ordering).
struct SimDisk {
  bool retain = false;
  int64_t fuse = -1;  ///< operations until power loss; -1 = reliable
  bool crashed = false;
  uint64_t wal_syncs = 0;

  std::vector<Page> pages;
  std::vector<Page> pages_durable;
  std::string wal;
  std::string wal_durable;
  /// Every page id allocated and read, in order (the R_1 residency test).
  std::vector<PageId> allocations;
  std::vector<PageId> reads;

  Status Tick(const char* op) {
    if (crashed) {
      return Status::IOError(std::string("simulated power loss (") + op +
                             ")");
    }
    if (fuse >= 0) {
      if (fuse == 0) {
        crashed = true;
        return Status::IOError(std::string("simulated power loss (") + op +
                               ")");
      }
      --fuse;
    }
    return Status::OK();
  }
};

class CrashSimBackend : public StorageBackend {
 public:
  explicit CrashSimBackend(std::shared_ptr<SimDisk> disk)
      : StorageBackend(nullptr), disk_(std::move(disk)) {}

  Result<PageId> AllocatePage() override {
    SETM_RETURN_IF_ERROR(disk_->Tick("page alloc"));
    disk_->pages.emplace_back();
    disk_->pages.back().Clear();
    if (disk_->retain) disk_->pages_durable = disk_->pages;
    disk_->allocations.push_back(
        static_cast<PageId>(disk_->pages.size() - 1));
    return static_cast<PageId>(disk_->pages.size() - 1);
  }
  Status ReadPage(PageId id, Page* out) override {
    SETM_RETURN_IF_ERROR(disk_->Tick("page read"));
    if (id >= disk_->pages.size()) {
      return Status::InvalidArgument("page " + std::to_string(id) +
                                     " was never allocated");
    }
    disk_->reads.push_back(id);
    *out = disk_->pages[id];
    return Status::OK();
  }
  Status WritePage(PageId id, const Page& page) override {
    SETM_RETURN_IF_ERROR(disk_->Tick("page write"));
    if (id >= disk_->pages.size()) {
      return Status::InvalidArgument("page " + std::to_string(id) +
                                     " was never allocated");
    }
    disk_->pages[id] = page;
    if (disk_->retain) disk_->pages_durable = disk_->pages;
    return Status::OK();
  }
  uint64_t NumPages() const override { return disk_->pages.size(); }
  Status Sync() override {
    SETM_RETURN_IF_ERROR(disk_->Tick("page-store sync"));
    disk_->pages_durable = disk_->pages;
    return Status::OK();
  }

 private:
  std::shared_ptr<SimDisk> disk_;
};

class CrashSimWalFile : public WalFile {
 public:
  explicit CrashSimWalFile(std::shared_ptr<SimDisk> disk)
      : disk_(std::move(disk)) {}

  Status Append(std::string_view data) override {
    SETM_RETURN_IF_ERROR(disk_->Tick("wal append"));
    disk_->wal.append(data.data(), data.size());
    if (disk_->retain) disk_->wal_durable = disk_->wal;
    return Status::OK();
  }
  Status Read(uint64_t offset, size_t n, std::string* out) override {
    SETM_RETURN_IF_ERROR(disk_->Tick("wal read"));
    out->clear();
    if (offset >= disk_->wal.size()) return Status::OK();
    out->assign(disk_->wal, offset,
                std::min<size_t>(n, disk_->wal.size() - offset));
    return Status::OK();
  }
  Result<uint64_t> Size() override {
    SETM_RETURN_IF_ERROR(disk_->Tick("wal size"));
    return static_cast<uint64_t>(disk_->wal.size());
  }
  Status Sync() override {
    SETM_RETURN_IF_ERROR(disk_->Tick("wal sync"));
    disk_->wal_durable = disk_->wal;
    ++disk_->wal_syncs;
    return Status::OK();
  }
  Status Truncate(uint64_t size) override {
    SETM_RETURN_IF_ERROR(disk_->Tick("wal truncate"));
    disk_->wal.resize(size);
    if (disk_->retain) disk_->wal_durable = disk_->wal;
    return Status::OK();
  }

 private:
  std::shared_ptr<SimDisk> disk_;
};

DatabaseOptions SimOptions(std::shared_ptr<SimDisk> disk,
                           uint64_t window_ms = 0) {
  DatabaseOptions options;
  options.file_path = "sim.db";  // name only; the factories intercept all IO
  options.pool_frames = 64;
  options.wal_commit_window_ms = window_ms;
  options.backend_factory =
      [disk](const std::string&) -> Result<std::unique_ptr<StorageBackend>> {
    return std::unique_ptr<StorageBackend>(new CrashSimBackend(disk));
  };
  options.wal_factory =
      [disk](const std::string&) -> Result<std::unique_ptr<WalFile>> {
    return std::unique_ptr<WalFile>(new CrashSimWalFile(disk));
  };
  return options;
}

/// A fresh, reliable disk holding exactly what survived the power cut.
std::shared_ptr<SimDisk> Revive(const SimDisk& dead) {
  auto disk = std::make_shared<SimDisk>();
  disk->pages = dead.pages_durable;
  disk->pages_durable = dead.pages_durable;
  disk->wal = dead.wal_durable;
  disk->wal_durable = dead.wal_durable;
  return disk;
}

Result<uint64_t> CountRows(Table* table) {
  auto it = table->Scan();
  Tuple row;
  uint64_t n = 0;
  while (true) {
    auto more = it->Next(&row);
    if (!more.ok()) return more.status();
    if (!more.value()) break;
    ++n;
  }
  return n;
}

/// Silences the library logger entirely (one level past kError) for the
/// fuse sweep: hundreds of intentionally-failing checkpoints would
/// otherwise flood stderr with expected error lines.
class ScopedLogSilence {
 public:
  ScopedLogSilence() : prev_(GetLogLevel()) {
    SetLogLevel(
        static_cast<LogLevel>(static_cast<int>(LogLevel::kError) + 1));
  }
  ~ScopedLogSilence() { SetLogLevel(prev_); }

 private:
  LogLevel prev_;
};

// --------------------------------------------------------------------------
// Crash matrix
// --------------------------------------------------------------------------

constexpr int kBatch = 8;
constexpr int kBatches = 3;

struct RunOutcome {
  bool open_ok = false;
  bool created = false;
  int committed_batches = 0;  ///< Commit() calls that returned OK
  bool checkpoint_ok = false;
  bool close_ok = false;
};

/// open -> create table -> three committed batches (with a checkpoint after
/// the second) -> close. Stops at the first failed step; Close() is always
/// invoked so the destructor stays quiet on the dead disk.
RunOutcome RunWorkload(std::shared_ptr<SimDisk> disk) {
  RunOutcome out;
  auto db_or = Database::Open(SimOptions(disk));
  if (!db_or.ok()) return out;
  std::unique_ptr<Database> db = std::move(db_or).value();
  out.open_ok = true;

  auto table_or =
      db->catalog()->CreateTable("t", TwoIntSchema(), TableBacking::kHeap);
  if (!table_or.ok()) {
    (void)db->Close();
    return out;
  }
  out.created = true;
  Table* t = table_or.value();
  for (int b = 0; b < kBatches; ++b) {
    for (int i = 0; i < kBatch; ++i) {
      const int v = b * kBatch + i;
      if (!t->Insert(Tuple({Value::Int32(v), Value::Int32(v * 7)})).ok()) {
        (void)db->Close();
        return out;
      }
    }
    if (!db->Commit().ok()) {
      (void)db->Close();
      return out;
    }
    ++out.committed_batches;
    if (b == 1) {
      if (!db->Checkpoint().ok()) {
        (void)db->Close();
        return out;
      }
      out.checkpoint_ok = true;
    }
  }
  out.close_ok = db->Close().ok();
  return out;
}

TEST(WalCrashMatrixTest, PowerCutAtEveryOperationKeepsCommittedBatches) {
  ScopedLogSilence quiet;
  for (bool retain : {false, true}) {
    bool completed = false;
    int64_t fuse = 0;
    for (; fuse < 5000 && !completed; ++fuse) {
      auto disk = std::make_shared<SimDisk>();
      disk->retain = retain;
      disk->fuse = fuse;
      const RunOutcome run = RunWorkload(disk);
      completed = !disk->crashed;

      // The very first open may have been cut before any superblock became
      // durable; such a disk holds no database and may refuse to open.
      if (!run.open_ok) continue;

      auto revived = Database::Open(SimOptions(Revive(*disk)));
      ASSERT_TRUE(revived.ok())
          << "retain=" << retain << " fuse=" << fuse << ": "
          << revived.status().ToString();
      std::unique_ptr<Database> db = std::move(revived).value();

      uint64_t rows = 0;
      if (db->catalog()->HasTable("t")) {
        auto t = db->catalog()->GetTable("t");
        ASSERT_TRUE(t.ok()) << t.status().ToString();
        auto n = CountRows(t.value());
        ASSERT_TRUE(n.ok())
            << "retain=" << retain << " fuse=" << fuse << ": "
            << n.status().ToString();
        rows = n.value();
      } else {
        // CreateTable returns only after its checkpoint is durable.
        ASSERT_FALSE(run.created)
            << "retain=" << retain << " fuse=" << fuse
            << ": durably created table vanished";
      }
      EXPECT_EQ(rows % kBatch, 0u)
          << "torn batch: retain=" << retain << " fuse=" << fuse;
      EXPECT_GE(rows,
                static_cast<uint64_t>(kBatch) * run.committed_batches)
          << "committed batch lost: retain=" << retain << " fuse=" << fuse;
      EXPECT_LE(rows, static_cast<uint64_t>(kBatch) * kBatches);
      if (run.close_ok) {
        EXPECT_EQ(rows, static_cast<uint64_t>(kBatch) * kBatches);
      }
      ASSERT_TRUE(db->Close().ok());
    }
    EXPECT_TRUE(completed)
        << "retain=" << retain
        << ": fuse sweep never reached a crash-free run";
  }
}

// --------------------------------------------------------------------------
// Group commit
// --------------------------------------------------------------------------

TEST(GroupCommitTest, ZeroWindowSyncsEveryCommit) {
  auto disk = std::make_shared<SimDisk>();
  auto db_or = Database::Open(SimOptions(disk, /*window_ms=*/0));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::unique_ptr<Database> db = std::move(db_or).value();
  auto t = db->catalog()->CreateTable("t", TwoIntSchema(),
                                      TableBacking::kHeap);
  ASSERT_TRUE(t.ok());
  const uint64_t before = disk->wal_syncs;
  for (int b = 0; b < 5; ++b) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(t.value()
                      ->Insert(Tuple({Value::Int32(b * 3 + i),
                                      Value::Int32(i)}))
                      .ok());
    }
    ASSERT_TRUE(db->Commit().ok());
  }
  EXPECT_EQ(disk->wal_syncs - before, 5u);
  ASSERT_TRUE(db->Close().ok());
}

TEST(GroupCommitTest, WideWindowSharesOneFsyncAcrossBatches) {
  auto disk = std::make_shared<SimDisk>();
  auto db_or = Database::Open(SimOptions(disk, /*window_ms=*/3'600'000));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::unique_ptr<Database> db = std::move(db_or).value();
  auto t = db->catalog()->CreateTable("t", TwoIntSchema(),
                                      TableBacking::kHeap);
  ASSERT_TRUE(t.ok());
  const uint64_t before = disk->wal_syncs;
  for (int b = 0; b < 5; ++b) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(t.value()
                      ->Insert(Tuple({Value::Int32(b * 3 + i),
                                      Value::Int32(i)}))
                      .ok());
    }
    ASSERT_TRUE(db->Commit().ok());
  }
  // All five commits rode the window: no fsync of their own.
  EXPECT_EQ(disk->wal_syncs - before, 0u);

  // A cut now may lose the un-synced window, but only in whole batches.
  {
    auto mid = Database::Open(SimOptions(Revive(*disk)));
    ASSERT_TRUE(mid.ok()) << mid.status().ToString();
    auto mid_t = mid.value()->catalog()->GetTable("t");
    ASSERT_TRUE(mid_t.ok());
    auto n = CountRows(mid_t.value());
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(n.value() % 3, 0u);
    ASSERT_TRUE(mid.value()->Close().ok());
  }

  // Close checkpoints (checkpoints always sync): everything durable now.
  ASSERT_TRUE(db->Close().ok());
  auto after = Database::Open(SimOptions(Revive(*disk)));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  auto after_t = after.value()->catalog()->GetTable("t");
  ASSERT_TRUE(after_t.ok());
  auto n = CountRows(after_t.value());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 15u);
  ASSERT_TRUE(after.value()->Close().ok());
}

// --------------------------------------------------------------------------
// Real-file damage: torn WAL tails, corrupt records, scribbled slots
// --------------------------------------------------------------------------

/// A scratch database file path (plus its WAL sidecar), removed on
/// destruction.
class TempDbFile {
 public:
  explicit TempDbFile(const std::string& name)
      : path_(testing::TempDir() + "/" + name) {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
  }
  ~TempDbFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
  }
  const std::string& path() const { return path_; }
  std::string wal_path() const { return path_ + ".wal"; }

 private:
  std::string path_;
};

DatabaseOptions FileOptions(const TempDbFile& file) {
  DatabaseOptions options;
  options.file_path = file.path();
  return options;
}

uint64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<uint64_t>(in.tellg()) : 0;
}

void CopyFile(const std::string& src, const std::string& dst) {
  std::ifstream in(src, std::ios::binary);
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  out << in.rdbuf();
}

void TruncateTo(const std::string& path, uint64_t size) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  bytes.resize(size);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void FlipByteAt(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0xFF);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
}

void OverwriteRange(const std::string& path, uint64_t offset, size_t n,
                    char fill) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  std::string bytes(n, fill);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(bytes.data(), static_cast<std::streamsize>(n));
}

/// Creates a db with two committed batches of kBatch rows each, snapshots
/// file + WAL mid-flight into `snap`, then closes the original cleanly.
void TwoCommittedBatchesSnapshot(const TempDbFile& file,
                                 const TempDbFile& snap) {
  auto db_or = Database::Open(FileOptions(file));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::unique_ptr<Database> db = std::move(db_or).value();
  auto t = db->catalog()->CreateTable("t", TwoIntSchema(),
                                      TableBacking::kHeap);
  ASSERT_TRUE(t.ok());
  for (int b = 0; b < 2; ++b) {
    for (int i = 0; i < kBatch; ++i) {
      const int v = b * kBatch + i;
      ASSERT_TRUE(
          t.value()->Insert(Tuple({Value::Int32(v), Value::Int32(v)})).ok());
    }
    ASSERT_TRUE(db->Commit().ok());
  }
  CopyFile(file.path(), snap.path());
  CopyFile(file.wal_path(), snap.wal_path());
  ASSERT_TRUE(db->Close().ok());
}

// The process-wide page counters count each main-file page once, as the
// database's ledger does: the WAL decorator counts a page, the file under
// it does not. A file-backed kHeap mine that spills nothing moves the
// counters by exactly the reads and writes of MiningResult::io.
TEST(WalBackendTest, PageCountersMatchTheLedger) {
  TempDbFile file("wal_page_counters.db");
  DatabaseOptions options = FileOptions(file);
  options.pool_frames = 8;  // smaller than the mine's working set
  auto db_or = Database::Open(options);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::unique_ptr<Database> db = std::move(db_or).value();
  QuestOptions gen;
  gen.seed = 1;
  gen.num_transactions = 2000;
  gen.avg_transaction_size = 8;
  gen.num_items = 100;
  auto sales = LoadSalesTable(db.get(), "sales",
                              QuestGenerator(gen).Generate(),
                              TableBacking::kHeap);
  ASSERT_TRUE(sales.ok()) << sales.status().ToString();
  ASSERT_TRUE(db->Commit().ok());

  auto* registry = obs::MetricsRegistry::Global();
  const auto counter = [registry](const char* name) {
    return registry->GetCounter(name, "")->Value();
  };
  const uint64_t reads = counter("setm_io_page_reads_total");
  const uint64_t writes = counter("setm_io_page_writes_total");
  const uint64_t spills = counter("setm_count_spilled_runs_total");
  SetmOptions knobs;
  knobs.storage = TableBacking::kHeap;
  auto miner = MinerRegistry::Create("setm", db.get(), knobs);
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();
  MiningRequest request;
  request.table = sales.value();
  request.options.min_support = 0.02;
  auto result = miner.value()->Mine(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(counter("setm_count_spilled_runs_total"), spills);
  const IoStats& io = result.value().io;
  EXPECT_GT(io.page_reads, 0u);
  EXPECT_GT(io.page_writes, 0u);
  EXPECT_EQ(counter("setm_io_page_reads_total") - reads, io.page_reads);
  EXPECT_EQ(counter("setm_io_page_writes_total") - writes, io.page_writes);
  ASSERT_TRUE(db->Close().ok());
}

TEST(WalRecoveryTest, TornTailDropsOnlyTheUncommittedSuffix) {
  TempDbFile file("wal_torn_tail.db");
  TempDbFile snap("wal_torn_tail_snap.db");
  ASSERT_NO_FATAL_FAILURE(TwoCommittedBatchesSnapshot(file, snap));

  // The log ends with batch 2's commit record; tearing its last bytes off
  // un-commits exactly that batch.
  const uint64_t size = FileSize(snap.wal_path());
  ASSERT_GT(size, 10u);
  TruncateTo(snap.wal_path(), size - 10);

  auto db_or = Database::Open(FileOptions(snap));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto t = db_or.value()->catalog()->GetTable("t");
  ASSERT_TRUE(t.ok());
  auto n = CountRows(t.value());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), static_cast<uint64_t>(kBatch))
      << "replay must stop at the last intact commit record";
  ASSERT_TRUE(db_or.value()->Close().ok());
}

TEST(WalRecoveryTest, CorruptRecordEndsReplayAtLastGoodCommit) {
  TempDbFile file("wal_corrupt_record.db");
  TempDbFile snap("wal_corrupt_record_snap.db");
  ASSERT_NO_FATAL_FAILURE(TwoCommittedBatchesSnapshot(file, snap));

  // Damage the last page record (it precedes the final commit record):
  // its CRC fails, the scan ends there, and batch 2 loses its commit.
  const uint64_t size = FileSize(snap.wal_path());
  ASSERT_GT(size, kWalCommitRecordSize + 100);
  FlipByteAt(snap.wal_path(), size - kWalCommitRecordSize - 100);

  auto db_or = Database::Open(FileOptions(snap));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto t = db_or.value()->catalog()->GetTable("t");
  ASSERT_TRUE(t.ok());
  auto n = CountRows(t.value());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), static_cast<uint64_t>(kBatch));
  ASSERT_TRUE(db_or.value()->Close().ok());
}

TEST(WalRecoveryTest, MissingSidecarRollsBackToLastCheckpoint) {
  TempDbFile file("wal_missing_sidecar.db");
  TempDbFile snap("wal_missing_sidecar_snap.db");
  ASSERT_NO_FATAL_FAILURE(TwoCommittedBatchesSnapshot(file, snap));

  // Losing the sidecar forfeits the committed-but-uncheckpointed batches —
  // but never yields a torn or unopenable database.
  std::remove(snap.wal_path().c_str());
  auto db_or = Database::Open(FileOptions(snap));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto t = db_or.value()->catalog()->GetTable("t");
  ASSERT_TRUE(t.ok());
  auto n = CountRows(t.value());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u) << "the main file never holds uncommitted rows";
  ASSERT_TRUE(db_or.value()->Close().ok());
}

TEST(SuperblockRecoveryTest, TornSlotFallsBackToPreviousCheckpoint) {
  TempDbFile file("wal_torn_slot.db");
  uint64_t seq = 0;
  {
    auto db_or = Database::Open(FileOptions(file));
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    auto t = db_or.value()->catalog()->CreateTable("t", TwoIntSchema(),
                                                   TableBacking::kHeap);
    ASSERT_TRUE(t.ok());
    for (int i = 0; i < kBatch; ++i) {
      ASSERT_TRUE(
          t.value()->Insert(Tuple({Value::Int32(i), Value::Int32(i)})).ok());
    }
    ASSERT_TRUE(db_or.value()->Close().ok());
    seq = db_or.value()->checkpoint_count();
  }
  ASSERT_GE(seq, 2u);

  // Scribble over the slot the latest checkpoint published (seq % 2); the
  // sibling slot still holds the previous checkpoint and must win.
  OverwriteRange(file.path(), (seq % 2) * kPageSize, kPageSize, '\xFF');
  auto db_or = Database::Open(FileOptions(file));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  EXPECT_EQ(db_or.value()->checkpoint_count(), seq - 1);
  EXPECT_TRUE(db_or.value()->catalog()->HasTable("t"));
  ASSERT_TRUE(db_or.value()->Close().ok());
}

TEST(SuperblockRecoveryTest, BothSlotsCorruptRefusesToOpen) {
  TempDbFile file("wal_both_slots_bad.db");
  {
    auto db_or = Database::Open(FileOptions(file));
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    ASSERT_TRUE(db_or.value()->Close().ok());
  }
  OverwriteRange(file.path(), 0, 2 * kPageSize, '\xFF');
  auto db_or = Database::Open(FileOptions(file));
  ASSERT_FALSE(db_or.ok());
  EXPECT_EQ(db_or.status().code(), StatusCode::kCorruption);
}

TEST(SuperblockRecoveryTest, V1FormatGetsMigrationHintNotFallback) {
  TempDbFile file("wal_v1_format.db");
  {
    auto db_or = Database::Open(FileOptions(file));
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    ASSERT_TRUE(db_or.value()->Close().ok());
  }
  // Rewrite slot A's format-version field (u32 at byte 8) to 1. Even with
  // a valid sibling slot, a cleanly-versioned foreign slot must propagate
  // NotSupported — version mismatch is not crash damage.
  OverwriteRange(file.path(), 8, 1, '\x01');
  OverwriteRange(file.path(), 9, 3, '\x00');
  auto db_or = Database::Open(FileOptions(file));
  ASSERT_FALSE(db_or.ok());
  EXPECT_EQ(db_or.status().code(), StatusCode::kNotSupported);
  EXPECT_NE(db_or.status().ToString().find("re-export"), std::string::npos)
      << db_or.status().ToString();
}

// --------------------------------------------------------------------------
// Checkpoint no-op + free-page reuse
// --------------------------------------------------------------------------

TEST(CheckpointTest, CleanCheckpointIsANoOpAndCloseIsIdempotent) {
  TempDbFile file("wal_checkpoint_noop.db");
  auto db_or = Database::Open(FileOptions(file));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::unique_ptr<Database> db = std::move(db_or).value();
  auto t = db->catalog()->CreateTable("t", TwoIntSchema(),
                                      TableBacking::kHeap);
  ASSERT_TRUE(t.ok());
  for (int i = 0; i < kBatch; ++i) {
    ASSERT_TRUE(
        t.value()->Insert(Tuple({Value::Int32(i), Value::Int32(i)})).ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  const uint64_t seq = db->checkpoint_count();
  const uint64_t size = FileSize(file.path());

  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_EQ(db->checkpoint_count(), seq) << "clean checkpoint must not flip";
  EXPECT_EQ(FileSize(file.path()), size);

  ASSERT_TRUE(db->Close().ok());
  EXPECT_EQ(db->checkpoint_count(), seq);
  ASSERT_TRUE(db->Close().ok());  // idempotent
  EXPECT_EQ(FileSize(file.wal_path()), 0u)
      << "a clean close leaves an empty log";
}

TEST(FreeListTest, SteadyStateStoreSavesDoNotGrowTheFile) {
  TempDbFile file("wal_steady_state.db");
  auto db_or = Database::Open(FileOptions(file));
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::unique_ptr<Database> db = std::move(db_or).value();

  ItemsetStore store(db.get(), "fi", TableBacking::kHeap);
  FrequentItemsets itemsets;
  itemsets.Add({1}, 10);
  itemsets.Add({2}, 9);
  itemsets.Add({1, 2}, 5);
  itemsets.Normalize();
  itemsets.num_transactions = 20;
  StoredRunMeta meta;
  meta.num_transactions = 20;
  meta.min_support_count = 2;
  meta.spec_min_support = 0.1;
  meta.watermark = 20;

  // Each Save drops and recreates the store relations — a drop/create churn
  // that would grow the file by one table's pages per generation without
  // free-list reuse. The first generations warm the free list up (freed
  // pages become allocatable one checkpoint later); after that the file
  // size must hold perfectly flat.
  std::vector<uint64_t> sizes;
  for (int g = 0; g < 10; ++g) {
    ASSERT_TRUE(store.Save(itemsets, meta).ok());
    ASSERT_TRUE(db->Checkpoint().ok());
    sizes.push_back(FileSize(file.path()));
  }
  for (size_t g = 3; g < sizes.size(); ++g) {
    EXPECT_EQ(sizes[g], sizes[3])
        << "file grew at generation " << g << " (" << sizes[3] << " -> "
        << sizes[g] << " bytes): free pages are not being reused";
  }
  ASSERT_TRUE(db->Close().ok());
}

// --------------------------------------------------------------------------
// Scratch page lifecycle: SETM's R_1 and R_k pages are released when the
// run is done with them, their ids are reused, and a kill mid-mine leaves
// orphans that the next open reclaims.
// --------------------------------------------------------------------------

TransactionDb SmallQuest(uint32_t num_transactions, uint32_t num_items,
                         double avg_transaction_size = 8) {
  QuestOptions gen;
  gen.seed = 3;
  gen.num_transactions = num_transactions;
  gen.avg_transaction_size = avg_transaction_size;
  gen.num_items = num_items;
  return QuestGenerator(gen).Generate();
}

/// One kHeap SETM mine of `sales` at `min_support`, with `observer`.
Result<MiningResult> MineHeap(Database* db, const Table* sales,
                              double min_support,
                              MiningObserver* observer = nullptr) {
  SetmOptions knobs;
  knobs.storage = TableBacking::kHeap;
  auto miner = MinerRegistry::Create("setm", db, knobs);
  if (!miner.ok()) return miner.status();
  MiningRequest request;
  request.table = sales;
  request.options.min_support = min_support;
  request.options.observer = observer;
  return miner.value()->Mine(request);
}

/// The itemsets of a kHeap mine of `txns` on a fresh in-memory database.
FrequentItemsets ReferenceItemsets(const TransactionDb& txns,
                                   double min_support) {
  Database db;
  auto sales = LoadSalesTable(&db, "sales", txns, TableBacking::kHeap);
  EXPECT_TRUE(sales.ok()) << sales.status().ToString();
  auto result = MineHeap(&db, sales.value(), min_support);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  FrequentItemsets itemsets = std::move(result.value().itemsets);
  itemsets.Normalize();
  return itemsets;
}

/// SALES's (trans_id, item) rows, sorted.
std::vector<std::pair<int32_t, int32_t>> SalesRows(const Table* sales) {
  std::vector<std::pair<int32_t, int32_t>> rows;
  auto it = sales->Scan();
  Tuple row;
  while (true) {
    auto more = it->Next(&row);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !more.value()) break;
    rows.emplace_back(row.value(0).AsInt32(), row.value(1).AsInt32());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::pair<int32_t, int32_t>> RowsOf(const TransactionDb& txns) {
  std::vector<std::pair<int32_t, int32_t>> rows;
  for (const Transaction& t : txns) {
    for (ItemId item : t.items) rows.emplace_back(t.id, item);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Ten mines on a WAL file database, with a Commit after each: the first
// mine grows the main file to its footprint, R_k's pages and the count's
// spilled runs alike, and every later one reuses those pages, so the file
// never grows again and no later mine allocates a fresh page. Every mine
// spills, yet appends no page record to the WAL: spilled runs are scratch
// pages, tagged unlogged like R_k. Every scratch page leaves the WAL
// backend's unlogged set when it is released.
TEST(ScratchLifecycleTest, RepeatedMinesDoNotGrowTheFile) {
  TempDbFile file("scratch_repeated_mines.db");
  DatabaseOptions options = FileOptions(file);
  options.pool_frames = 32;              // scratch reaches the main file
  options.sort_memory_bytes = 16 << 10;  // counts spill
  auto db_or = Database::Open(options);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::unique_ptr<Database> db = std::move(db_or).value();
  auto sales = LoadSalesTable(db.get(), "sales", SmallQuest(2000, 100),
                              TableBacking::kHeap);
  ASSERT_TRUE(sales.ok()) << sales.status().ToString();
  ASSERT_TRUE(db->Commit().ok());
  const auto* wal_backend = static_cast<const WalBackend*>(db->pool()->backend());

  obs::Counter* spilled_runs = obs::MetricsRegistry::Global()->GetCounter(
      "setm_count_spilled_runs_total", "");
  uint64_t file_pages = 0;
  FrequentItemsets first;
  for (int mine = 0; mine < 10; ++mine) {
    SCOPED_TRACE("mine " + std::to_string(mine));
    const uint64_t spills = spilled_runs->Value();
    const uint64_t page_records = db->wal_stats().page_records;
    auto result = MineHeap(db.get(), sales.value(), 0.02);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(db->Commit().ok());
    EXPECT_GT(spilled_runs->Value(), spills);
    EXPECT_EQ(db->wal_stats().page_records, page_records);
    EXPECT_EQ(wal_backend->UnloggedPageCount(), 0u);
    FrequentItemsets itemsets = std::move(result.value().itemsets);
    itemsets.Normalize();
    if (mine == 0) {
      file_pages = db->pool()->backend()->NumPages();
      EXPECT_GT(result.value().io.pages_allocated, 0u);
      first = std::move(itemsets);
      continue;
    }
    EXPECT_EQ(db->pool()->backend()->NumPages(), file_pages);
    EXPECT_EQ(result.value().io.pages_allocated, 0u);
    EXPECT_GT(result.value().io.pages_reused, 0u);
    EXPECT_TRUE(itemsets == first);
  }
  ASSERT_TRUE(db->Close().ok());
}

// Spilled runs and R_k pages reach the main file, and their released ids
// stay free in it across Commit; Close gives the free tail back to the
// file system. A database reopened after spilling mines is as long as it
// was before them, and mines the same itemsets.
TEST(ScratchLifecycleTest, CloseTruncatesTheFreeTail) {
  TempDbFile file("scratch_free_tail.db");
  DatabaseOptions options = FileOptions(file);
  options.pool_frames = 32;              // scratch reaches the main file
  options.sort_memory_bytes = 16 << 10;  // counts spill
  uint64_t loaded_pages = 0;
  {
    auto db_or = Database::Open(options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    auto sales = LoadSalesTable(db_or.value().get(), "sales",
                                SmallQuest(2000, 100), TableBacking::kHeap);
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
    ASSERT_TRUE(db_or.value()->Close().ok());
    loaded_pages = FileSize(file.path()) / kPageSize;
  }
  obs::Counter* spilled_runs = obs::MetricsRegistry::Global()->GetCounter(
      "setm_count_spilled_runs_total", "");
  FrequentItemsets first;
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto db_or = Database::Open(options);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    std::unique_ptr<Database> db = std::move(db_or).value();
    EXPECT_EQ(db->pool()->backend()->NumPages(), loaded_pages);
    auto sales = db->catalog()->GetTable("sales");
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
    for (int mine = 0; mine < 3; ++mine) {
      const uint64_t spills = spilled_runs->Value();
      auto result = MineHeap(db.get(), sales.value(), 0.02);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_TRUE(db->Commit().ok());
      EXPECT_GT(spilled_runs->Value(), spills);
      FrequentItemsets itemsets = std::move(result.value().itemsets);
      itemsets.Normalize();
      if (round == 0 && mine == 0) first = itemsets;
      EXPECT_TRUE(itemsets == first);
    }
    EXPECT_GT(FileSize(file.path()) / kPageSize, loaded_pages);
    ASSERT_TRUE(db->Close().ok());
    EXPECT_EQ(FileSize(file.path()) / kPageSize, loaded_pages);
  }
}

// On an in-memory database a kHeap mine, serial or on three shards that
// share one pool, hands every scratch page back, R_k's and the spilled
// runs' alike: the MemoryBackend holds as many live pages afterwards as
// before, and the setm_scratch_pages gauge is back where it was.
TEST(ScratchLifecycleTest, MemoryDatabaseGetsItsScratchPagesBack) {
  const TransactionDb txns = SmallQuest(2000, 100);
  for (size_t threads : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    DatabaseOptions options;
    options.pool_frames = 32;
    options.sort_memory_bytes = 16 << 10;
    Database db(options);
    auto sales = LoadSalesTable(&db, "sales", txns, TableBacking::kHeap);
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
    const auto* main = static_cast<const MemoryBackend*>(db.pool()->backend());
    auto* registry = obs::MetricsRegistry::Global();
    obs::Gauge* scratch = registry->GetGauge("setm_scratch_pages", "");
    obs::Counter* spilled_runs =
        registry->GetCounter("setm_count_spilled_runs_total", "");
    const uint64_t main_live = main->LivePages();
    const int64_t scratch_pages = scratch->Value();
    const uint64_t spills = spilled_runs->Value();

    SetmOptions knobs;
    knobs.storage = TableBacking::kHeap;
    knobs.num_threads = threads;
    auto miner = MinerRegistry::Create("setm", &db, knobs);
    ASSERT_TRUE(miner.ok()) << miner.status().ToString();
    MiningRequest request;
    request.table = sales.value();
    request.options.min_support = 0.02;
    auto result = miner.value()->Mine(request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_GT(result.value().io.pages_allocated, 0u);
    EXPECT_GT(main->NumPages(), main_live);
    EXPECT_GT(spilled_runs->Value(), spills);
    EXPECT_EQ(main->LivePages(), main_live);
    EXPECT_EQ(scratch->Value(), scratch_pages);
  }
}

/// Records how many page reads the disk has seen at each iteration's end.
class ReadMarks : public MiningObserver {
 public:
  explicit ReadMarks(const SimDisk* disk) : disk_(disk) {}
  bool OnIteration(const IterationStats&) override {
    marks.push_back(disk_->reads.size());
    return true;
  }
  std::vector<size_t> marks;

 private:
  const SimDisk* disk_;
};

// R_1 keeps its frames in the pool's retained share: at a pool that holds
// R_1 in half its frames but not R_{k-1}, the passes that scan a larger
// R_{k-1} read it from storage and never read a page of R_1. R_k is
// grouped like R_1, so the transactions are dense (10 items of 60 on
// average): R_1 takes 4 pages, R_2 13 and R_3 8, and the pool 10 frames.
TEST(ScratchLifecycleTest, R1StaysResidentWhilePassesReadRkMinus1) {
  auto disk = std::make_shared<SimDisk>();
  DatabaseOptions options = SimOptions(disk);
  options.pool_frames = 10;
  auto db_or = Database::Open(options);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::unique_ptr<Database> db = std::move(db_or).value();
  auto sales = LoadSalesTable(db.get(), "sales", SmallQuest(1000, 60, 10),
                              TableBacking::kHeap);
  ASSERT_TRUE(sales.ok()) << sales.status().ToString();
  ASSERT_TRUE(db->Commit().ok());

  const size_t first_allocation = disk->allocations.size();
  ReadMarks marks(disk.get());
  auto result = MineHeap(db.get(), sales.value(), 0.02, &marks);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<IterationStats>& iterations = result.value().iterations;
  ASSERT_GE(iterations.size(), 4u);
  const uint64_t r1_pages = iterations[0].r_pages;
  ASSERT_LE(r1_pages, options.pool_frames / BufferPool::kRetainedShareDivisor);
  // R_1 is built first, on fresh pages at the end of the file.
  ASSERT_GE(disk->allocations.size(), first_allocation + r1_pages);
  const std::vector<PageId> r1(
      disk->allocations.begin() + static_cast<ptrdiff_t>(first_allocation),
      disk->allocations.begin() +
          static_cast<ptrdiff_t>(first_allocation + r1_pages));

  // Pass k (k >= 3) runs between the callbacks of iterations k-1 and k.
  size_t passes_from_storage = 0;
  for (size_t k = 3; k <= iterations.size(); ++k) {
    const size_t begin = marks.marks[k - 2];
    const size_t end = marks.marks[k - 1];
    if (iterations[k - 2].r_pages > options.pool_frames && end > begin) {
      ++passes_from_storage;  // R_{k-1} outgrew the pool and was reread
    }
    for (size_t i = begin; i < end; ++i) {
      EXPECT_EQ(std::count(r1.begin(), r1.end(), disk->reads[i]), 0)
          << "pass " << k << " read page " << disk->reads[i] << " of R_1";
    }
  }
  EXPECT_GT(passes_from_storage, 0u);
  ASSERT_TRUE(db->Close().ok());
}

/// Opens a simulated database of small pools and loads `txns` as SALES,
/// with a logged table "t" beside it, then commits.
Result<std::unique_ptr<Database>> OpenWithSales(std::shared_ptr<SimDisk> disk,
                                                const TransactionDb& txns) {
  DatabaseOptions options = SimOptions(std::move(disk));
  options.pool_frames = 8;
  auto db_or = Database::Open(options);
  if (!db_or.ok()) return db_or.status();
  std::unique_ptr<Database> db = std::move(db_or).value();
  auto sales = LoadSalesTable(db.get(), "sales", txns, TableBacking::kHeap);
  if (!sales.ok()) return sales.status();
  auto t = db->catalog()->CreateTable("t", TwoIntSchema(), TableBacking::kHeap);
  if (!t.ok()) return t.status();
  SETM_RETURN_IF_ERROR(db->Commit());
  return db;
}

/// Reopens what `dead` kept, checks SALES and a mine against the loaded
/// transactions and `reference`, and returns the file's pages after that
/// mine. `t_rows`, if set, receives the rows of table "t".
uint64_t ReopenAndMine(const SimDisk& dead, const TransactionDb& txns,
                       const FrequentItemsets& reference, double min_support,
                       uint64_t* t_rows = nullptr) {
  auto revived = Revive(dead);
  DatabaseOptions options = SimOptions(revived);
  options.pool_frames = 8;
  auto db_or = Database::Open(options);
  EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
  if (!db_or.ok()) return 0;
  std::unique_ptr<Database> db = std::move(db_or).value();
  auto sales = db->catalog()->GetTable("sales");
  EXPECT_TRUE(sales.ok()) << sales.status().ToString();
  if (!sales.ok()) return 0;
  EXPECT_TRUE(SalesRows(sales.value()) == RowsOf(txns));
  if (t_rows != nullptr) {
    auto t = db->catalog()->GetTable("t");
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    auto n = CountRows(t.value());
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    *t_rows = n.ok() ? n.value() : 0;
  }
  auto result = MineHeap(db.get(), sales.value(), min_support);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return 0;
  FrequentItemsets itemsets = std::move(result.value().itemsets);
  itemsets.Normalize();
  EXPECT_TRUE(itemsets == reference);
  const uint64_t pages = revived->pages.size();
  EXPECT_TRUE(db->Close().ok());
  return pages;
}

constexpr double kCrashMineSupport = 0.05;

// A power cut at every operation of a mine: SALES reopens intact, a mine
// of it finds the same itemsets, and the scratch pages the killed mine
// left in the file are reclaimed at open, so that mine ends no larger than
// a file whose mine was never interrupted.
TEST(WalCrashMatrixTest, PowerCutMidMineReclaimsItsScratch) {
  ScopedLogSilence quiet;
  const TransactionDb txns = SmallQuest(600, 40);
  const FrequentItemsets reference = ReferenceItemsets(txns, kCrashMineSupport);

  // A clean run: the ops one mine takes, and the file after it.
  auto clean = std::make_shared<SimDisk>();
  auto clean_db = OpenWithSales(clean, txns);
  ASSERT_TRUE(clean_db.ok()) << clean_db.status().ToString();
  const Table* clean_sales =
      clean_db.value()->catalog()->GetTable("sales").value();
  clean->fuse = int64_t{1} << 40;
  ASSERT_TRUE(
      MineHeap(clean_db.value().get(), clean_sales, kCrashMineSupport).ok());
  const int64_t mine_ops = (int64_t{1} << 40) - clean->fuse;
  const uint64_t clean_pages = clean->pages.size();
  clean->fuse = -1;
  ASSERT_TRUE(clean_db.value()->Close().ok());
  ASSERT_GT(mine_ops, 20);

  for (bool retain : {false, true}) {
    for (int64_t cut = 0; cut < mine_ops; cut += 1 + mine_ops / 40) {
      SCOPED_TRACE("retain=" + std::to_string(retain) +
                   " cut=" + std::to_string(cut));
      auto disk = std::make_shared<SimDisk>();
      disk->retain = retain;
      {
        auto db = OpenWithSales(disk, txns);
        ASSERT_TRUE(db.ok()) << db.status().ToString();
        const Table* sales = db.value()->catalog()->GetTable("sales").value();
        disk->fuse = cut;
        EXPECT_FALSE(
            MineHeap(db.value().get(), sales, kCrashMineSupport).ok());
        (void)db.value()->Close();
      }
      ASSERT_TRUE(disk->crashed);
      EXPECT_LE(ReopenAndMine(*disk, txns, reference, kCrashMineSupport),
                clean_pages);
    }
  }
}

// A logged table that grows onto page ids a mine released logs its writes
// like any other page: a power cut at every operation of its committed
// batches keeps every committed batch and no torn one, SALES and a mine
// reopen intact, and a mine after the reopen ends no larger than the file
// of a run that was never cut.
TEST(WalCrashMatrixTest, LoggedTableOnReusedScratchIdsSurvivesAPowerCut) {
  ScopedLogSilence quiet;
  const TransactionDb txns = SmallQuest(600, 40);
  const FrequentItemsets reference = ReferenceItemsets(txns, kCrashMineSupport);
  constexpr int kRows = 600;  // a batch spans pages
  constexpr int kCommits = 3;
  const auto append_batches = [&](Database* db, int* committed) -> Status {
    auto t = db->catalog()->GetTable("t");
    if (!t.ok()) return t.status();
    for (int b = 0; b < kCommits; ++b) {
      for (int i = 0; i < kRows; ++i) {
        const int v = b * kRows + i;
        SETM_RETURN_IF_ERROR(
            t.value()->Insert(Tuple({Value::Int32(v), Value::Int32(v * 7)})));
      }
      SETM_RETURN_IF_ERROR(db->Commit());
      ++*committed;
    }
    return Status::OK();
  };

  // A clean run: the batches land on released scratch ids (the file does
  // not grow), and a second mine then needs this many pages.
  auto clean = std::make_shared<SimDisk>();
  int64_t batch_ops = 0;
  uint64_t clean_pages = 0;
  {
    auto db = OpenWithSales(clean, txns);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    const Table* sales = db.value()->catalog()->GetTable("sales").value();
    ASSERT_TRUE(MineHeap(db.value().get(), sales, kCrashMineSupport).ok());
    const uint64_t after_mine = clean->pages.size();
    clean->fuse = int64_t{1} << 40;
    int committed = 0;
    ASSERT_TRUE(append_batches(db.value().get(), &committed).ok());
    batch_ops = (int64_t{1} << 40) - clean->fuse;
    clean->fuse = -1;
    EXPECT_EQ(clean->pages.size(), after_mine);
    ASSERT_TRUE(MineHeap(db.value().get(), sales, kCrashMineSupport).ok());
    clean_pages = clean->pages.size();
    ASSERT_TRUE(db.value()->Close().ok());
  }

  for (bool retain : {false, true}) {
    for (int64_t cut = 0; cut <= batch_ops; ++cut) {
      SCOPED_TRACE("retain=" + std::to_string(retain) +
                   " cut=" + std::to_string(cut));
      auto disk = std::make_shared<SimDisk>();
      disk->retain = retain;
      int committed = 0;
      {
        auto db = OpenWithSales(disk, txns);
        ASSERT_TRUE(db.ok()) << db.status().ToString();
        const Table* sales = db.value()->catalog()->GetTable("sales").value();
        ASSERT_TRUE(MineHeap(db.value().get(), sales, kCrashMineSupport).ok());
        disk->fuse = cut;
        (void)append_batches(db.value().get(), &committed);
        (void)db.value()->Close();
      }
      uint64_t rows = 0;
      EXPECT_LE(ReopenAndMine(*disk, txns, reference, kCrashMineSupport, &rows),
                clean_pages);
      EXPECT_EQ(rows % kRows, 0u) << "torn batch";
      EXPECT_GE(rows, static_cast<uint64_t>(kRows) * committed)
          << "committed batch lost";
      EXPECT_LE(rows, static_cast<uint64_t>(kRows) * kCommits);
    }
  }
}

}  // namespace
}  // namespace setm
