// Tests for the durable catalog subsystem (src/persist): superblock and
// manifest codecs, and the Database-level create/populate/close/reopen
// round trip — including the corruption paths that must fail with a
// descriptive Status instead of reinitializing the file.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/mining_planner.h"
#include "core/setm.h"
#include "datagen/quest_generator.h"
#include "incremental/itemset_store.h"
#include "persist/catalog_codec.h"
#include "persist/manifest.h"
#include "persist/superblock.h"
#include "relational/database.h"
#include "sql/engine.h"

namespace setm {
namespace {

Schema TwoIntSchema() {
  return Schema(
      {Column{"a", ValueType::kInt32}, Column{"b", ValueType::kInt32}});
}

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

// --------------------------------------------------------------------------
// Record codec
// --------------------------------------------------------------------------

TEST(RecordCodecTest, RoundTripsAllWidths) {
  RecordWriter w;
  w.PutU8(0xAB);
  w.PutU16(0xCDEF);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutString("schema");
  w.PutString("");

  RecordReader r(w.bytes());
  EXPECT_EQ(r.GetU8().value(), 0xAB);
  EXPECT_EQ(r.GetU16().value(), 0xCDEF);
  EXPECT_EQ(r.GetU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.GetString().value(), "schema");
  EXPECT_EQ(r.GetString().value(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(RecordCodecTest, TruncationIsCorruptionNotUb) {
  RecordWriter w;
  w.PutU32(7);
  RecordReader r(std::string_view(w.bytes()).substr(0, 2));
  auto v = r.GetU32();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kCorruption);
}

TEST(RecordCodecTest, CatalogSnapshotRoundTrip) {
  CatalogSnapshot snapshot;
  PersistedTableMeta heap;
  heap.name = "sales";
  heap.backing = TableBacking::kHeap;
  heap.schema = SetmMiner::SalesSchema();
  heap.first_page = 3;
  heap.last_page = 17;
  heap.num_pages = 9;
  heap.row_count = 1234;
  heap.size_bytes = 9872;
  snapshot.tables.push_back(heap);
  PersistedTableMeta mem;
  mem.name = "scratch";
  mem.backing = TableBacking::kMemory;
  mem.schema = Schema({Column{"s", ValueType::kString},
                       Column{"d", ValueType::kDouble}});
  snapshot.tables.push_back(mem);
  snapshot.free_pages = {5, 12, 40};

  auto decoded = DecodeCatalogSnapshot(EncodeCatalogSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().tables.size(), 2u);
  const PersistedTableMeta& h = decoded.value().tables[0];
  EXPECT_EQ(h.name, "sales");
  EXPECT_EQ(h.backing, TableBacking::kHeap);
  EXPECT_EQ(h.schema, SetmMiner::SalesSchema());
  EXPECT_EQ(h.first_page, 3u);
  EXPECT_EQ(h.last_page, 17u);
  EXPECT_EQ(h.num_pages, 9u);
  EXPECT_EQ(h.row_count, 1234u);
  EXPECT_EQ(h.size_bytes, 9872u);
  const PersistedTableMeta& m = decoded.value().tables[1];
  EXPECT_EQ(m.name, "scratch");
  EXPECT_EQ(m.backing, TableBacking::kMemory);
  EXPECT_EQ(m.schema.NumColumns(), 2u);
  EXPECT_EQ(decoded.value().free_pages, (std::vector<PageId>{5, 12, 40}));
}

TEST(RecordCodecTest, SnapshotRejectsTruncationAndGarbage) {
  CatalogSnapshot snapshot;
  PersistedTableMeta t;
  t.name = "t";
  t.schema = TwoIntSchema();
  snapshot.tables.push_back(t);
  std::string bytes = EncodeCatalogSnapshot(snapshot);

  auto truncated = DecodeCatalogSnapshot(
      std::string_view(bytes).substr(0, bytes.size() - 3));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kCorruption);

  auto trailing = DecodeCatalogSnapshot(bytes + "xx");
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kCorruption);
}

// --------------------------------------------------------------------------
// Superblock codec
// --------------------------------------------------------------------------

TEST(SuperblockTest, RoundTrip) {
  Superblock sb;
  sb.page_count = 42;
  sb.manifest_root = 7;
  sb.spare_manifest_root = 9;
  sb.checkpoint_seq = 13;
  Page page;
  EncodeSuperblock(sb, &page);
  Superblock out;
  ASSERT_TRUE(DecodeSuperblock(page, &out).ok());
  EXPECT_EQ(out.format_version, kFormatVersion);
  EXPECT_EQ(out.page_count, 42u);
  EXPECT_EQ(out.manifest_root, 7u);
  EXPECT_EQ(out.spare_manifest_root, 9u);
  EXPECT_EQ(out.checkpoint_seq, 13u);
}

TEST(SuperblockTest, RejectsWrongMagic) {
  Page page;
  page.Clear();
  std::memcpy(page.data, "NOTADB!!", 8);
  Superblock out;
  Status s = DecodeSuperblock(page, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("magic"), std::string::npos);
}

TEST(SuperblockTest, RejectsUnsupportedVersion) {
  Superblock sb;
  Page page;
  EncodeSuperblock(sb, &page);
  page.data[8] = 9;  // format_version lives right after the 8-byte magic
  Superblock out;
  Status s = DecodeSuperblock(page, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotSupported);
  EXPECT_NE(s.message().find("version"), std::string::npos);
}

TEST(SuperblockTest, RejectsChecksumMismatch) {
  Superblock sb;
  sb.page_count = 5;
  Page page;
  EncodeSuperblock(sb, &page);
  page.data[12] ^= 0x01;  // flip a bit inside page_count
  Superblock out;
  Status s = DecodeSuperblock(page, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.message().find("checksum"), std::string::npos);
}

// --------------------------------------------------------------------------
// Manifest chain
// --------------------------------------------------------------------------

TEST(ManifestTest, MultiPagePayloadRoundTripsAndReusesChain) {
  Database db;  // memory backend is fine: the manifest only needs a pool
  std::string payload(3 * kManifestPageCapacity + 123, 'x');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('a' + i % 17);
  }
  std::vector<PageId> chain;
  auto root = WriteManifest(db.pool(), payload, &chain);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(chain.size(), 4u);

  auto read = ReadManifest(db.pool(), root.value(),
                           db.pool()->backend()->NumPages(), nullptr);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), payload);

  // Rewriting a smaller payload reuses the head of the old chain and does
  // not allocate.
  const uint64_t pages_before = db.pool()->backend()->NumPages();
  std::string smaller(kManifestPageCapacity / 2, 'y');
  auto root2 = WriteManifest(db.pool(), smaller, &chain);
  ASSERT_TRUE(root2.ok());
  EXPECT_EQ(root2.value(), root.value());
  EXPECT_EQ(chain.size(), 1u);
  EXPECT_EQ(db.pool()->backend()->NumPages(), pages_before);
  auto read2 = ReadManifest(db.pool(), root2.value(),
                            db.pool()->backend()->NumPages(), nullptr);
  ASSERT_TRUE(read2.ok());
  EXPECT_EQ(read2.value(), smaller);
}

TEST(ManifestTest, NonManifestPageIsCorruption) {
  Database db;
  auto guard = db.pool()->NewPage();
  ASSERT_TRUE(guard.ok());
  const PageId id = guard.value().id();
  guard.value().Release();
  auto read = ReadManifest(db.pool(), id, db.pool()->backend()->NumPages(),
                           nullptr);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
}

// --------------------------------------------------------------------------
// Database reopen round trips
// --------------------------------------------------------------------------

class PersistReopenTest : public testing::TestWithParam<TableBacking> {};

INSTANTIATE_TEST_SUITE_P(Backings, PersistReopenTest,
                         testing::Values(TableBacking::kMemory,
                                         TableBacking::kHeap),
                         [](const auto& param_info) {
                           return param_info.param == TableBacking::kHeap
                                      ? "Heap"
                                      : "Memory";
                         });

TEST_P(PersistReopenTest, CreatePopulateCloseReopen) {
  TempDbFile file("persist_roundtrip.db");
  {
    auto db = Database::Open(FileOptions(file));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto t = (*db)->catalog()->CreateTable("t", TwoIntSchema(), GetParam());
    ASSERT_TRUE(t.ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(
          t.value()->Insert(Tuple({Value::Int32(i), Value::Int32(i * 2)}))
              .ok());
    }
  }  // destructor checkpoints + flushes

  auto db = Database::Open(FileOptions(file));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto t = (*db)->catalog()->GetTable("t");
  ASSERT_TRUE(t.ok()) << "catalog lost table across reopen";
  EXPECT_EQ(t.value()->schema(), TwoIntSchema());
  if (GetParam() == TableBacking::kHeap) {
    // Heap rows live in the file and come back; scan and verify contents.
    ASSERT_EQ(t.value()->num_rows(), 2000u);
    auto it = t.value()->Scan();
    Tuple row;
    int expect = 0;
    while (true) {
      auto more = it->Next(&row);
      ASSERT_TRUE(more.ok());
      if (!more.value()) break;
      EXPECT_EQ(row.value(0).AsInt32(), expect);
      EXPECT_EQ(row.value(1).AsInt32(), expect * 2);
      ++expect;
    }
    EXPECT_EQ(expect, 2000);
  } else {
    // Memory rows never reach the file: schema survives, rows do not.
    EXPECT_EQ(t.value()->num_rows(), 0u);
  }
}

TEST_P(PersistReopenTest, InsertAcrossThreeGenerations) {
  if (GetParam() == TableBacking::kMemory) {
    GTEST_SKIP() << "memory rows do not persist";
  }
  TempDbFile file("persist_generations.db");
  for (int generation = 0; generation < 3; ++generation) {
    auto db = Database::Open(FileOptions(file));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Table* t;
    if (generation == 0) {
      auto created =
          (*db)->catalog()->CreateTable("t", TwoIntSchema(), GetParam());
      ASSERT_TRUE(created.ok());
      t = created.value();
    } else {
      auto found = (*db)->catalog()->GetTable("t");
      ASSERT_TRUE(found.ok());
      t = found.value();
    }
    EXPECT_EQ(t->num_rows(), static_cast<uint64_t>(generation) * 100);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(t->Insert(Tuple({Value::Int32(generation),
                                   Value::Int32(i)}))
                      .ok());
    }
  }
  auto db = Database::Open(FileOptions(file));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->catalog()->GetTable("t").value()->num_rows(), 300u);
}

TEST(PersistTest, DropTableDoesNotResurrectOnReopen) {
  TempDbFile file("persist_drop.db");
  {
    auto db = Database::Open(FileOptions(file));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->catalog()
                    ->CreateTable("keep", TwoIntSchema(), TableBacking::kHeap)
                    .ok());
    ASSERT_TRUE((*db)->catalog()
                    ->CreateTable("drop_me", TwoIntSchema(),
                                  TableBacking::kHeap)
                    .ok());
    ASSERT_TRUE((*db)->catalog()->DropTable("drop_me").ok());
  }
  auto db = Database::Open(FileOptions(file));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->catalog()->HasTable("keep"));
  EXPECT_FALSE((*db)->catalog()->HasTable("drop_me"));
  // Creation order survives too.
  EXPECT_EQ((*db)->catalog()->TableNames(),
            std::vector<std::string>{"keep"});
}

// Opening a database walks each heap chain once, in HeapTable::Open: with
// no free list to filter, the reachability pass does not walk the chains
// again, so a chain larger than the pool is read once, not twice.
TEST(PersistTest, ReopenWalksEachHeapChainOnce) {
  TempDbFile file("persist_walk_once.db");
  uint64_t pages = 0;
  {
    auto db = Database::Open(FileOptions(file));
    ASSERT_TRUE(db.ok());
    auto t = (*db)->catalog()->CreateTable("t", TwoIntSchema(),
                                           TableBacking::kHeap);
    ASSERT_TRUE(t.ok());
    for (int i = 0; i < 20000; ++i) {
      ASSERT_TRUE(
          t.value()->Insert(Tuple({Value::Int32(i), Value::Int32(i)})).ok());
    }
    pages = t.value()->num_pages();
  }
  DatabaseOptions options = FileOptions(file);
  options.pool_frames = 8;
  auto db = Database::Open(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_GT(pages, 4 * options.pool_frames);
  const uint64_t reads = (*db)->io_stats()->page_reads;
  EXPECT_GE(reads, pages);
  EXPECT_LT(reads, pages + 8);  // plus the superblocks and the manifest
}

TEST(PersistTest, EmptyDatabaseReopensEmpty) {
  TempDbFile file("persist_empty.db");
  { ASSERT_TRUE(Database::Open(FileOptions(file)).ok()); }
  auto db = Database::Open(FileOptions(file));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->catalog()->TableNames().empty());
  EXPECT_GT((*db)->checkpoint_count(), 0u);
}

TEST(PersistTest, ExplicitCheckpointKeepsFileSizeStable) {
  TempDbFile file("persist_checkpoint.db");
  auto db = Database::Open(FileOptions(file));
  ASSERT_TRUE(db.ok());
  auto t = (*db)->catalog()->CreateTable("t", TwoIntSchema(),
                                         TableBacking::kHeap);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(
      t.value()->Insert(Tuple({Value::Int32(1), Value::Int32(2)})).ok());
  // Checkpoints alternate between two chains; once both exist, repeated
  // checkpoints ping-pong between them with no page growth.
  ASSERT_TRUE((*db)->Checkpoint().ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  const uint64_t pages = (*db)->pool()->backend()->NumPages();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  EXPECT_EQ((*db)->pool()->backend()->NumPages(), pages);
}

TEST(PersistTest, ReopenedProcessesReuseManifestChains) {
  TempDbFile file("persist_chain_reuse.db");
  {
    auto db = Database::Open(FileOptions(file));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->catalog()
                    ->CreateTable("t", TwoIntSchema(), TableBacking::kHeap)
                    .ok());
    // Establish both chains before measuring.
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  uint64_t pages_after_first_close = 0;
  {
    auto db = Database::Open(FileOptions(file));
    ASSERT_TRUE(db.ok());
    pages_after_first_close = (*db)->pool()->backend()->NumPages();
  }
  // Several more process generations, each checkpointing on close: the
  // retired chain's root is persisted in the superblock, so reopens reuse
  // it instead of orphaning one chain per generation.
  for (int generation = 0; generation < 5; ++generation) {
    auto db = Database::Open(FileOptions(file));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  auto db = Database::Open(FileOptions(file));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->pool()->backend()->NumPages(), pages_after_first_close)
      << "file grew across reopen generations with an unchanged catalog";
}

// --------------------------------------------------------------------------
// Corrupt / foreign files are rejected, never reinitialized
// --------------------------------------------------------------------------

namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

TEST(PersistTest, RejectsTruncatedSuperblockWithoutModifyingFile) {
  TempDbFile file("persist_tiny.db");
  WriteAll(file.path(), "not nearly a page of bytes");
  const std::string before = ReadAll(file.path());
  auto db = Database::Open(FileOptions(file));
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
  EXPECT_NE(db.status().message().find("too small"), std::string::npos);
  EXPECT_EQ(ReadAll(file.path()), before) << "open modified a rejected file";
}

TEST(PersistTest, RejectsForeignFileWithoutModifyingFile) {
  TempDbFile file("persist_foreign.db");
  WriteAll(file.path(), std::string(2 * kPageSize, '\x5A'));
  const std::string before = ReadAll(file.path());
  auto db = Database::Open(FileOptions(file));
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
  EXPECT_NE(db.status().message().find("magic"), std::string::npos);
  EXPECT_EQ(ReadAll(file.path()), before);
}

TEST(PersistTest, RejectsVersionMismatchWithoutModifyingFile) {
  TempDbFile file("persist_version.db");
  { ASSERT_TRUE(Database::Open(FileOptions(file)).ok()); }
  std::string bytes = ReadAll(file.path());
  bytes[8] = 9;  // format_version byte
  WriteAll(file.path(), bytes);
  auto db = Database::Open(FileOptions(file));
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kNotSupported);
  EXPECT_NE(db.status().message().find("version"), std::string::npos);
  EXPECT_EQ(ReadAll(file.path()), bytes);
}

TEST(PersistTest, RejectsTruncatedDatabaseWithoutModifyingFile) {
  TempDbFile file("persist_truncated.db");
  {
    auto db = Database::Open(FileOptions(file));
    ASSERT_TRUE(db.ok());
    auto t = (*db)->catalog()->CreateTable("t", TwoIntSchema(),
                                           TableBacking::kHeap);
    ASSERT_TRUE(t.ok());
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(
          t.value()->Insert(Tuple({Value::Int32(i), Value::Int32(i)})).ok());
    }
  }
  std::string bytes = ReadAll(file.path());
  ASSERT_GT(bytes.size(), 3 * kPageSize);
  const std::string cut = bytes.substr(0, 3 * kPageSize);
  WriteAll(file.path(), cut);
  auto db = Database::Open(FileOptions(file));
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kCorruption);
  EXPECT_NE(db.status().message().find("truncated"), std::string::npos);
  EXPECT_EQ(ReadAll(file.path()), cut);
}

// A crash after *committed* appends (rows in the WAL with a synced commit
// record, manifest stale) must lose nothing: replay restores the pages and
// the heap chain holds more rows than the manifest records — the walk's
// counts win and the table opens with every committed row.
TEST(PersistTest, ReopenReplaysCommittedUncheckpointedAppends) {
  TempDbFile file("persist_crash_appends.db");
  TempDbFile crashed("persist_crash_appends_snapshot.db");
  {
    auto db = Database::Open(FileOptions(file));
    ASSERT_TRUE(db.ok());
    auto t = (*db)->catalog()->CreateTable("t", TwoIntSchema(),
                                           TableBacking::kHeap);
    ASSERT_TRUE(t.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          t.value()->Insert(Tuple({Value::Int32(i), Value::Int32(i)})).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());  // manifest records 100 rows
    for (int i = 100; i < 150; ++i) {       // 50 more, never checkpointed
      ASSERT_TRUE(
          t.value()->Insert(Tuple({Value::Int32(i), Value::Int32(i)})).ok());
    }
    ASSERT_TRUE((*db)->Commit().ok());  // rows + commit record in the WAL
    // Snapshot main file and WAL as a crash would leave them: main file
    // stale (immutable between checkpoints), committed rows only in the
    // log. (The destructor of `db` would checkpoint; the copy escapes it.)
    WriteAll(crashed.path(), ReadAll(file.path()));
    WriteAll(crashed.wal_path(), ReadAll(file.wal_path()));
  }
  auto db = Database::Open(FileOptions(crashed));
  ASSERT_TRUE(db.ok()) << "crash image refused to open: "
                       << db.status().ToString();
  auto t = (*db)->catalog()->GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value()->num_rows(), 150u) << "committed appends were lost";
}

// The same crash image *without* the WAL (or with the batch never
// committed) rolls back to the checkpointed 100 rows — the main file alone
// is always the last checkpoint's image, never a torn mix.
TEST(PersistTest, ReopenWithoutWalRollsBackToCheckpoint) {
  TempDbFile file("persist_crash_nowal.db");
  TempDbFile crashed("persist_crash_nowal_snapshot.db");
  {
    auto db = Database::Open(FileOptions(file));
    ASSERT_TRUE(db.ok());
    auto t = (*db)->catalog()->CreateTable("t", TwoIntSchema(),
                                           TableBacking::kHeap);
    ASSERT_TRUE(t.ok());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          t.value()->Insert(Tuple({Value::Int32(i), Value::Int32(i)})).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    for (int i = 100; i < 150; ++i) {
      ASSERT_TRUE(
          t.value()->Insert(Tuple({Value::Int32(i), Value::Int32(i)})).ok());
    }
    ASSERT_TRUE((*db)->Commit().ok());
    WriteAll(crashed.path(), ReadAll(file.path()));  // WAL "lost"
  }
  auto db = Database::Open(FileOptions(crashed));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto t = (*db)->catalog()->GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value()->num_rows(), 100u)
      << "main file held rows that were never checkpointed into it";
}

// The whole of ItemsetStore::Save — K+1 DDL statements — runs under one
// checkpoint deferral: a single durable transition from old store to new,
// never an intermediate image, and none of the per-DDL flush storms.
TEST(PersistTest, ItemsetStoreSaveCheckpointsOnce) {
  TempDbFile file("persist_save_once.db");
  auto db = Database::Open(FileOptions(file));
  ASSERT_TRUE(db.ok());

  FrequentItemsets itemsets;
  itemsets.Add({1}, 10);
  itemsets.Add({2}, 8);
  itemsets.Add({1, 2}, 6);
  itemsets.Add({1, 2, 3}, 4);  // 3 level tables + meta = 4 DDLs
  itemsets.num_transactions = 12;
  StoredRunMeta meta;
  meta.num_transactions = 12;
  meta.min_support_count = 2;

  ItemsetStore store(db->get(), "fi", TableBacking::kHeap);
  const uint64_t before = (*db)->checkpoint_count();
  ASSERT_TRUE(store.Save(itemsets, meta).ok());
  EXPECT_EQ((*db)->checkpoint_count(), before + 1);

  // Re-saving (drop of 4 + create of 4) is also one checkpoint.
  const uint64_t before_resave = (*db)->checkpoint_count();
  ASSERT_TRUE(store.Save(itemsets, meta).ok());
  EXPECT_EQ((*db)->checkpoint_count(), before_resave + 1);

  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().itemsets == itemsets);
}

// --------------------------------------------------------------------------
// Cross-"process" mining workflows (close + fresh Open = new process)
// --------------------------------------------------------------------------

TransactionDb MakeQuestDb(uint64_t seed, uint32_t num_transactions) {
  QuestOptions gen;
  gen.seed = seed;
  gen.num_transactions = num_transactions;
  gen.avg_transaction_size = 5;
  gen.num_items = 20;
  gen.num_patterns = 15;
  return QuestGenerator(gen).Generate();
}

TEST(PersistTest, ItemsetStoreSurvivesReopenAndFeedsPlannerAppend) {
  TempDbFile file("persist_store.db");
  TransactionDb base = MakeQuestDb(814, 200);
  MiningOptions options;
  options.min_support = 0.05;

  FrequentItemsets stored_before;
  // Process A: load SALES, mine, store, close.
  {
    auto db = Database::Open(FileOptions(file));
    ASSERT_TRUE(db.ok());
    auto sales = LoadSalesTable(db->get(), "sales", base,
                                TableBacking::kHeap);
    ASSERT_TRUE(sales.ok());
    SetmMiner miner(db->get(), SetmOptions{TableBacking::kHeap});
    auto mined = miner.MineTable(*sales.value(), options);
    ASSERT_TRUE(mined.ok());
    stored_before = mined.value().itemsets;
    ItemsetStore store(db->get(), "fi", TableBacking::kHeap);
    ASSERT_TRUE(store
                    .Save(mined.value().itemsets,
                          MakeRunMeta(mined.value().itemsets, options,
                                      MaxTransactionId(base), "sales"))
                    .ok());
  }

  // Process B: reopen, load the store (identical), append a delta batch
  // through a planner over the reopened store.
  TransactionDb batch = MakeQuestDb(815, 20);
  for (Transaction& t : batch) t.id += MaxTransactionId(base);
  {
    auto db = Database::Open(FileOptions(file));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ItemsetStore store(db->get(), "fi", TableBacking::kHeap);
    ASSERT_TRUE(store.Exists());
    auto loaded = store.Load();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_TRUE(loaded.value().itemsets == stored_before)
        << "stored run changed across restart";
    EXPECT_EQ(loaded.value().meta.source_table, "sales");

    auto sales = (*db)->catalog()->GetTable("sales");
    ASSERT_TRUE(sales.ok());
    PlannerOptions planner_options;
    planner_options.store_prefix = "fi";
    planner_options.store_backing = TableBacking::kHeap;
    planner_options.setm.storage = TableBacking::kHeap;
    MiningPlanner planner(db->get(), planner_options);
    PlanRequest request;
    request.table = sales.value();
    request.append = &batch;
    request.options = options;
    auto updated = planner.Execute(request);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(updated.value().plan.strategy, PlanStrategy::kDeltaDerive);

    // Identity: the cross-process incremental result equals a one-process
    // full remine of the combined database.
    TransactionDb combined = base;
    combined.insert(combined.end(), batch.begin(), batch.end());
    Database mem_db;
    auto remined = SetmMiner(&mem_db).Mine(combined, options);
    ASSERT_TRUE(remined.ok());
    EXPECT_TRUE(updated.value().result.itemsets ==
                remined.value().itemsets)
        << "cross-process incremental result diverged from full remine";
  }

  // Process C: the updated store reopens with the combined result and the
  // SQL engine can scan the reopened relations.
  {
    auto db = Database::Open(FileOptions(file));
    ASSERT_TRUE(db.ok());
    ItemsetStore store(db->get(), "fi", TableBacking::kHeap);
    auto loaded = store.Load();
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().itemsets.num_transactions,
              static_cast<uint64_t>(220));

    sql::SqlEngine engine(db->get());
    auto rows = engine.Execute("SELECT item1, support FROM fi_f1");
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows.value().rows.size(),
              loaded.value().itemsets.OfSize(1).size());
  }
}

// --------------------------------------------------------------------------
// Unlogged tables
// --------------------------------------------------------------------------

TEST(UnloggedTest, WritesBypassTheWalAndTheTableReopensEmpty) {
  TempDbFile logged_file("unlogged_control.db");
  TempDbFile unlogged_file("unlogged_bypass.db");

  // Control: the same 2000 rows into a logged table. Commit() flushes every
  // dirty page into the WAL sidecar, so the log carries the table's pages.
  uint64_t logged_wal_bytes = 0;
  {
    auto db = Database::Open(FileOptions(logged_file));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto t = (*db)->catalog()->CreateTable("t", TwoIntSchema(),
                                           TableBacking::kHeap);
    ASSERT_TRUE(t.ok());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(
          t.value()->Insert(Tuple({Value::Int32(i), Value::Int32(i)})).ok());
    }
    ASSERT_TRUE((*db)->Commit().ok());
    logged_wal_bytes = ReadAll(logged_file.wal_path()).size();
  }

  // Same load into an unlogged table: its pages go straight to the main
  // file, so the flushed WAL stays a small fraction of the control's.
  uint64_t unlogged_wal_bytes = 0;
  {
    auto db = Database::Open(FileOptions(unlogged_file));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto t = (*db)->catalog()->CreateTable(
        "t", TwoIntSchema(), TableBacking::kHeap, /*unlogged=*/true);
    ASSERT_TRUE(t.ok());
    EXPECT_TRUE(t.value()->unlogged());
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(
          t.value()->Insert(Tuple({Value::Int32(i), Value::Int32(i)})).ok());
    }
    EXPECT_EQ(t.value()->num_rows(), 2000u);
    ASSERT_TRUE((*db)->Commit().ok());
    unlogged_wal_bytes = ReadAll(unlogged_file.wal_path()).size();
  }
  ASSERT_GT(logged_wal_bytes, 0u);
  EXPECT_LT(unlogged_wal_bytes, logged_wal_bytes / 4)
      << "unlogged pages reached the write-ahead log";

  // Reopen: the unlogged table survives in the catalog — name, schema and
  // attribute — but, like a crash-recovered PostgreSQL unlogged table, its
  // rows do not.
  auto db = Database::Open(FileOptions(unlogged_file));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto t = (*db)->catalog()->GetTable("t");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t.value()->unlogged());
  EXPECT_EQ(t.value()->schema(), TwoIntSchema());
  EXPECT_EQ(t.value()->num_rows(), 0u);
  // And it is writable again from empty.
  ASSERT_TRUE(
      t.value()->Insert(Tuple({Value::Int32(1), Value::Int32(2)})).ok());
  EXPECT_EQ(t.value()->num_rows(), 1u);
}

TEST(UnloggedTest, LoggedNeighborsAreUnaffected) {
  TempDbFile file("unlogged_neighbor.db");
  {
    auto db = Database::Open(FileOptions(file));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto keep = (*db)->catalog()->CreateTable("keep", TwoIntSchema(),
                                              TableBacking::kHeap);
    ASSERT_TRUE(keep.ok());
    auto scratch = (*db)->catalog()->CreateTable(
        "scratch", TwoIntSchema(), TableBacking::kHeap, /*unlogged=*/true);
    ASSERT_TRUE(scratch.ok());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(
          keep.value()
              ->Insert(Tuple({Value::Int32(i), Value::Int32(i * 2)}))
              .ok());
      ASSERT_TRUE(scratch.value()
                      ->Insert(Tuple({Value::Int32(-i), Value::Int32(i)}))
                      .ok());
    }
  }
  auto db = Database::Open(FileOptions(file));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto keep = (*db)->catalog()->GetTable("keep");
  ASSERT_TRUE(keep.ok());
  EXPECT_FALSE(keep.value()->unlogged());
  ASSERT_EQ(keep.value()->num_rows(), 500u);
  auto it = keep.value()->Scan();
  Tuple row;
  int expect = 0;
  while (true) {
    auto more = it->Next(&row);
    ASSERT_TRUE(more.ok());
    if (!more.value()) break;
    EXPECT_EQ(row.value(0).AsInt32(), expect);
    EXPECT_EQ(row.value(1).AsInt32(), expect * 2);
    ++expect;
  }
  EXPECT_EQ(expect, 500);
  auto scratch = (*db)->catalog()->GetTable("scratch");
  ASSERT_TRUE(scratch.ok());
  EXPECT_EQ(scratch.value()->num_rows(), 0u);
}

TEST(UnloggedTest, AbandonedChainsAreReclaimedAcrossGenerations) {
  TempDbFile file("unlogged_reclaim.db");
  uint64_t pages_after_first_cycle = 0;
  // Each generation fills an unlogged table and exits; reopen discards the
  // rows and reclaims the abandoned chain, so the file must not grow by a
  // chain per generation.
  for (int generation = 0; generation < 4; ++generation) {
    auto db = Database::Open(FileOptions(file));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Table* t = nullptr;
    if (generation == 0) {
      auto created = (*db)->catalog()->CreateTable(
          "scratch", TwoIntSchema(), TableBacking::kHeap, /*unlogged=*/true);
      ASSERT_TRUE(created.ok());
      t = created.value();
    } else {
      auto found = (*db)->catalog()->GetTable("scratch");
      ASSERT_TRUE(found.ok());
      t = found.value();
      EXPECT_EQ(t->num_rows(), 0u);
    }
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(t->Insert(Tuple({Value::Int32(i), Value::Int32(i)})).ok());
    }
    // Reopen frees the abandoned chain at once, as pages nothing reaches,
    // so generation N reuses what generation N-1 abandoned.
    ASSERT_TRUE((*db)->Checkpoint().ok());
    if (generation == 1) {
      pages_after_first_cycle = (*db)->pool()->backend()->NumPages();
    }
    if (generation >= 2) {
      EXPECT_LE((*db)->pool()->backend()->NumPages(),
                pages_after_first_cycle + 2)
          << "generation " << generation
          << " grew the file instead of reusing reclaimed unlogged pages";
    }
  }
}

TEST(UnloggedTest, V2SnapshotWithoutTheFlagStillDecodes) {
  // A hand-written version-2 snapshot: one heap table, no trailing
  // unlogged byte. The previous engine wrote exactly this layout.
  RecordWriter w;
  w.PutU32(2);  // snapshot version before the unlogged flag existed
  w.PutU32(1);  // one table
  w.PutString("t");
  w.PutU8(1);  // TableBacking::kHeap
  w.PutU16(1);
  w.PutString("a");
  w.PutU8(0);  // ValueType::kInt32
  w.PutU32(7);    // first_page
  w.PutU32(9);    // last_page
  w.PutU64(3);    // num_pages
  w.PutU64(42);   // row_count
  w.PutU64(512);  // size_bytes
  w.PutU32(0);    // no free pages
  auto decoded = DecodeCatalogSnapshot(w.bytes());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().tables.size(), 1u);
  EXPECT_FALSE(decoded.value().tables[0].unlogged);
  EXPECT_EQ(decoded.value().tables[0].row_count, 42u);
}

TEST(UnloggedTest, SnapshotRoundTripsTheFlagAndRejectsBadTags) {
  CatalogSnapshot snapshot;
  PersistedTableMeta logged;
  logged.name = "keep";
  logged.backing = TableBacking::kHeap;
  logged.schema = TwoIntSchema();
  PersistedTableMeta scratch = logged;
  scratch.name = "scratch";
  scratch.unlogged = true;
  snapshot.tables = {logged, scratch};

  std::string bytes = EncodeCatalogSnapshot(snapshot);
  auto decoded = DecodeCatalogSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().tables.size(), 2u);
  EXPECT_FALSE(decoded.value().tables[0].unlogged);
  EXPECT_TRUE(decoded.value().tables[1].unlogged);

  // The flag is the last byte of each table record; corrupt the final one.
  bytes[bytes.size() - 5] = 2;  // before the u32 free-page count
  auto bad = DecodeCatalogSnapshot(bytes);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("unknown unlogged tag"),
            std::string::npos)
      << bad.status().ToString();
}

}  // namespace
}  // namespace setm
