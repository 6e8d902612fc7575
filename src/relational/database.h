#ifndef SETM_RELATIONAL_DATABASE_H_
#define SETM_RELATIONAL_DATABASE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "persist/superblock.h"
#include "persist/wal.h"
#include "relational/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"
#include "storage/storage_backend.h"

namespace setm {

class WorkerPool;

/// Configuration of a Database instance.
struct DatabaseOptions {
  /// Buffer pool frames (default 256 frames = 1 MiB): base tables, SETM's
  /// scratch relations and spilled sort runs all share them.
  size_t pool_frames = 256;
  /// Memory budget for in-memory sort runs, in bytes. The external sort
  /// spills once a run exceeds this budget.
  size_t sort_memory_bytes = 1 << 20;
  /// Threads of the shared worker pool that threaded miners fan out on:
  /// SETM's in-process shards and apriori's counting chunks (0 = no pool; a
  /// threaded mine then brings its own). Physical operators never use it.
  size_t worker_threads = 0;
  /// If non-empty, base tables live in this file instead of RAM, and the
  /// database is durable: pages 0/1 are alternating versioned superblock
  /// slots, every page write goes through a sidecar write-ahead log
  /// (`<file_path>.wal`) before reaching the main file, the catalog is
  /// checkpointed into a manifest chain on every DDL and on close, and
  /// reopening the same path replays the log and rebuilds the catalog with
  /// every heap table re-attached to its page chain. Memory-backed tables
  /// reopen with their name and schema but empty (their rows never left
  /// RAM). Opening a file that is not a SETM database — wrong magic,
  /// unsupported format version, truncated — fails with a descriptive
  /// Status and leaves the file untouched.
  std::string file_path;
  /// Group-commit window for Commit(), in milliseconds. 0 (default) fsyncs
  /// the WAL on every Commit — maximum durability, one fsync per batch.
  /// With a window W, Commit still appends its commit record immediately
  /// but only fsyncs when W has elapsed since the last sync, so many small
  /// batches share one fsync; a crash forgets at most the batches of the
  /// un-synced window, never a torn half-batch. Checkpoints always sync.
  uint64_t wal_commit_window_ms = 0;
  /// Test seam: builds the main-file page store instead of FileBackend
  /// (crash-simulation backends). Must ignore its IoStats argument slot —
  /// the database accounts I/O in the WAL decorator. When set, the
  /// pre-open file sanity checks (stat size) are skipped.
  std::function<Result<std::unique_ptr<StorageBackend>>(
      const std::string& path)>
      backend_factory;
  /// Test seam: builds the WAL file instead of PosixWalFile on
  /// `file_path + ".wal"`.
  std::function<Result<std::unique_ptr<WalFile>>(const std::string& path)>
      wal_factory;
};

/// Owns the full storage stack of one database instance: the I/O ledger,
/// the page store, its buffer pool and the catalog.
///
/// Typical setup:
///
///     Database db;                       // in-memory, default sizes
///     Table* sales = db.catalog()->CreateTable(
///         "sales", SalesSchema(), TableBacking::kHeap).value();
///
/// File-backed databases survive restarts — and, with the WAL, survive
/// being killed at any instant:
///
///     auto db = Database::Open({.file_path = "sales.db"}).value();
///     // ... create tables, insert, mine ...
///     db->Commit();                      // batch is now crash-durable
///     db->Close();                       // checkpoint, surfaced as Status
class Database {
 public:
  /// Unchecked construction: aborts the process if setup fails (only
  /// possible for file-backed databases — creation failure, or an existing
  /// file that is corrupt or of a foreign format). Production call sites
  /// with a file_path should use Open() and handle the Status.
  explicit Database(DatabaseOptions options = {});

  /// Checked construction. For file-backed options this creates a fresh
  /// database file (with superblock) or validates and reopens an existing
  /// one — replaying any committed write-ahead-log records a crash left
  /// behind; all other failures — unreachable path, bad magic, unsupported
  /// format version, truncated file, corrupt manifest — come back as a
  /// Status and never reinitialize or modify the file.
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options);

  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog* catalog() { return catalog_.get(); }
  BufferPool* pool() { return pool_.get(); }
  /// Shared worker pool, or null when options.worker_threads == 0.
  WorkerPool* worker_pool() { return workers_.get(); }
  const DatabaseOptions& options() const { return options_; }

  /// True when this database persists to a file (and checkpoints apply).
  bool persistent() const { return persistent_; }

  /// Page tagger for WAL-bypassing scratch storage: every tagged page is
  /// written straight to the main file instead of the write-ahead log.
  /// Null (a no-op to pass around freely) for in-memory databases.
  /// GroupedRelation::Create tags the pages of SETM's R_1 and R_k with it,
  /// and ExecContext::From hands it to the sorts for their spilled runs —
  /// scratch the run drops, whose pages would otherwise bloat the log with
  /// data nobody ever replays — and unlogged catalog tables tag their
  /// chains. A scratch page released to the pool loses its tag and goes
  /// straight back to the free list.
  std::function<void(PageId)> UnloggedPageTagger();

  /// Serializes the live catalog into the manifest chain, materializes this
  /// epoch's logged pages into the main file, publishes a new superblock
  /// slot and truncates the WAL — after a successful return the main file
  /// alone is a complete, reopenable image of the database. Every step is
  /// ordered behind an fsync, so a crash at *any* point leaves either the
  /// previous or the new image intact, never a mix. Invoked automatically
  /// after each DDL and from Close()/the destructor; callers may invoke it
  /// explicitly. When nothing changed since the last checkpoint this is a
  /// no-op (no superblock flip, no file growth). No-op for in-memory
  /// databases.
  Status Checkpoint();

  /// Makes every row appended so far crash-durable: flushes dirty pages
  /// into the WAL, appends a commit record and (subject to
  /// wal_commit_window_ms) fsyncs the log. Far cheaper than a checkpoint —
  /// no manifest rewrite, no superblock flip — and the natural call after
  /// each ingest batch. Replay after a crash restores exactly the
  /// committed batches. No-op for in-memory databases.
  Status Commit();

  /// Final checkpoint, with the Status surfaced (the destructor can only
  /// log). Idempotent; after Close() the destructor does nothing more.
  /// It also gives the free pages that end the main file back to the file
  /// system, so a mine's spilled scratch does not grow the file for good.
  /// (A routine Checkpoint keeps them: under drop/create churn the next
  /// epoch would only regrow them.)
  Status Close();

  /// Checkpoints written so far (diagnostics; 0 for in-memory databases).
  uint64_t checkpoint_count() const { return superblock_.checkpoint_seq; }

  /// The cumulative I/O ledger for all page traffic.
  IoStats* io_stats() { return &stats_; }
  const IoStats& io_stats() const { return stats_; }

  /// WAL activity counters since open (all zeros for in-memory databases,
  /// which have no log).
  WalStats wal_stats() const {
    return wal_ != nullptr ? wal_->Stats() : WalStats{};
  }

 private:
  struct UncheckedTag {};
  explicit Database(UncheckedTag);  // defined out of line: members need
                                    // complete types for their destructors

  /// Builds the whole stack; called exactly once, from either constructor
  /// path. Failure leaves the object unusable (Open() discards it).
  Status Init(DatabaseOptions options);
  /// Reads both superblock slots from the inner backend and adopts the
  /// valid one with the highest checkpoint_seq. A NotSupported from either
  /// slot (foreign format version) propagates rather than falling back —
  /// version mismatch is not crash damage.
  Status ReadLiveSuperblock();
  /// First-open path: reserves both superblock slots, seeds slot A and
  /// runs the first checkpoint.
  Status InitializeFreshFile();
  /// Reopen path (after superblock selection and WAL replay): reads the
  /// manifest, rebuilds the catalog with every table re-attached and
  /// rebuilds the free-page list from what nothing reaches.
  Status LoadPersistentState();
  /// Puts every page in [2, file_pages) outside `reachable` on the free
  /// list: the `recorded` free list of the manifest and the orphans.
  void ReclaimUnreachable(const std::unordered_set<PageId>& reachable,
                          const std::vector<PageId>& recorded,
                          uint64_t file_pages);
  /// Checkpoint(), and on close the truncation of the free tail.
  Status Checkpoint(bool truncate_free_tail);
  /// The closing checkpoint's last step: shrinks the main file from
  /// `file_pages` to `kept_pages`, whose free tail the published image
  /// left out, and drops those ids from the pool and the free list. A
  /// failure is logged and leaves the tail free.
  void TruncateFreeTail(uint64_t file_pages, uint64_t kept_pages);

  DatabaseOptions options_;
  IoStats stats_;
  /// File-backed stack, declaration order = reverse destruction order:
  /// the pool flushes into backend_ (the WAL decorator) on destruction,
  /// which appends to wal_, which reads/writes the real file — so the
  /// decorated pieces must outlive backend_, which must outlive the pool.
  std::unique_ptr<StorageBackend> inner_backend_;  ///< the real main file
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<StorageBackend> backend_;  ///< WalBackend (file) / memory
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<WorkerPool> workers_;
  bool persistent_ = false;
  bool closed_ = false;
  Superblock superblock_;
  /// The two manifest chains, alternated copy-on-write: `manifest_pages_`
  /// is the live chain the on-disk superblock references and is never
  /// rewritten in place; each rewriting checkpoint writes into the retired
  /// `spare_manifest_pages_` (allocating on the first round), flips the
  /// superblock to it, then swaps the roles. A crash anywhere inside a
  /// checkpoint therefore leaves the previous catalog image intact.
  std::vector<PageId> manifest_pages_;
  std::vector<PageId> spare_manifest_pages_;
  /// Byte-exact copy of the manifest payload the live chain holds — lets a
  /// checkpoint skip the manifest rewrite (and the chain swap) when the
  /// catalog did not change, which is every data-only checkpoint.
  std::string last_manifest_payload_;
  /// Free-page state. `free_pages_` are allocatable now: pages no durable
  /// image references — recorded free by a checkpoint, found unreachable
  /// at open, or scratch released to the pool (the release hook). A live
  /// scratch page is on neither list, so no checkpoint records it free.
  /// `pending_free_` are the chains of dropped tables, which the previous
  /// durable image may still reference: they become allocatable only after
  /// the checkpoint that records them commits — reusing them earlier would
  /// let WAL replay over pages that image still references. Guarded by
  /// free_mutex_; the pool's allocation and release hooks run under the
  /// pool mutex, so the order pool mutex -> free_mutex_ is fixed and
  /// Checkpoint never calls the pool while holding free_mutex_.
  std::mutex free_mutex_;
  std::vector<PageId> free_pages_;
  std::vector<PageId> pending_free_;
  /// Set for the duration of Checkpoint: the allocation hook stands down so
  /// a manifest rewrite cannot pop pages out of the free list *after* that
  /// list was serialized into the very payload being written.
  std::atomic<bool> in_checkpoint_{false};
  /// Group-commit clock: last WAL fsync issued by Commit().
  std::chrono::steady_clock::time_point last_wal_sync_;
};

}  // namespace setm

#endif  // SETM_RELATIONAL_DATABASE_H_
