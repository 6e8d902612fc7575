#ifndef SETM_STORAGE_FAULT_INJECTION_H_
#define SETM_STORAGE_FAULT_INJECTION_H_

#include <memory>

#include "storage/storage_backend.h"

namespace setm {

/// A StorageBackend decorator that starts failing after a configurable
/// number of operations — the RocksDB FaultInjectionTestEnv idea, used to
/// verify that I/O errors propagate as Status through every layer (buffer
/// pool, table heap, sorts, miners) instead of crashing or corrupting.
///
///     MemoryBackend real(&stats);
///     FaultInjectionBackend flaky(&real, /*fail_after_ops=*/100);
///     BufferPool pool(&flaky, 16);   // op #101 onward returns IOError
class FaultInjectionBackend : public StorageBackend {
 public:
  /// Operations (allocate/read/write) up to `fail_after_ops` succeed; every
  /// later one fails with IOError. The inner backend must outlive this.
  FaultInjectionBackend(StorageBackend* inner, uint64_t fail_after_ops)
      : StorageBackend(nullptr),
        inner_(inner),
        fail_after_ops_(fail_after_ops) {}

  Result<PageId> AllocatePage() override {
    SETM_RETURN_IF_ERROR(MaybeFail("AllocatePage"));
    return inner_->AllocatePage();
  }
  Status ReadPage(PageId id, Page* out) override {
    SETM_RETURN_IF_ERROR(MaybeFail("ReadPage"));
    return inner_->ReadPage(id, out);
  }
  Status WritePage(PageId id, const Page& page) override {
    if (id == poisoned_write_) {
      return Status::IOError("injected fault: page " + std::to_string(id) +
                             " is write-poisoned");
    }
    SETM_RETURN_IF_ERROR(MaybeFail("WritePage"));
    return inner_->WritePage(id, page);
  }
  /// Forwarded without counting as an operation: a release cannot fail on
  /// real storage.
  Status FreePage(PageId id) override { return inner_->FreePage(id); }
  Status Sync() override {
    SETM_RETURN_IF_ERROR(MaybeFail("Sync"));
    return inner_->Sync();
  }
  uint64_t NumPages() const override { return inner_->NumPages(); }

  /// Operations observed so far.
  uint64_t ops() const { return ops_; }

  /// Re-arms the trigger (e.g. to let cleanup succeed after the test).
  void Heal() { fail_after_ops_ = ~0ull; }

  /// Makes every write of one specific page fail (independent of the op
  /// budget) — models a single bad sector. The buffer pool's retryable
  /// eviction must route around such a page. Unpoison with
  /// `PoisonWrites(kInvalidPageId)`.
  void PoisonWrites(PageId id) { poisoned_write_ = id; }

 private:
  Status MaybeFail(const char* op) {
    if (++ops_ > fail_after_ops_) {
      return Status::IOError(std::string("injected fault in ") + op +
                             " after " + std::to_string(fail_after_ops_) +
                             " ops");
    }
    return Status::OK();
  }

  StorageBackend* inner_;
  uint64_t fail_after_ops_;
  uint64_t ops_ = 0;
  PageId poisoned_write_ = kInvalidPageId;
};

}  // namespace setm

#endif  // SETM_STORAGE_FAULT_INJECTION_H_
