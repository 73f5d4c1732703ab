// Block-device abstraction: the substrate standing in for TPIE (Arge et al.)
// from the paper's evaluation. All external-memory I/O in the library goes
// through a BlockDevice, which counts every block transfer (the paper's
// primary metric), attributes it to a category matching the I/O breakdown in
// Section 4.2 of the paper, and models elapsed disk time so benchmarks can
// report a seconds-shaped series alongside raw I/O counts.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace nexsort {

/// Purpose tags for I/O accounting, mirroring the cost breakdown the paper
/// analyzes in Section 4.2 (input scan, subtree sorts, stack paging, run
/// reads, output writing).
enum class IoCategory {
  kInput = 0,     // reading the source document
  kOutput,        // writing the final sorted document
  kDataStack,     // paging the data stack
  kPathStack,     // paging the path stack
  kOutputStack,   // paging the output location stack
  kRunWrite,      // writing sorted runs
  kRunRead,       // reading sorted runs back (output phase / merges)
  kSortTemp,      // external merge sort scratch (run formation + merge)
  kOther,         // keep last: kNumIoCategories is derived from it
};
inline constexpr int kNumIoCategories = static_cast<int>(IoCategory::kOther) + 1;
static_assert(kNumIoCategories == 9,
              "IoCategory changed: update IoCategoryName and every "
              "category-indexed table before adjusting this count");

/// Simple rotating-disk cost model: a random access pays a seek, a strictly
/// sequential access (block id == previous id + 1 on the same device) pays
/// transfer time only. Defaults approximate the paper's 2003-era IDE disk.
struct DiskModel {
  double seek_ms = 8.0;
  double transfer_mb_per_s = 40.0;

  /// Cost in seconds of one block access.
  double AccessSeconds(size_t block_size, bool sequential) const {
    double transfer =
        static_cast<double>(block_size) / (transfer_mb_per_s * 1e6);
    return sequential ? transfer : transfer + seek_ms / 1e3;
  }
};

/// Counters maintained by every BlockDevice. Fields are atomics so
/// prefetch threads and concurrent jobs can account I/O alongside the
/// foreground; copies take a relaxed per-field snapshot (fields are mutually
/// consistent only when the device is quiescent, which is when benchmarks
/// and stats exporters read them).
struct IoStats {
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> sequential_reads{0};   // subset of `reads`
  std::atomic<uint64_t> sequential_writes{0};  // subset of `writes`
  std::atomic<uint64_t> category_reads[kNumIoCategories] = {};
  std::atomic<uint64_t> category_writes[kNumIoCategories] = {};
  std::atomic<double> modeled_seconds{0.0};

  IoStats() = default;
  IoStats(const IoStats& other) { CopyFrom(other); }
  IoStats& operator=(const IoStats& other) {
    CopyFrom(other);
    return *this;
  }

  uint64_t total() const {
    return reads.load(std::memory_order_relaxed) +
           writes.load(std::memory_order_relaxed);
  }
  void Clear() { *this = IoStats(); }

  /// Multi-line human-readable report of all counters.
  std::string ToString(size_t block_size) const;

  /// Serialize all counters as one JSON object (telemetry schema: totals,
  /// sequential subsets, modeled seconds, and a "categories" object keyed
  /// by IoCategoryName with per-category reads/writes).
  void ToJson(class JsonWriter* writer) const;
  std::string ToJsonString() const;

 private:
  void CopyFrom(const IoStats& other);
};

/// Name of an IoCategory for reports.
const char* IoCategoryName(IoCategory category);

/// Abstract array of fixed-size blocks with allocation, accounting, and a
/// disk-time model. Subclasses provide the storage (RAM or a real file).
///
/// Thread-safe: counters are atomic and the sequentiality/failure-injection
/// state sits behind a small mutex that is never held across the actual
/// storage transfer, so concurrent I/O from prefetch threads and
/// concurrent jobs overlaps. The category *scope* (SetCategory/IoCategoryScope) is
/// still a single-threaded convenience — concurrent threads must use the
/// explicit-category Read/Write overloads so attribution cannot race.
class BlockDevice {
 public:
  /// `mutex_rank` places this device's bookkeeping mutex in the lock
  /// hierarchy. Allocate holds it across the virtual DoAllocate, which
  /// wrapping devices forward to the device they wrap — so every wrapper
  /// passes `inner->mutex_rank() - 1` and the stack stays strictly
  /// ordered (see lock_rank::kBlockDevice).
  BlockDevice(size_t block_size, DiskModel model,
              int mutex_rank = lock_rank::kBlockDevice);
  virtual ~BlockDevice();

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  size_t block_size() const { return block_size_; }

  /// Rank of this device's bookkeeping mutex; wrapping devices construct
  /// their own mutex at `mutex_rank() - 1` of the device they wrap.
  [[nodiscard]] int mutex_rank() const { return mutex_.rank(); }

  /// Number of blocks allocated so far.
  uint64_t num_blocks() const {
    return num_blocks_.load(std::memory_order_acquire);
  }

  /// Extend the device by `count` blocks; *first_id receives the id of the
  /// first new block. Ids are dense and increasing. Virtual so a
  /// forwarding wrapper shared *beside* other wrappers of one inner
  /// device (the per-session accounting device) can delegate id
  /// assignment to the inner device instead of its own stale counter.
  [[nodiscard]] virtual Status Allocate(uint64_t count, uint64_t* first_id);

  /// Read block `block_id` into `buf` (block_size bytes), with accounting
  /// attributed to the current scope category.
  [[nodiscard]] Status Read(uint64_t block_id, char* buf);

  /// Write block `block_id` from `buf` (block_size bytes), with accounting
  /// attributed to the current scope category.
  [[nodiscard]] Status Write(uint64_t block_id, const char* buf);

  /// Explicit-category variants: attribution travels with the call instead
  /// of through SetCategory, so background threads account correctly no
  /// matter what scope the foreground has installed.
  [[nodiscard]] Status Read(uint64_t block_id, char* buf, IoCategory category);
  [[nodiscard]] Status Write(uint64_t block_id, const char* buf, IoCategory category);

  /// Set the category future I/Os are attributed to; returns the previous
  /// category so callers can restore it (see IoCategoryScope).
  IoCategory SetCategory(IoCategory category);

  const IoStats& stats() const { return stats_; }
  IoStats* mutable_stats() { return &stats_; }

  /// Which operations a failure injection applies to. Operations outside
  /// the filter succeed and do not consume the injection budget, so e.g.
  /// kWrites makes exactly the next `count` *writes* fail no matter how
  /// many reads interleave — the knob that makes deferred write-back
  /// error paths (cache eviction, Flush) testable in isolation.
  enum class FailOps {
    kAll = 0,
    kReads,
    kWrites,
  };

  /// Inject a failure: the next `count` I/O operations matching `ops`
  /// return IOError. Used by failure-injection tests.
  void FailNextOps(int count, FailOps ops = FailOps::kAll)
      NEXSORT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    fail_skip_ = 0;
    fail_ops_ = count;
    fail_filter_ = ops;
  }

  /// Let `skip` more matching operations succeed, then fail `count`.
  void FailAfterOps(uint64_t skip, int count, FailOps ops = FailOps::kAll)
      NEXSORT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    fail_skip_ = skip;
    fail_ops_ = count;
    fail_filter_ = ops;
  }

 protected:
  /// Storage hooks. `category` is the attribution the public entry point
  /// resolved for this access; plain storage devices ignore it, wrapping
  /// devices (cache, throttle) forward it so attribution survives the hop.
  [[nodiscard]] virtual Status DoRead(uint64_t block_id, char* buf, IoCategory category) = 0;
  [[nodiscard]] virtual Status DoWrite(uint64_t block_id, const char* buf,
                         IoCategory category) = 0;
  [[nodiscard]] virtual Status DoAllocate(uint64_t count) = 0;

  /// Category currently attributed to scope-based I/O (for wrapping devices
  /// that must forward the caller's attribution).
  IoCategory category() const {
    return category_.load(std::memory_order_relaxed);
  }

  /// For wrapping devices: adopt the wrapped device's block count so block
  /// ids stay aligned across the two layers.
  void SyncNumBlocks(uint64_t num_blocks) {
    num_blocks_.store(num_blocks, std::memory_order_release);
  }

 private:
  void Account(uint64_t block_id, bool is_write, IoCategory category);

  const size_t block_size_;
  const DiskModel model_;
  std::atomic<uint64_t> num_blocks_{0};
  IoStats stats_;
  std::atomic<IoCategory> category_{IoCategory::kOther};
  /// Guards the cross-operation state below (sequentiality detector and
  /// failure injection). Never held during DoRead/DoWrite, so slow storage
  /// (file I/O, modeled throttle sleeps) does not serialize callers — but
  /// it IS held across DoAllocate, which is why wrapper ranks descend.
  Mutex mutex_;
  /// For sequentiality detection.
  uint64_t last_accessed_ NEXSORT_GUARDED_BY(mutex_) = UINT64_MAX - 1;
  uint64_t fail_skip_ NEXSORT_GUARDED_BY(mutex_) = 0;
  int fail_ops_ NEXSORT_GUARDED_BY(mutex_) = 0;
  FailOps fail_filter_ NEXSORT_GUARDED_BY(mutex_) = FailOps::kAll;

  /// True when this operation should fail now (consumes the injection).
  [[nodiscard]] bool ShouldFail(bool is_write) NEXSORT_REQUIRES(mutex_);
};

/// RAII guard that attributes all I/O on `device` to `category` while alive.
/// Foreground-thread convenience only; concurrent threads pass the category
/// explicitly to Read/Write instead.
class IoCategoryScope {
 public:
  IoCategoryScope(BlockDevice* device, IoCategory category)
      : device_(device), previous_(device->SetCategory(category)) {}
  ~IoCategoryScope() { device_->SetCategory(previous_); }

  IoCategoryScope(const IoCategoryScope&) = delete;
  IoCategoryScope& operator=(const IoCategoryScope&) = delete;

 private:
  BlockDevice* device_;
  IoCategory previous_;
};

/// In-RAM block device for tests and benchmarks (I/O counts are identical to
/// a real disk's; only wall-clock differs, which the DiskModel supplies).
std::unique_ptr<BlockDevice> NewMemoryBlockDevice(size_t block_size,
                                                  DiskModel model = {});

/// File-backed block device using a single backing file.
[[nodiscard]] StatusOr<std::unique_ptr<BlockDevice>> NewFileBlockDevice(
    const std::string& path, size_t block_size, DiskModel model = {});

}  // namespace nexsort
