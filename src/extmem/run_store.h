// RunStore manages sorted runs: variable-length byte sequences on a
// BlockDevice, each identified by a small RunHandle that NEXSORT embeds in
// collapsed elements (Figure 2/3 of the paper: a sorted subtree is replaced
// by its root plus "a pointer to the disk location of the sorted run").
//
// Each run's block index is kept as in-memory substrate metadata — the
// analogue of the file-system block mapping TPIE streams got from the OS for
// free. Block payloads themselves always live on the device, and every
// access is counted. Freed runs return their blocks to a free list so
// multi-pass external sorts have bounded device footprint.
//
// Thread-safety: the run table and free list sit behind a mutex, and the
// lifetime counters are atomics the telemetry sampler reads while the job
// runs. A run is immutable once Finished; RunReader therefore snapshots its
// block index at open so reads never chase the growing run table. Trace
// events go to the single-threaded Tracer, so runs are finished and freed
// on the job's foreground thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "extmem/stream.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace nexsort {

/// Identifier of a run within its RunStore. Trivially copyable so it can be
/// serialized into element units on the data stack.
struct RunHandle {
  uint32_t id = UINT32_MAX;
  uint64_t byte_size = 0;

  bool valid() const { return id != UINT32_MAX; }
};

class RunWriter;
class RunReader;
class Tracer;

/// Where a new run's blocks should land (ROADMAP item 4 / Demaine–Iacono–
/// Langerman tree layout, docs/MERGE_PLANNING.md). Placement never changes
/// a run's contents or its logical I/O count — only which device block ids
/// carry it, i.e. how much of the read-back is sequential.
enum class PlacementHint {
  /// Recycle freed blocks LIFO (the historical behaviour): hot reuse and a
  /// minimal device footprint, but merge-temp churn scatters a run's
  /// blocks, so reading it back seeks.
  kScratch = 0,
  /// The run will be read back sequentially long after it is written (a
  /// final merged run, a collapsed subtree the output DFS re-reads): lay
  /// it in ascending contiguous extents so the read-back streams.
  kSequentialOutput,
};

/// Owner of all runs on one device.
class RunStore {
 public:
  /// Blocks per extent claimed for kSequentialOutput runs. Unused tail
  /// blocks of the last extent return to the free list at Finish.
  static constexpr uint64_t kPlacementExtentBlocks = 16;

  RunStore(BlockDevice* device, MemoryBudget* budget);

  /// Attach a tracer (may be null; not owned): the store then records a
  /// run-lifecycle event for every run finished, opened, and freed.
  /// Foreground-thread only.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  /// Begin a new run. Only the returned writer may add blocks to it.
  /// `hint` selects the block-placement policy (see PlacementHint).
  RunWriter NewRun(IoCategory category = IoCategory::kRunWrite,
                   PlacementHint hint = PlacementHint::kScratch);

  /// Open `handle` for sequential reading starting at byte `offset`.
  RunReader OpenRun(RunHandle handle, uint64_t offset = 0,
                    IoCategory category = IoCategory::kRunRead);

  /// Recycle a finished run's blocks.
  [[nodiscard]] Status FreeRun(RunHandle handle);

  /// Copy `handle`'s device-block index into *blocks (runs are immutable
  /// once finished, so the copy stays valid). For merge prefetchers that
  /// need block ids without holding a reader.
  [[nodiscard]] Status SnapshotBlocks(RunHandle handle, std::vector<uint64_t>* blocks);

  /// Total blocks currently owned by live runs.
  uint64_t live_blocks() const {
    return live_blocks_.load(std::memory_order_relaxed);
  }

  /// Lifetime/live run accounting (atomics: safe from the telemetry
  /// sampler and the session-stats scope while the job is still finishing
  /// runs).
  uint64_t runs_created() const {
    return runs_created_.load(std::memory_order_relaxed);
  }
  uint64_t runs_freed() const {
    return runs_freed_.load(std::memory_order_relaxed);
  }
  uint64_t live_runs() const { return runs_created() - runs_freed(); }
  /// Total payload bytes ever written into finished runs (the job's
  /// spilled-byte volume; never decremented on free).
  uint64_t finished_bytes() const {
    return finished_bytes_.load(std::memory_order_relaxed);
  }
  /// Payload bytes currently held by live (finished, not freed) runs.
  uint64_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }

  BlockDevice* device() const { return device_; }
  MemoryBudget* budget() const { return budget_; }

 private:
  friend class RunWriter;
  friend class RunReader;

  [[nodiscard]] Status AllocateBlock(uint64_t* id);

  /// Claim `count` consecutive ascending block ids for a placed writer:
  /// first a consecutive chunk of the free list (so long-lived stores keep
  /// a bounded footprint), else a fresh device extent.
  [[nodiscard]] Status AllocateExtent(uint64_t count,
                                      std::vector<uint64_t>* out);

  /// Return writer-held blocks (never registered in any run) to the free
  /// list — the unused tail of a placed writer's last extent.
  void ReleaseBlocks(const uint64_t* ids, size_t count);

  /// Run-table balance audit: live_blocks_ must equal the sum of the block
  /// indexes of every (non-freed) run. Caller holds mutex_.
  void DcheckBalancedLocked() const NEXSORT_REQUIRES(mutex_);

  BlockDevice* device_;
  MemoryBudget* budget_;
  Tracer* tracer_ = nullptr;
  mutable Mutex mutex_{"RunStore::mutex_", lock_rank::kRunStore};
  std::vector<std::vector<uint64_t>> run_blocks_
      NEXSORT_GUARDED_BY(mutex_);  // index per run id
  std::vector<uint64_t> run_bytes_ NEXSORT_GUARDED_BY(mutex_);
  std::vector<uint64_t> free_blocks_ NEXSORT_GUARDED_BY(mutex_);
  std::atomic<uint64_t> live_blocks_{0};
  std::atomic<uint64_t> runs_created_{0};
  std::atomic<uint64_t> runs_freed_{0};
  std::atomic<uint64_t> finished_bytes_{0};
  std::atomic<uint64_t> live_bytes_{0};
};

/// Sequential writer for one run; holds one block buffer from the budget.
class RunWriter final : public ByteSink {
 public:
  const Status& init_status() const { return init_status_; }

  [[nodiscard]] Status Append(std::string_view data) override;

  /// Flush and obtain the handle. The writer is unusable afterwards.
  [[nodiscard]] Status Finish(RunHandle* handle);

  uint64_t bytes_written() const { return byte_size_; }

 private:
  friend class RunStore;
  RunWriter(RunStore* store, IoCategory category, PlacementHint hint);

  /// Block id for the next full block: free-list/device for kScratch, the
  /// current pre-claimed extent (refilled on exhaustion) for
  /// kSequentialOutput.
  [[nodiscard]] Status NextBlock(uint64_t* id);

  RunStore* store_;
  IoCategory category_;
  PlacementHint hint_;
  BudgetReservation reservation_;
  Status init_status_;
  std::vector<uint64_t> blocks_;
  std::vector<uint64_t> extent_;  // pre-claimed placed blocks
  size_t extent_used_ = 0;
  uint64_t byte_size_ = 0;
  std::string buffer_;
  bool finished_ = false;
};

/// Crash-safe scratch-file hygiene for long-lived processes (nexsortd,
/// see docs/SERVICE.md). Runs themselves live on a BlockDevice and die
/// with it, but a daemon also creates real files — the env's file-backed
/// working storage, per-job output staging files — that a crash would
/// orphan on disk. A ScratchNamespace scopes every such file under one
/// recognizable name,
///
///   <prefix>.<instance>.<seq>.<label>.scratch
///
/// inside one directory ("instance" is the owning process's id, "seq" a
/// per-namespace counter). Destruction removes everything the instance
/// issued (best-effort; a crash skips it by definition), and the next
/// daemon start reclaims whatever a dead instance left behind via
/// SweepOrphans — scoped by prefix so unrelated files and the live
/// instance's own scratch are never touched.
class ScratchNamespace {
 public:
  /// `prefix` must be non-empty and dot-free (dots delimit the name's
  /// fields); `instance` should uniquely identify this process (its pid).
  ScratchNamespace(std::string directory, std::string prefix,
                   uint64_t instance);
  ~ScratchNamespace();

  ScratchNamespace(const ScratchNamespace&) = delete;
  ScratchNamespace& operator=(const ScratchNamespace&) = delete;

  /// Reserve a fresh scratch path tagged `label` (sanitized into the
  /// filename). No file is created; the path is tracked and removed by
  /// Remove/RemoveAll/destruction whether or not it ever materializes.
  [[nodiscard]] std::string NewPath(std::string_view label);

  /// Delete one issued path now and stop tracking it. A path that never
  /// materialized (or is already gone) is fine.
  [[nodiscard]] Status Remove(const std::string& path);

  /// Delete every issued path. Idempotent; called by the destructor.
  void RemoveAll();

  /// Paths issued and not yet removed.
  [[nodiscard]] uint64_t live_paths() const;

  const std::string& directory() const { return directory_; }
  const std::string& prefix() const { return prefix_; }
  uint64_t instance() const { return instance_; }

  /// Delete every `<prefix>.*.scratch` file in `directory` whose instance
  /// field differs from `exclude_instance` — the leftovers of crashed
  /// prior processes. Returns the number of files removed. A missing
  /// directory sweeps zero files successfully.
  [[nodiscard]] static StatusOr<uint64_t> SweepOrphans(
      const std::string& directory, std::string_view prefix,
      uint64_t exclude_instance);

 private:
  std::string directory_;
  std::string prefix_;
  uint64_t instance_;
  /// Jobs issue staging paths concurrently.
  mutable Mutex mutex_{"ScratchNamespace::mutex_",
                       lock_rank::kScratchNamespace};
  uint64_t next_seq_ NEXSORT_GUARDED_BY(mutex_) = 0;
  std::vector<std::string> issued_ NEXSORT_GUARDED_BY(mutex_);
};

/// Sequential, seek-once reader over one run; holds one block buffer.
/// Re-fetching a block after reopening at an offset is counted again,
/// matching the 1 + p(b) access accounting of Lemma 4.12.
class RunReader final : public ByteSource {
 public:
  const Status& init_status() const { return init_status_; }

  [[nodiscard]] Status Read(char* buf, size_t n, size_t* out) override;

  /// Read exactly n bytes or fail with Corruption.
  [[nodiscard]] Status ReadExact(char* buf, size_t n);

  uint64_t offset() const { return position_; }
  uint64_t bytes_remaining() const { return handle_.byte_size - position_; }

 private:
  friend class RunStore;
  RunReader(RunStore* store, RunHandle handle, uint64_t offset,
            IoCategory category);

  RunStore* store_;
  RunHandle handle_;
  IoCategory category_;
  BudgetReservation reservation_;
  Status init_status_;
  std::vector<uint64_t> blocks_;  // snapshot of the run's block index
  uint64_t position_ = 0;
  std::string buffer_;
  uint64_t buffer_index_ = UINT64_MAX;  // run-block index buffered
};

}  // namespace nexsort
