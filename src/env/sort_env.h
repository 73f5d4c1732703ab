// SortEnv: the execution environment every sort/merge job runs in. One
// declarative SortEnvOptions (or the fluent SortEnvBuilder) describes the
// whole resource stack and SortEnv owns its composition:
//
//   MemoryBudget (M blocks, the paper's hard cap)
//     └─ base BlockDevice (in-RAM or file-backed working storage)
//          └─ optional wrapper layers (throttle, fault injection — see
//             extmem/device_wrappers.h), stacked bottom-up in declaration
//             order
//               └─ optional BufferPool block cache (CachedBlockDevice,
//                  frames charged to the budget)
//   WorkerPool (shared background threads when parallel.threads > 0)
//   Tracer (optional, not owned) wired to every component that reports
//
// Entry points (NexSorter, KeyPathXmlSorter, JsonSorter, ApplyBatchUpdates)
// consume a SortEnv instead of hand-assembled (BlockDevice*, MemoryBudget*)
// pairs, so "N concurrent sorts against one budget" is a configuration, not
// an accident of wiring: each job gets a cheap SortEnv::Session that owns
// the job-local state (its temp-run store and its parallel counters over
// the shared pool) while budget blocks, cache frames, and worker threads
// stay shared with exact accounting. See docs/ARCHITECTURE.md.
//
// Construction of MemoryBudget / BufferPool / WorkerPool outside this
// directory (and tests) is forbidden by the `env-construction` lint rule.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/buffer_pool.h"
#include "extmem/block_device.h"
#include "extmem/device_wrappers.h"
#include "extmem/memory_budget.h"
#include "extmem/run_store.h"
#include "obs/telemetry_hub.h"
#include "parallel/parallel.h"
#include "parallel/worker_pool.h"
#include "sort/external_merge_sort.h"
#include "sort/run_formation.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace nexsort {

class JsonWriter;
class Tracer;

/// Footprint of one SortEnv::Session: the job's own logical I/O (counted
/// by its per-session accounting device, so sums across sessions match
/// the env device's read/write/category totals exactly), its run volume,
/// and its wall-clock window. budget_peak_blocks is the *shared* budget's
/// high-water observed while the session ran — the budget has no
/// per-session ledger, so it is attribution by window, not by owner.
struct SessionStats {
  uint64_t id = 0;
  bool active = false;       // still running when snapshotted
  double start_seconds = 0;  // since the env's telemetry epoch
  double wall_seconds = 0;
  IoStats io;                // logical I/O through the session's device
  uint64_t runs_created = 0;
  uint64_t spilled_bytes = 0;  // payload bytes finished into runs
  uint64_t budget_peak_blocks = 0;

  /// One object of the `sessions` array in nexsort-stats-v1.
  void ToJson(JsonWriter* writer) const;
};

/// One wrapper layer in the device stack, applied bottom-up over the base
/// storage device (before the cache, which always sits on top).
struct DeviceLayer {
  enum class Kind {
    kThrottle,  // real wall-clock delay per access (overlap benchmarks)
    kFault,     // failure-injection point, armed via FailNextOps et al.
  };
  Kind kind = Kind::kThrottle;

  /// Delay model when kind == kThrottle; ignored for kFault.
  ThrottleModel throttle;

  static DeviceLayer Throttle(ThrottleModel model = {}) {
    return DeviceLayer{Kind::kThrottle, model};
  }
  static DeviceLayer Fault() { return DeviceLayer{Kind::kFault, {}}; }
};

/// Declarative description of the whole resource stack. Field-for-field
/// this replaces what every entry point used to assemble by hand; the
/// former NexSortOptions/KeyPathSortOptions `tracer`, `cache`, `parallel`,
/// and `sort_memory_blocks` fields live here now.
struct SortEnvOptions {
  /// Block size B of the working device, in bytes.
  size_t block_size = 4096;

  /// Memory budget M, in blocks — the hard cap shared by every job that
  /// runs in this env (stacks, sort buffers, cache frames, stream buffers).
  uint64_t memory_blocks = 32;

  /// Modeled-seconds cost model of the base device.
  DiskModel disk_model;

  /// Backing storage: empty = in-RAM device (tests/benchmarks); a path =
  /// file-backed working storage (CLI tools).
  std::string file_path;

  /// Wrapper layers stacked bottom-up over the base device, below the
  /// cache. Order matters and any order composes.
  std::vector<DeviceLayer> layers;

  /// Block cache on top of the device stack (frames > 0 enables it; the
  /// frames are charged against memory_blocks for the env's lifetime).
  CacheOptions cache;

  /// Compute/I-O overlap: threads > 0 starts one WorkerPool shared by
  /// every session; prefetch_depth needs cache.frames > 0.
  ParallelOptions parallel;

  /// Blocks of internal memory each sort may use; 0 sizes automatically
  /// from what the budget has left at sort time. Pin it to compare serial
  /// and parallel runs under identical run structure, or to give N
  /// concurrent jobs deterministic, identical grants.
  uint64_t sort_memory_blocks = 0;

  /// Optional telemetry sink (not owned; may be null; span recording is
  /// thread-safe but concurrent sessions sharing one tracer interleave
  /// their spans — see Session::set_tracer for per-job sinks).
  Tracer* tracer = nullptr;

  /// Live telemetry: > 0 gives the env a TelemetryHub and starts its
  /// background StatsSampler at this interval (milliseconds), snapshotting
  /// budget / cache / worker / run-store gauges and logical-vs-physical
  /// I/O into every attached TimelineSink. 0 (default) = no sampler, no
  /// hub, zero overhead.
  uint32_t sample_interval_ms = 0;
};

/// The composed, owned resource stack. Create one per working-storage
/// domain; run any number of jobs in it, serially or concurrently.
class SortEnv {
 public:
  /// The least sort memory a pinned sort_memory_blocks may name.
  static constexpr uint64_t kMinSortMemoryBlocks = 4;

  /// Validates the options and composes the stack. Fails when the backing
  /// file cannot be opened, the budget cannot fund the cache frames, or
  /// the knobs are inconsistent (readahead/prefetch without cache frames).
  [[nodiscard]] static StatusOr<std::unique_ptr<SortEnv>> Create(
      SortEnvOptions options);

  ~SortEnv();

  SortEnv(const SortEnv&) = delete;
  SortEnv& operator=(const SortEnv&) = delete;

  /// Per-job handle: cheap to create, movable, one per sort/merge job.
  /// Owns the job's temp-run lifecycle (RunStore), its parallel counters
  /// (ParallelContext over the env's shared WorkerPool), and its
  /// accounting device — a thin forwarder over the env's device whose
  /// IoStats count exactly this job's logical I/O; shares everything else
  /// — device stack, cache frames, budget blocks — with every other
  /// session of the env, with exact accounting. The env tracks every
  /// session: a live one contributes to the sampler's run-store gauges,
  /// and a destroyed one leaves its final SessionStats behind for the
  /// `sessions` array.
  class Session {
   public:
    Session(Session&& other) noexcept;
    Session& operator=(Session&& other) noexcept;
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    ~Session();

    SortEnv* env() const { return env_; }

    /// This job's accounting device: forwards to the env's device (cache
    /// when enabled) while counting the job's own logical I/O.
    BlockDevice* device() const { return device_.get(); }
    BlockDevice* physical_device() const { return env_->physical_device(); }
    MemoryBudget* budget() const { return env_->budget(); }
    BufferPool* buffer_pool() const { return env_->buffer_pool(); }

    /// Options for this job's external merge sorts: its tracer, worker
    /// pool, buffer pool and cancellation token, `policy`, and the blocks
    /// the budget has left less the `held_blocks` the sorter keeps for
    /// itself — or the env's sort_memory_blocks when that pins a figure,
    /// which must lie in [kMinSortMemoryBlocks, that]. Fails, naming
    /// `sorter`, when the budget has fewer than `min_blocks` left.
    [[nodiscard]] StatusOr<ExtSortOptions> SortOptions(
        std::string_view sorter, uint64_t min_blocks, uint64_t held_blocks,
        RunFormationPolicy policy) const;

    uint64_t id() const { return id_; }

    /// This job's run store (over the session's accounting device).
    RunStore* run_store() const { return run_store_.get(); }

    /// This job's parallel context; null when the env is fully serial.
    ParallelContext* parallel() const { return parallel_.get(); }

    /// Counters of this job's parallel pipeline; all zeros when disabled.
    ParallelStats parallel_stats() const {
      return parallel_ != nullptr ? parallel_->stats() : ParallelStats();
    }

    /// Export those counters into the job's tracer once the job's pipeline
    /// has drained (ParallelContext::PublishMetrics); no-op when serial.
    void PublishParallelMetrics() const {
      if (parallel_ != nullptr) parallel_->PublishMetrics(tracer_);
    }

    /// This job's cancellation token. Sorters running in the session poll
    /// it at block-granular points and return Status::Cancelled; flip it
    /// from any thread via cancellation_handle()->Cancel(). Every session
    /// gets one (the cost is a single relaxed atomic load per poll).
    const CancellationToken* cancellation() const { return cancel_.get(); }

    /// Shared handle for the party requesting cancellation (a service's
    /// Cancel RPC, a signal handler) — may outlive the session.
    std::shared_ptr<CancellationToken> cancellation_handle() const {
      return cancel_;
    }

    /// The job's telemetry sink: the env's tracer unless overridden.
    /// Override (or null out) per session when several jobs run
    /// concurrently — spans would interleave in one shared tracer.
    Tracer* tracer() const { return tracer_; }
    void set_tracer(Tracer* tracer);

    /// Point the job's tracer (if any) at the physical device and the
    /// budget, so spans snapshot real transfers rather than logical
    /// accesses when caching is on. Sorters call it as a job starts.
    void AttachTracer() const;

    /// Snapshot of this job's footprint so far. Thread-safe (atomics
    /// only); also taken automatically at destruction and retained by the
    /// env.
    SessionStats stats() const;

    /// Write back cached dirty blocks (surfacing deferred write-back
    /// failures); no-op without a cache.
    [[nodiscard]] Status Flush() { return env_->Flush(); }

   private:
    friend class SortEnv;
    explicit Session(SortEnv* env);

    /// Take every member of `other`, leaving it moved-from.
    void TakeFrom(Session* other);

    SortEnv* env_;  // null after being moved from
    uint64_t id_ = 0;
    Tracer* tracer_;
    double start_seconds_ = 0;
    std::chrono::steady_clock::time_point start_;
    std::unique_ptr<BlockDevice> device_;  // per-session accounting wrapper
    std::unique_ptr<RunStore> run_store_;
    std::unique_ptr<ParallelContext> parallel_;
    std::shared_ptr<CancellationToken> cancel_;
  };

  Session NewSession() { return Session(this); }

  // -- Shared stack accessors ------------------------------------------

  size_t block_size() const { return options_.block_size; }
  const SortEnvOptions& options() const { return options_; }

  /// Top of the device stack — what jobs should do I/O through (the cache
  /// when enabled, else the topmost wrapper layer, else the base device).
  BlockDevice* device() {
    return cache_ != nullptr ? static_cast<BlockDevice*>(cache_.get())
                             : physical_;
  }

  /// Top *physical* device (just below the cache): its IoStats count real
  /// block transfers, which is what tracer spans and benchmarks snapshot.
  BlockDevice* physical_device() { return physical_; }

  /// Bottom storage device (below every wrapper layer).
  BlockDevice* base_device() { return base_.get(); }

  /// Wrapper layer `index` (bottom-up, matching options().layers) — e.g.
  /// to arm FailNextOps on a kFault layer. Null when out of range.
  BlockDevice* layer_device(size_t index) {
    return index < layers_.size() ? layers_[index].get() : nullptr;
  }

  MemoryBudget* budget() { return &budget_; }

  /// The block cache's pool; null when cache.frames == 0.
  BufferPool* buffer_pool() { return cache_ != nullptr ? cache_->pool() : nullptr; }

  /// The shared worker pool; null when parallel.threads == 0.
  WorkerPool* worker_pool() { return worker_pool_.get(); }

  Tracer* tracer() const { return options_.tracer; }

  /// The live-telemetry hub; null unless options.sample_interval_ms > 0.
  /// Attach TimelineSinks here (the sampler is already running).
  TelemetryHub* telemetry() { return hub_.get(); }

  /// Counters of the block cache; all zeros when caching is disabled.
  CacheStats cache_stats() const {
    return cache_ != nullptr ? cache_->pool()->stats() : CacheStats();
  }

  /// Every session's footprint: finished sessions first (in finish
  /// order), then still-active ones. Safe to call while jobs run.
  std::vector<SessionStats> session_stats() const;

  /// The `sessions` array of nexsort-stats-v1.
  void SessionsToJson(JsonWriter* writer) const;

  /// Write back every cached dirty block, surfacing any deferred
  /// write-back failure; OK when caching is off.
  [[nodiscard]] Status Flush() {
    return cache_ != nullptr ? cache_->Flush() : Status::OK();
  }

  /// Serialize the env's composition (block size, budget, device layers,
  /// cache/parallel knobs) as one JSON object — the `env` block of
  /// nexsort-stats-v1.
  void DescribeJson(JsonWriter* writer) const;

 private:
  explicit SortEnv(SortEnvOptions options);

  void RegisterSession(Session* session);
  /// Move `from` into `to` and put `to` in its place among the live
  /// sessions, under the registry lock, so the sampler never reads a
  /// session mid-move.
  void MoveSession(Session* from, Session* to);
  void UnregisterSession(Session* session);

  /// Sampler probe: fill one TelemetrySample with the env-wide gauges.
  /// Runs on the sampler thread (atomics and locked registries only).
  void SampleGauges(TelemetrySample* sample);

  SortEnvOptions options_;
  MemoryBudget budget_;
  std::unique_ptr<BlockDevice> base_;
  std::vector<std::unique_ptr<BlockDevice>> layers_;  // bottom-up wrappers
  BlockDevice* physical_ = nullptr;  // top of layers_, or base_
  std::unique_ptr<CachedBlockDevice> cache_;  // null when caching is off
  std::unique_ptr<WorkerPool> worker_pool_;   // null when serial

  mutable Mutex sessions_mutex_{"SortEnv::sessions_mutex_",
                                lock_rank::kSessionTable};
  std::vector<Session*> active_sessions_ NEXSORT_GUARDED_BY(sessions_mutex_);
  std::vector<SessionStats> finished_sessions_
      NEXSORT_GUARDED_BY(sessions_mutex_);
  uint64_t next_session_id_ NEXSORT_GUARDED_BY(sessions_mutex_) = 0;

  // Declared last on purpose: destroyed first, which stops the sampler
  // thread while every component it probes is still alive.
  std::unique_ptr<TelemetryHub> hub_;
};

/// Fluent construction for the common cases:
///
///   ASSIGN_OR_RETURN(auto env, SortEnvBuilder()
///                                  .BlockSize(4096)
///                                  .MemoryBlocks(64)
///                                  .Cache(32, /*readahead=*/4)
///                                  .Threads(2)
///                                  .Build());
class SortEnvBuilder {
 public:
  SortEnvBuilder& BlockSize(size_t bytes) {
    options_.block_size = bytes;
    return *this;
  }
  SortEnvBuilder& MemoryBlocks(uint64_t blocks) {
    options_.memory_blocks = blocks;
    return *this;
  }
  SortEnvBuilder& Disk(DiskModel model) {
    options_.disk_model = model;
    return *this;
  }
  SortEnvBuilder& File(std::string path) {
    options_.file_path = std::move(path);
    return *this;
  }
  SortEnvBuilder& Layer(DeviceLayer layer) {
    options_.layers.push_back(layer);
    return *this;
  }
  SortEnvBuilder& Throttle(ThrottleModel model = {}) {
    return Layer(DeviceLayer::Throttle(model));
  }
  SortEnvBuilder& FaultLayer() { return Layer(DeviceLayer::Fault()); }
  SortEnvBuilder& Cache(uint64_t frames, uint64_t readahead = 0) {
    options_.cache = CacheOptions{frames, readahead};
    return *this;
  }
  SortEnvBuilder& Threads(uint32_t threads) {
    options_.parallel.threads = threads;
    return *this;
  }
  SortEnvBuilder& PrefetchDepth(uint32_t depth) {
    options_.parallel.prefetch_depth = depth;
    return *this;
  }
  SortEnvBuilder& SortMemoryBlocks(uint64_t blocks) {
    options_.sort_memory_blocks = blocks;
    return *this;
  }
  SortEnvBuilder& Telemetry(Tracer* tracer) {
    options_.tracer = tracer;
    return *this;
  }
  SortEnvBuilder& SampleIntervalMs(uint32_t interval_ms) {
    options_.sample_interval_ms = interval_ms;
    return *this;
  }

  const SortEnvOptions& options() const { return options_; }

  [[nodiscard]] StatusOr<std::unique_ptr<SortEnv>> Build() {
    return SortEnv::Create(options_);
  }

 private:
  SortEnvOptions options_;
};

}  // namespace nexsort
