// ParallelOptions/ParallelStats/ParallelContext: the configuration knob,
// the counters, and the shared worker-pool handle for the two overlap
// mechanisms of the sort pipeline (partitioned buffer sorts and
// merge-input prefetching). Everything defaults *off* — `threads == 0`
// reproduces the serial pipeline exactly — and output bytes and logical
// I/O counts are identical whether or not either mechanism engaged.
#pragma once

#include <cstdint>
#include <memory>

#include "parallel/worker_pool.h"
#include "util/thread_annotations.h"

namespace nexsort {

class JsonWriter;
class Tracer;

/// Concurrency knobs, carried by SortEnvOptions. Defaults keep the
/// pipeline serial.
struct ParallelOptions {
  /// Background worker threads. 0 = fully serial (the default): no pool,
  /// no parallel sort partitions.
  uint32_t threads = 0;
  /// Merge-input prefetch distance in blocks per source. 0 disables the
  /// RunPrefetcher. Needs a BufferPool (cache frames) to hold the blocks.
  uint32_t prefetch_depth = 0;

  /// Anything to do at all? Prefetching runs its own thread, so it works
  /// even with zero workers.
  bool enabled() const { return threads > 0 || prefetch_depth > 0; }
};

/// Counters describing what the parallel pipeline actually did. Plain
/// fields: aggregate copies are exchanged under the ParallelContext lock.
struct ParallelStats {
  uint64_t sync_spills = 0;        // runs spilled by run formation
  uint64_t parallel_sorts = 0;     // buffer sorts partitioned across pool
  uint64_t sort_partitions = 0;    // total partitions across those sorts
  uint64_t prefetch_issued = 0;    // blocks pushed by RunPrefetcher

  // Spills no longer run in the background, so these stay 0. They remain
  // only because the real-file benchmark runner still reads them; nothing
  // sets or emits them.
  uint64_t async_spills = 0;
  uint64_t double_buffer_declined = 0;
  double spill_wait_seconds = 0.0;
  double spill_busy_seconds = 0.0;

  void MergeFrom(const ParallelStats& other);

  /// One JSON object with every counter (schema: the "parallel" block of
  /// nexsort-stats-v1; see docs/PARALLELISM.md).
  void ToJson(JsonWriter* writer) const;
};

/// Shared state for one job's parallel execution: a borrowed worker pool
/// plus thread-safe stats aggregation. The SortEnv (src/env/) owns the
/// WorkerPool and hands each job's session its own context over it, so
/// concurrent jobs share one set of threads while keeping per-job
/// counters; the context is then lent to every ExternalMergeSorter via
/// ExtSortOptions, so nested subtree sorts share the pool too.
class ParallelContext {
 public:
  /// `pool` is not owned (may be null = no background workers; the
  /// prefetcher still works, it runs its own thread) and must outlive the
  /// context. Pool construction itself lives in SortEnv.
  ParallelContext(ParallelOptions options, WorkerPool* pool);

  const ParallelOptions& options() const { return options_; }

  /// Null when the context was built without workers (threads == 0).
  WorkerPool* pool() { return pool_; }

  /// Fold a sorter's local counters into the aggregate. Thread-safe.
  void AddStats(const ParallelStats& stats);

  /// Aggregate snapshot.
  ParallelStats stats() const;

  /// Export parallel_* counters into the tracer's metrics registry.
  /// Foreground-thread only (the Tracer is single-threaded); call once
  /// after the pipeline drains.
  void PublishMetrics(Tracer* tracer) const;

 private:
  const ParallelOptions options_;
  WorkerPool* pool_;  // not owned; null = serial
  mutable Mutex mutex_{"ParallelContext::mutex_", lock_rank::kParallelStats};
  ParallelStats stats_ NEXSORT_GUARDED_BY(mutex_);
};

}  // namespace nexsort
