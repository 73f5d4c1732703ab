// Generic external merge sort of (key, value) records under a strict memory
// budget: the classic algorithm the paper compares against (and the one
// NEXSORT falls back to for subtrees larger than internal memory). Run
// formation fills (M-1) blocks of buffer, sorts, and spills; merging uses a
// loser tree with fan-in M-1, so the pass count is ceil(log_{M-1}(runs)) —
// the log_{M/B}(N/B) factor of the flat-file bound.
//
// With a ParallelContext attached (see src/parallel/), the same algorithm
// overlaps compute and I/O without changing its structure:
//
//  * partitioned buffer sorts — the in-memory sort of a full buffer is
//    split across the pool and merged (the record comparator is a strict
//    total order, so the result is bit-identical to the serial sort);
//  * merge-input prefetching — a RunPrefetcher stays prefetch_depth blocks
//    ahead of each merge source inside the BufferPool.
//
// Run boundaries, run contents, merge order, and logical I/O are identical
// with and without a context; only the wall-clock schedule changes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "extmem/run_store.h"
#include "extmem/stream.h"
#include "parallel/parallel.h"
#include "sort/loser_tree.h"
#include "sort/merge_plan.h"
#include "sort/run_formation.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace nexsort {

class BufferPool;
class Tracer;
class ReplacementSelectionFormer;

struct ExtSortOptions {
  /// Blocks of internal memory this sort may use (the paper's M for the
  /// baseline; NEXSORT grants its subtree sorts what remains after stack
  /// reservations). Must be >= 3: one output block plus a >=2-way merge.
  uint64_t memory_blocks = 8;

  /// Accounting category for temporary runs.
  IoCategory temp_category = IoCategory::kSortTemp;

  /// Optional telemetry sink (not owned; may be null): spans for run
  /// formation and each merge pass, plus merged-run lifecycle events.
  Tracer* tracer = nullptr;

  /// Shared parallel state (not owned; may be null = fully serial). The
  /// owning sorter creates one ParallelContext so nested subtree sorts
  /// share a single worker pool.
  ParallelContext* parallel = nullptr;

  /// The block cache's pool (not owned; may be null), required for merge
  /// prefetching: prefetched blocks live in its frames, and merge readers
  /// must go through the corresponding CachedBlockDevice to hit them.
  BufferPool* buffer_pool = nullptr;

  /// Cooperative cancellation (not owned; may be null = never cancelled).
  /// Polled at block-granular points — before each run spill and once per
  /// merged record — so Spill/Finish/Next return Status::Cancelled shortly
  /// after the token flips, with all runs and reservations released by the
  /// normal unwind.
  const CancellationToken* cancel = nullptr;

  /// How run formation cuts runs (docs/RUN_FORMATION.md). Output records
  /// are byte-identical under either policy; replacement selection forms
  /// fewer, longer runs and therefore fewer merge passes.
  RunFormationPolicy run_formation = RunFormationPolicy::kQuicksortChunks;

  /// How the merge phase is scheduled (docs/MERGE_PLANNING.md). Output
  /// records are byte-identical under either policy; kPlanned never moves
  /// more bytes or runs more passes than kGreedy.
  MergePolicy merge_policy = MergePolicy::kPlanned;

  /// Lay the final merged run in ascending contiguous extents
  /// (PlacementHint::kSequentialOutput) so draining it reads
  /// sequentially. Changes which block ids carry the run, never its
  /// contents or logical I/O count.
  bool dfs_placement = true;
};

struct ExtSortStats {
  uint64_t records = 0;
  uint64_t bytes = 0;
  uint64_t initial_runs = 0;
  uint64_t merge_passes = 0;
  bool in_memory = false;  // everything fit; no run was spilled
  /// Run-length accounting for the "sort" telemetry block (equal to
  /// initial_runs in count; adds the per-run block sizes).
  RunFormationStats runs;
  /// Merge-schedule accounting (the `merge_plan` telemetry block); all
  /// zero when no merge ran (single-run or in-memory sorts).
  MergePlanStats plan;
};

/// MergeSource decoding length-prefixed (key, value) records from a run.
class RecordRunSource final : public MergeSource {
 public:
  RecordRunSource(RunStore* store, RunHandle handle, IoCategory category);

  /// Prime the first record.
  [[nodiscard]] Status Open();

  bool exhausted() const override { return exhausted_; }
  std::string_view key() const override { return key_; }
  [[nodiscard]] Status Advance() override;

  std::string_view value() const { return value_; }

  /// Byte offset of the next unread record within the run (for merge
  /// prefetching: offset / block_size is the run-block currently in use).
  uint64_t run_offset() const;

  /// Position of this source within its merge group, so the merge loop can
  /// report consumption to the prefetcher without a pointer lookup.
  void set_source_index(size_t index) { source_index_ = index; }
  size_t source_index() const { return source_index_; }

 private:
  RunReader reader_;
  size_t source_index_ = 0;
  bool exhausted_ = false;
  std::string key_;
  std::string value_;
};

/// One-shot sorter: Add all records, Finish, then drain with Next.
class ExternalMergeSorter {
 public:
  ExternalMergeSorter(RunStore* store, ExtSortOptions options);
  ~ExternalMergeSorter();

  const Status& init_status() const { return init_status_; }

  /// Buffer one record, spilling a sorted run if the buffer is full.
  [[nodiscard]] Status Add(std::string_view key, std::string_view value);

  /// Sort everything added. After this only Next may be called.
  [[nodiscard]] Status Finish();

  /// Produce records in key order. Returns false when drained.
  [[nodiscard]] StatusOr<bool> Next(std::string* key, std::string* value);

  const ExtSortStats& stats() const { return stats_; }

  /// This sorter's parallel counters (also folded into the attached
  /// ParallelContext at Finish).
  const ParallelStats& parallel_stats() const { return pstats_; }

 private:
  struct RecordRef {
    uint64_t offset;  // into the buffer's arena
    uint32_t key_len;
    uint32_t value_len;
  };

  /// The run-formation buffer: record bytes plus their sort handles.
  struct SpillBuffer {
    std::string arena;
    std::vector<RecordRef> records;

    uint64_t bytes() const {
      return arena.size() + records.size() * sizeof(RecordRef);
    }
    void Clear() {
      arena.clear();
      records.clear();
    }
  };

  /// Sort the buffer and write it out as one run, leaving it empty.
  [[nodiscard]] Status Spill();

  /// Sort the buffer's records: std::sort, or partitioned across the
  /// worker pool and merged when a pool is attached and the buffer is
  /// large.
  void SortBuffer();

  /// Fold the replacement-selection engine's counters into this sorter's
  /// stats, exactly once (idempotent; safe before or after former_ goes).
  void AbsorbFormerStats();

  /// Fold pstats_ into the attached ParallelContext, exactly once.
  void PublishStats();

  /// Plan the merge of the formed runs (MergePlanner, per merge_policy)
  /// and execute the plan step by step: open the step's inputs, loser-tree
  /// them into one output run (placed per dfs_placement on the final
  /// step), free the inputs. runs_ tracks the live runs exactly as steps
  /// complete, so the destructor frees each leftover once on any error.
  [[nodiscard]] Status MergeAll();

  /// Shared Finish tail for both policies: merge the formed runs (skipped
  /// outright when formation produced a single run — zero merge-pass I/O)
  /// and open the survivor for draining.
  [[nodiscard]] Status MergeAndOpenResult();

  RunStore* store_;
  const ExtSortOptions options_;
  BudgetReservation buffer_reservation_;
  Status init_status_;

  uint64_t buffer_capacity_ = 0;  // bytes
  SpillBuffer buffer_;
  std::vector<RunHandle> runs_;
  ExtSortStats stats_;
  ParallelStats pstats_;
  bool stats_published_ = false;

  // Replacement-selection engine; null under kQuicksortChunks. Its slot
  // memory is charged against buffer_reservation_, exactly like the
  // quicksort path's arena.
  std::unique_ptr<ReplacementSelectionFormer> former_;
  bool former_stats_absorbed_ = false;

  bool finished_ = false;
  // Drain state: either an in-memory cursor or a reader on the final run.
  size_t mem_cursor_ = 0;
  std::unique_ptr<RecordRunSource> result_source_;
  bool result_primed_ = false;
  bool advised_result_ = false;  // pool read-advice installed for the drain
};

/// Decode helper shared by run-record readers.
[[nodiscard]] Status ReadVarintFromRun(RunReader* reader, uint64_t* value);

/// Append one length-prefixed record to `sink`.
[[nodiscard]] Status AppendRecord(ByteSink* sink, std::string_view key,
                    std::string_view value);

}  // namespace nexsort
