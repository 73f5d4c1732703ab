#include "sort/external_merge_sort.h"

#include <algorithm>
#include <atomic>
#include <optional>

#include "cache/buffer_pool.h"
#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "extmem/stream.h"
#include "obs/tracer.h"
#include "parallel/run_prefetcher.h"
#include "parallel/worker_pool.h"
#include "sort/replacement_selection.h"
#include "util/cancellation.h"
#include "util/dcheck.h"
#include "util/thread_annotations.h"
#include "util/varint.h"

namespace nexsort {

Status ReadVarintFromRun(RunReader* reader, uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    char byte = 0;
    RETURN_IF_ERROR(reader->ReadExact(&byte, 1));
    unsigned char b = static_cast<unsigned char>(byte);
    result |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      *value = result;
      return Status::OK();
    }
  }
  return Status::Corruption("varint too long in run");
}

Status AppendRecord(ByteSink* sink, std::string_view key,
                    std::string_view value) {
  std::string header;
  PutVarint64(&header, key.size());
  RETURN_IF_ERROR(sink->Append(header));
  RETURN_IF_ERROR(sink->Append(key));
  header.clear();
  PutVarint64(&header, value.size());
  RETURN_IF_ERROR(sink->Append(header));
  return sink->Append(value);
}

RecordRunSource::RecordRunSource(RunStore* store, RunHandle handle,
                                 IoCategory category)
    : reader_(store->OpenRun(handle, 0, category)) {}

Status RecordRunSource::Open() {
  RETURN_IF_ERROR(reader_.init_status());
  return Advance();
}

Status RecordRunSource::Advance() {
  if (reader_.bytes_remaining() == 0) {
    exhausted_ = true;
    return Status::OK();
  }
  uint64_t key_len = 0;
  RETURN_IF_ERROR(ReadVarintFromRun(&reader_, &key_len));
  key_.resize(key_len);
  RETURN_IF_ERROR(reader_.ReadExact(key_.data(), key_len));
  uint64_t value_len = 0;
  RETURN_IF_ERROR(ReadVarintFromRun(&reader_, &value_len));
  value_.resize(value_len);
  RETURN_IF_ERROR(reader_.ReadExact(value_.data(), value_len));
  return Status::OK();
}

uint64_t RecordRunSource::run_offset() const { return reader_.offset(); }

ExternalMergeSorter::ExternalMergeSorter(RunStore* store,
                                         ExtSortOptions options)
    : store_(store), options_(options) {
  if (options_.memory_blocks < 3) {
    init_status_ =
        Status::InvalidArgument("external sort needs at least 3 blocks");
    return;
  }
  // One block stays free for the spill/merge writer; the rest buffer input.
  init_status_ =
      buffer_reservation_.Acquire(store->budget(), options_.memory_blocks - 1);
  if (init_status_.ok()) {
    buffer_capacity_ =
        (options_.memory_blocks - 1) * store->device()->block_size();
    if (options_.run_formation == RunFormationPolicy::kReplacementSelection) {
      ReplacementSelectionFormer::Options former_options;
      former_options.capacity_bytes = buffer_capacity_;
      former_options.temp_category = options_.temp_category;
      former_options.tracer = options_.tracer;
      former_options.cancel = options_.cancel;
      former_ = std::make_unique<ReplacementSelectionFormer>(
          store_, former_options);
    }
  }
}

ExternalMergeSorter::~ExternalMergeSorter() {
  // Drop the drain's read advice: the result run's block ids recycle into
  // later runs, and stale advice would prefetch them at the wrong time.
  if (advised_result_) options_.buffer_pool->ClearReadAdvice();
  PublishStats();
  for (RunHandle run : runs_) {
    (void)store_->FreeRun(run);  // best-effort cleanup of leftover runs
  }
}

Status ExternalMergeSorter::Add(std::string_view key, std::string_view value) {
  if (finished_) return Status::InvalidArgument("sorter already finished");
  if (former_ != nullptr) {
    ++stats_.records;
    stats_.bytes += key.size() + value.size();
    return former_->Add(key, value);
  }
  uint64_t record_bytes = key.size() + value.size() + sizeof(RecordRef);
  if (!buffer_.records.empty() &&
      buffer_.bytes() + record_bytes > buffer_capacity_) {
    // Block-granular cancellation point: a full buffer is about to become
    // a run. Bailing here loses no durable state — spilled runs are freed
    // by the destructor and the buffer reservation unwinds normally.
    RETURN_IF_ERROR(CheckCancelled(options_.cancel));
    RETURN_IF_ERROR(Spill());
  }
  RecordRef ref;
  ref.offset = buffer_.arena.size();
  ref.key_len = static_cast<uint32_t>(key.size());
  ref.value_len = static_cast<uint32_t>(value.size());
  buffer_.arena.append(key);
  buffer_.arena.append(value);
  buffer_.records.push_back(ref);
  ++stats_.records;
  stats_.bytes += key.size() + value.size();
  return Status::OK();
}

Status ExternalMergeSorter::Spill() {
  ++pstats_.sync_spills;
  ScopedSpan span(options_.tracer, "run_formation");
  SortBuffer();
  RunWriter writer = store_->NewRun(options_.temp_category);
  RETURN_IF_ERROR(writer.init_status());
  const char* arena = buffer_.arena.data();
  for (const RecordRef& ref : buffer_.records) {
    std::string_view key(arena + ref.offset, ref.key_len);
    std::string_view value(arena + ref.offset + ref.key_len, ref.value_len);
    RETURN_IF_ERROR(AppendRecord(&writer, key, value));
  }
  RunHandle handle;
  RETURN_IF_ERROR(writer.Finish(&handle));
  runs_.push_back(handle);
  ++stats_.initial_runs;
  stats_.runs.RecordRun(handle.byte_size, store_->device()->block_size());
  buffer_.Clear();
  return Status::OK();
}

void ExternalMergeSorter::SortBuffer() {
  // (key, arena offset) is a strict total order — offsets are unique — so
  // the sorted sequence is unique and any correct sort (serial, or
  // partitioned + merged below) produces bit-identical output. The offset
  // tie-break doubles as stability: arrival order equals arena order.
  struct RecordLess {
    const char* arena;
    bool operator()(const RecordRef& a, const RecordRef& b) const {
      std::string_view ka(arena + a.offset, a.key_len);
      std::string_view kb(arena + b.offset, b.key_len);
      if (ka != kb) return ka < kb;
      return a.offset < b.offset;
    }
  };
  RecordLess less{buffer_.arena.data()};
  WorkerPool* pool =
      options_.parallel != nullptr ? options_.parallel->pool() : nullptr;
  const size_t n = buffer_.records.size();
  constexpr size_t kMinParallelSortRecords = 4096;
  if (pool == nullptr || pool->size() < 2 || n < kMinParallelSortRecords) {
    std::sort(buffer_.records.begin(), buffer_.records.end(), less);
    return;
  }

  const size_t chunks = std::min<size_t>(pool->size(), 8);
  struct SortShared {
    RecordRef* base = nullptr;
    RecordLess less{nullptr};
    std::vector<size_t> bounds;
    std::atomic<size_t> next{0};
    Mutex mutex{"ExternalMergeSort::partition", lock_rank::kSortPartition};
    CondVar done_cv;
    size_t done NEXSORT_GUARDED_BY(mutex) = 0;
  };
  auto shared = std::make_shared<SortShared>();
  shared->base = buffer_.records.data();
  shared->less = less;
  shared->bounds.resize(chunks + 1);
  for (size_t i = 0; i <= chunks; ++i) shared->bounds[i] = i * n / chunks;
  Tracer* tracer = options_.tracer;
  auto work = [shared, chunks, tracer] {
    for (;;) {
      size_t c = shared->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) break;
      // Thread-safe span: each chunk shows up on the lane of whichever
      // thread (worker or the submitting one) sorted it.
      ScopedSpan span(tracer, "sort_partition");
      std::sort(shared->base + shared->bounds[c],
                shared->base + shared->bounds[c + 1], shared->less);
      span.End();
      MutexLock lock(&shared->mutex);
      if (++shared->done == chunks) shared->done_cv.SignalAll();
    }
  };
  // Helpers may never get a worker (this sort can itself be running on
  // one): the submitting thread participates, so every chunk gets sorted
  // regardless, and stragglers find `next` exhausted and return.
  for (size_t i = 0; i + 1 < chunks; ++i) (void)pool->Submit(work);
  work();
  {
    MutexLock lock(&shared->mutex);
    while (shared->done != chunks) shared->done_cv.Wait(&shared->mutex);
  }
  for (size_t width = 1; width < chunks; width *= 2) {
    for (size_t lo = 0; lo + width < chunks; lo += 2 * width) {
      size_t hi = std::min(chunks, lo + 2 * width);
      std::inplace_merge(shared->base + shared->bounds[lo],
                         shared->base + shared->bounds[lo + width],
                         shared->base + shared->bounds[hi], less);
    }
  }
  ++pstats_.parallel_sorts;
  pstats_.sort_partitions += chunks;
}

void ExternalMergeSorter::AbsorbFormerStats() {
  if (former_ == nullptr || former_stats_absorbed_) return;
  former_stats_absorbed_ = true;
  stats_.runs = former_->stats();
  stats_.initial_runs = stats_.runs.runs_formed;
  pstats_.sync_spills += stats_.runs.runs_formed;  // one spill per run
}

void ExternalMergeSorter::PublishStats() {
  if (stats_published_) return;
  stats_published_ = true;
  AbsorbFormerStats();
  if (options_.parallel != nullptr) options_.parallel->AddStats(pstats_);
}

Status ExternalMergeSorter::MergeAll() {
  const uint64_t fan_in = options_.memory_blocks - 1;
  const uint64_t block_size = store_->device()->block_size();
  // SortEnv rejects prefetch_depth without cache frames; a sorter built
  // outside an env without a pool simply does not prefetch.
  const uint32_t depth = options_.parallel != nullptr &&
                                 options_.buffer_pool != nullptr
                             ? options_.parallel->options().prefetch_depth
                             : 0;
  std::vector<uint64_t> run_bytes;
  run_bytes.reserve(runs_.size());
  for (const RunHandle& run : runs_) run_bytes.push_back(run.byte_size);
  const MergePlan plan =
      MergePlanner::Plan(run_bytes, fan_in, options_.merge_policy);
  stats_.plan.policy = options_.merge_policy;
  ++stats_.plan.plans;
  stats_.plan.input_runs += plan.num_inputs;

  // Node table over the plan's DAG: leaves are the formed runs; a step's
  // output handle lands in its node slot when the step completes.
  // `consumed` enforces the exactly-once discipline on inputs.
  std::vector<RunHandle> nodes(plan.node_count());
  std::vector<bool> ready(plan.node_count(), false);
  std::vector<bool> consumed(plan.node_count(), false);
  for (size_t i = 0; i < runs_.size(); ++i) {
    nodes[i] = runs_[i];
    ready[i] = true;
  }

  uint32_t current_pass = 0;
  std::optional<ScopedSpan> pass_span;
  for (const MergeStep& step : plan.steps) {
    if (!pass_span.has_value() || step.pass != current_pass) {
      pass_span.emplace(options_.tracer, "merge_pass");
      current_pass = step.pass;
      ++stats_.merge_passes;
    }
    const size_t width = step.inputs.size();
    if (options_.tracer != nullptr) {
      // Every step records its true fan-in (the trailing group of a greedy
      // pass — and every planned carry-pass window — is narrower than F).
      options_.tracer->metrics()->GetHistogram("merge_fan_in")
          ->Record(width);
    }
    std::vector<std::unique_ptr<RecordRunSource>> sources;
    std::vector<MergeSource*> raw;
    for (size_t i = 0; i < width; ++i) {
      const uint32_t node = step.inputs[i];
      NEXSORT_DCHECK_MSG(ready[node] && !consumed[node],
                         "merge plan uses a node early or twice");
      sources.push_back(std::make_unique<RecordRunSource>(
          store_, nodes[node], options_.temp_category));
      sources.back()->set_source_index(i);
      RETURN_IF_ERROR(sources.back()->Open());
      raw.push_back(sources.back().get());
    }
    // Prefetch this step's input blocks into the buffer pool ahead of
    // consumption. The merge readers go through the CachedBlockDevice
    // over the same pool, so their logical reads are unchanged — the
    // prefetcher only moves the physical load off the critical path.
    std::unique_ptr<RunPrefetcher> prefetcher;
    std::vector<uint64_t> reported;
    if (depth > 0) {
      std::vector<RunPrefetcher::Source> prefetch_sources;
      for (size_t i = 0; i < width; ++i) {
        RunPrefetcher::Source source;
        RETURN_IF_ERROR(
            store_->SnapshotBlocks(nodes[step.inputs[i]], &source.blocks));
        prefetch_sources.push_back(std::move(source));
      }
      prefetcher = std::make_unique<RunPrefetcher>(
          options_.buffer_pool, options_.temp_category, depth,
          std::move(prefetch_sources));
      reported.assign(width, 0);
    }
    LoserTree tree(std::move(raw));
    RunHandle merged;
    Status step_status = tree.Init();
    if (step_status.ok()) {
      const PlacementHint hint = step.final && options_.dfs_placement
                                     ? PlacementHint::kSequentialOutput
                                     : PlacementHint::kScratch;
      RunWriter writer = store_->NewRun(options_.temp_category, hint);
      step_status = writer.init_status();
      while (step_status.ok()) {
        step_status = CheckCancelled(options_.cancel);
        if (!step_status.ok()) break;
        MergeSource* min = tree.Min();
        if (min == nullptr) break;
        auto* source = static_cast<RecordRunSource*>(min);
        step_status = AppendRecord(&writer, source->key(), source->value());
        if (!step_status.ok()) break;
        step_status = tree.AdvanceMin();
        if (!step_status.ok()) break;
        if (prefetcher != nullptr && !source->exhausted()) {
          uint64_t block = source->run_offset() / block_size;
          size_t index = source->source_index();
          if (block + 1 > reported[index]) {
            reported[index] = block + 1;
            prefetcher->OnConsumed(index, block);
          }
        }
      }
      if (step_status.ok()) step_status = writer.Finish(&merged);
    }
    if (prefetcher != nullptr) {
      prefetcher->Stop();  // before the inputs it reads are freed
      pstats_.prefetch_issued += prefetcher->issued();
    }
    RETURN_IF_ERROR(step_status);
    sources.clear();  // release reader buffers before freeing inputs
    for (size_t i = 0; i < width; ++i) {
      const uint32_t node = step.inputs[i];
      TraceRunEvent(options_.tracer, RunEventKind::kMerged,
                    options_.temp_category, nodes[node].byte_size,
                    nodes[node].id);
      consumed[node] = true;
      // Keep runs_ an exact live-run list as the plan progresses so the
      // destructor frees each leftover exactly once if a later step fails.
      const uint32_t freed_id = nodes[node].id;
      runs_.erase(std::find_if(runs_.begin(), runs_.end(),
                               [freed_id](const RunHandle& run) {
                                 return run.id == freed_id;
                               }));
      RETURN_IF_ERROR(store_->FreeRun(nodes[node]));
    }
    nodes[step.output] = merged;
    ready[step.output] = true;
    runs_.push_back(merged);
    // Outputs are exact concatenations, so the planner's predicted size
    // must match what the writer produced.
    NEXSORT_DCHECK_EQ(merged.byte_size, plan.node_bytes[step.output]);
    stats_.plan.RecordStep(width, plan.node_bytes[step.output],
                           merged.byte_size);
  }
#if NEXSORT_DCHECK_ENABLED
  // Exactly-once discipline over the whole plan: every input run was
  // consumed; only the plan's root survives.
  for (uint32_t i = 0; i < plan.num_inputs; ++i) {
    NEXSORT_DCHECK_MSG(consumed[i], "merge plan left an input run behind");
  }
  NEXSORT_DCHECK(runs_.size() == 1);
  NEXSORT_DCHECK(runs_.front().id == nodes[plan.root()].id);
#endif
  return Status::OK();
}

Status ExternalMergeSorter::MergeAndOpenResult() {
  Status merged = Status::OK();
  if (runs_.size() == 1) {
    // Single-run fast path: run formation already produced the answer, so
    // the merge phase vanishes — no merge pass, no merge-pass I/O. The
    // drain below reads the formed run directly.
    NEXSORT_DCHECK(stats_.merge_passes == 0);
    if (options_.tracer != nullptr) {
      options_.tracer->metrics()
          ->GetCounter("merge_skipped_single_run")
          ->Add(1);
    }
  } else {
    merged = MergeAll();
  }
  PublishStats();
  RETURN_IF_ERROR(merged);
  // Teach the pool the drain's exact block order before the reader opens:
  // with DFS placement most of it is id-adjacent already, but the advice
  // also covers the extent seams the sequential detector would miss.
  if (options_.buffer_pool != nullptr &&
      options_.buffer_pool->options().readahead > 0) {
    std::vector<uint64_t> blocks;
    if (store_->SnapshotBlocks(runs_.front(), &blocks).ok()) {
      options_.buffer_pool->AdviseReadSequence(std::move(blocks));
      advised_result_ = true;
    }
  }
  result_source_ = std::make_unique<RecordRunSource>(
      store_, runs_.front(), options_.temp_category);
  RETURN_IF_ERROR(result_source_->Open());
  result_primed_ = true;
  return Status::OK();
}

Status ExternalMergeSorter::Finish() {
  if (finished_) return Status::InvalidArgument("sorter already finished");
  finished_ = true;
  if (former_ != nullptr) {
    if (!former_->spilled()) {
      // Everything fit in the tournament: drain from memory via PopMin.
      stats_.in_memory = true;
      PublishStats();
      return Status::OK();
    }
    Status formed = former_->FinishRuns(&runs_);
    AbsorbFormerStats();
    if (!formed.ok()) {
      PublishStats();
      return formed;
    }
    // Release the tournament's memory before the merge claims its fan-in
    // readers, mirroring the quicksort path's buffer release below.
    former_.reset();
    buffer_reservation_.Reset();
    return MergeAndOpenResult();
  }
  if (runs_.empty()) {
    // Everything fit in the buffer: sort in place and drain from memory.
    stats_.in_memory = true;
    SortBuffer();
    PublishStats();
    return Status::OK();
  }
  if (!buffer_.records.empty()) {
    Status spilled = Spill();
    if (!spilled.ok()) {
      PublishStats();
      return spilled;
    }
  }
  // Release the input buffer before merging: merge fan-in readers (M-1
  // blocks) plus the output writer (1 block) then use exactly M blocks,
  // the sort's whole allowance.
  buffer_.arena.shrink_to_fit();
  buffer_.records.shrink_to_fit();
  buffer_reservation_.Reset();
  return MergeAndOpenResult();
}

StatusOr<bool> ExternalMergeSorter::Next(std::string* key, std::string* value) {
  if (!finished_) return Status::InvalidArgument("Finish() not called");
  if (stats_.in_memory) {
    if (former_ != nullptr) return former_->PopMin(key, value);
    if (mem_cursor_ >= buffer_.records.size()) return false;
    const RecordRef& ref = buffer_.records[mem_cursor_++];
    key->assign(buffer_.arena.data() + ref.offset, ref.key_len);
    value->assign(buffer_.arena.data() + ref.offset + ref.key_len,
                  ref.value_len);
    return true;
  }
  if (!result_primed_ || result_source_->exhausted()) return false;
  key->assign(result_source_->key());
  value->assign(result_source_->value());
  RETURN_IF_ERROR(result_source_->Advance());
  return true;
}

}  // namespace nexsort
