// Tracer: unified tracing + metrics for the sort/merge pipeline — the
// machinery behind the paper's whole evaluation (Section 5 counts block
// I/Os per phase and attributes them to the cost components of
// Theorem 4.5). A Tracer owns
//
//  * a tree of *spans* (RAII via ScopedSpan): named, nested phases or
//    operations carrying steady-clock wall time plus the I/O and
//    memory-budget deltas observed while the span was open (captured by
//    snapshotting the attached BlockDevice / MemoryBudget at open and
//    close — deltas are *inclusive* of child spans, like the paper's
//    phase totals);
//  * a MetricsRegistry of named counters / gauges / histograms (run-size
//    and subtree-fan-out distributions, stack high-water marks);
//  * a run-lifecycle event trail (created / fragmented / read back /
//    merged / freed, each with I/O category and byte size) — the data
//    behind run-size distributions and Lemma 4.12's 1 + p(b) accounting;
//  * exporters: human-readable report, a single JSON object (the
//    `nexsort-telemetry-v1` schema shared by `xmlsort --stats-json` and
//    the benches), and a JSONL trace stream of spans + events.
//
// Instrumentation is nullable by design: every instrumented component
// takes a `Tracer*` defaulting to nullptr, and the inline ScopedSpan /
// TraceRunEvent helpers reduce to a single predictable branch when it is
// null, keeping the zero-instrumentation hot path free.
//
// Thread-awareness: span recording keeps one open-span stack per thread
// behind a mutex, and every SpanRecord carries the small dense `tid` of
// the thread that opened it — that is what gives the Chrome-trace export
// one lane per worker thread. Begin/EndSpan are therefore safe from
// worker threads (partitioned sorts); run events, histogram recording, and the
// exporters remain foreground-only (call them after background work has
// drained).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "obs/metrics.h"
#include "util/thread_annotations.h"

namespace nexsort {

class JsonWriter;

/// Lifecycle moments of a sorted run.
enum class RunEventKind {
  kCreated = 0,   // a complete sorted run was written
  kFragment,      // an incomplete run (graceful degeneration)
  kReadBack,      // a run opened for reading
  kMerged,        // a run consumed by a merge step
  kFreed,         // a run's blocks returned to the store
};
inline constexpr int kNumRunEventKinds = 5;

const char* RunEventKindName(RunEventKind kind);

struct RunEvent {
  RunEventKind kind = RunEventKind::kCreated;
  uint32_t run_id = 0;
  IoCategory category = IoCategory::kOther;
  uint64_t bytes = 0;
  double at_seconds = 0.0;  // since tracer construction
};

/// One completed (or still-open) span.
struct SpanRecord {
  std::string name;
  int64_t id = -1;
  int64_t parent_id = -1;  // -1 = root (per thread)
  int depth = 0;
  int tid = 0;  // dense id of the opening thread (0 = first/foreground)
  double start_seconds = 0.0;     // since tracer construction
  double duration_seconds = 0.0;  // 0 while still open
  bool closed = false;

  // I/O observed while open (inclusive of children); zeros when no device
  // is attached.
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t category_reads[kNumIoCategories] = {};
  uint64_t category_writes[kNumIoCategories] = {};
  double modeled_seconds = 0.0;

  // Memory-budget view; zeros when no budget is attached.
  uint64_t budget_used_open = 0;
  uint64_t budget_used_close = 0;
  uint64_t budget_peak = 0;  // budget high-water at close
};

/// Collects spans, metrics, and run events for one pipeline execution.
/// Begin/EndSpan are thread-safe (per-thread open-span stacks); run
/// events and the exporters are foreground-only.
class Tracer {
 public:
  /// `device` / `budget` (either may be null, not owned, must outlive the
  /// tracer) are snapshotted at span boundaries for per-span deltas.
  explicit Tracer(const BlockDevice* device = nullptr,
                  const MemoryBudget* budget = nullptr);

  void AttachDevice(const BlockDevice* device) { device_ = device; }
  void AttachBudget(const MemoryBudget* budget) { budget_ = budget; }

  /// Open a span nested under the calling thread's innermost open span
  /// (threads it has never seen get a fresh dense tid and an empty stack).
  /// Returns the span id. Prefer ScopedSpan over calling this directly.
  int64_t BeginSpan(std::string_view name);

  /// Close span `id`, finalizing its deltas. Any deeper spans the calling
  /// thread still has open are closed first (defensive: RAII makes this
  /// the exception). Must run on the thread that opened the span.
  void EndSpan(int64_t id);

  void RecordRunEvent(RunEventKind kind, IoCategory category, uint64_t bytes,
                      uint32_t run_id);

  MetricsRegistry* metrics() { return &metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Accessors over the recorded data; call after background work has
  /// drained (quiescent tracer), like the exporters. The lock is taken
  /// only to satisfy the capability analysis — the returned references
  /// are stable because a quiescent tracer records nothing further.
  const std::vector<SpanRecord>& spans() const NEXSORT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return spans_;
  }
  const std::vector<RunEvent>& run_events() const NEXSORT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return run_events_;
  }
  const uint64_t* run_event_counts() const NEXSORT_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return run_event_counts_;
  }

  /// Number of distinct threads that have opened spans so far.
  int thread_count() const;

  /// Seconds since construction (steady clock).
  double ElapsedSeconds() const;

  /// The steady-clock instant all span/event timestamps are relative to —
  /// what ChromeTraceExporter uses to align several tracers (and the
  /// sampler's timeline) on one time axis.
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Multi-line human-readable report: span tree with wall time and I/O,
  /// then metrics, then the run-event summary.
  std::string ReportString() const;

  /// The `nexsort-telemetry-v1` JSON object: elapsed time, span list
  /// (with per-category I/O deltas and budget marks), run-event summary,
  /// and all metrics. The full event trail is JSONL-only.
  void ToJson(JsonWriter* writer) const;
  std::string ToJsonString() const;

  /// JSONL trace stream: one {"type":"span"|"run_event",...} object per
  /// line, ordered by timestamp.
  std::string ToJsonl() const;

 private:
  struct OpenSpan {
    size_t index;        // into spans_
    IoStats io_at_open;  // device snapshot
  };

  /// One open-span stack per recording thread, keyed by std::thread::id
  /// but exported under a small dense tid (assigned in first-span order,
  /// so the foreground is tid 0 in every trace).
  struct ThreadState {
    int tid = 0;
    std::vector<OpenSpan> open;
  };

  double Now() const;
  ThreadState& StateForThisThreadLocked() NEXSORT_REQUIRES(mutex_);
  void CloseTop(ThreadState& state) NEXSORT_REQUIRES(mutex_);

  const BlockDevice* device_;
  const MemoryBudget* budget_;
  std::chrono::steady_clock::time_point epoch_;

  mutable Mutex mutex_{"Tracer::mutex_", lock_rank::kTracer};
  std::vector<SpanRecord> spans_ NEXSORT_GUARDED_BY(mutex_);
  std::unordered_map<std::thread::id, ThreadState> threads_
      NEXSORT_GUARDED_BY(mutex_);
  int next_tid_ NEXSORT_GUARDED_BY(mutex_) = 0;
  std::vector<RunEvent> run_events_ NEXSORT_GUARDED_BY(mutex_);
  uint64_t run_event_counts_[kNumRunEventKinds] NEXSORT_GUARDED_BY(mutex_) = {};
  MetricsRegistry metrics_;
};

/// RAII span handle, safe on a null tracer: instrumented code pays one
/// branch when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->BeginSpan(name);
  }
  ~ScopedSpan() { End(); }

  /// Close early (before scope exit); idempotent.
  void End() {
    if (tracer_ != nullptr) {
      tracer_->EndSpan(id_);
      tracer_ = nullptr;
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_ = -1;
};

/// Null-safe run-event helper for instrumented call sites.
inline void TraceRunEvent(Tracer* tracer, RunEventKind kind,
                          IoCategory category, uint64_t bytes,
                          uint32_t run_id = 0) {
  if (tracer != nullptr) tracer->RecordRunEvent(kind, category, bytes, run_id);
}

}  // namespace nexsort
