// SortService: the in-process multi-tenant sort service nexsortd wraps a
// socket around (docs/SERVICE.md). Everything the daemon does — queueing,
// weighted-fair dispatch, admission against the shared MemoryBudget,
// cooperative cancellation, per-job stats — lives here, behind a plain
// C++ API, so the end-to-end behavior is unit-testable without a socket
// and the socket layer stays a dumb framing shim.
//
// One SortService owns one SortEnv. Jobs are submitted as JobRequests,
// queued per tenant, and executed by a fixed pool of executor threads;
// each executor runs at most one job, in its own SortEnv::Session, under
// an AdmissionController grant sized so that every concurrent job gets
// the same deterministic sort memory as a solo run (see scheduler.h) —
// that is what makes service outputs byte-identical to direct NexSorter
// runs, which the socket test and bench_service assert.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/nexsort.h"
#include "core/order_spec.h"
#include "env/sort_env.h"
#include "extmem/run_store.h"
#include "service/scheduler.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace nexsort {

class JsonWriter;

struct ServiceOptions {
  /// The shared execution environment. sort_memory_blocks == 0 lets the
  /// service derive the largest deterministic per-job pin that fits
  /// `executors` concurrent jobs; a non-zero pin is validated against the
  /// admission grant instead.
  SortEnvOptions env;

  /// Executor threads == the number of concurrently running jobs. The
  /// admission grant is (admissible budget) / executors.
  uint32_t executors = 2;

  /// Backpressure: total backlog bound and the retry hint on rejection.
  size_t max_queue_depth = 64;
  uint64_t retry_after_ms = 50;

  /// Quotas: per-tenant overrides on top of the default.
  TenantQuota default_quota;
  std::map<std::string, TenantQuota> tenant_quotas;

  /// Scratch-file hygiene: when non-empty, output staging files live in
  /// this directory under `scratch_prefix`, orphans of crashed prior
  /// instances are swept at Create, and everything this instance stages
  /// is removed at destruction. `instance` should be the process id.
  std::string scratch_dir;
  std::string scratch_prefix = "nexsortd";
  uint64_t instance = 0;
};

struct JobRequest {
  enum class Kind { kSort, kMerge, kBatchUpdate };
  Kind kind = Kind::kSort;

  std::string tenant = "default";
  int32_t priority = 0;

  /// Ordering criterion (order_spec_parse.h grammar); empty = tag order
  /// default spec.
  std::string order_text;

  /// Sort / batch-update base document (inline text).
  std::string input_text;

  /// Merge inputs (already sorted by `order_text`), in merge order.
  std::vector<std::string> input_texts;

  /// Batch-update updates document.
  std::string updates_text;

  /// When non-empty, the result is staged in the scratch namespace and
  /// atomically renamed here on success.
  std::string output_path;

  /// Keep the result in memory for TakeOutput (socket clients that want
  /// the document back inline).
  bool return_output = false;

  /// Sort jobs only: run the output phase through the pull-based
  /// SortedStream instead of the eager Sort call. Output bytes are
  /// identical; the job's status additionally reports
  /// `time_to_first_byte_ms` — the latency until the first sorted chunk
  /// surfaced — in `nexsortd-stats-v1`.
  bool stream = false;

  /// Sort jobs only: merge-scheduling policy — "planned" (default),
  /// "greedy", or "" (= planned). Output bytes are identical either way
  /// (docs/MERGE_PLANNING.md); greedy is kept for A/B comparisons.
  std::string merge_policy;

  /// Sort jobs only: place output runs in contiguous extents for the
  /// output DFS (docs/MERGE_PLANNING.md). Never changes output bytes.
  bool dfs_placement = true;
};

struct JobStatus {
  enum class State { kQueued, kRunning, kDone, kFailed, kCancelled };

  uint64_t id = 0;
  JobRequest::Kind kind = JobRequest::Kind::kSort;
  std::string tenant;
  int32_t priority = 0;
  State state = State::kQueued;
  std::string error;  // terminal Status for kFailed / kCancelled

  /// Steady-clock seconds since the service started.
  double submit_seconds = 0;
  double start_seconds = -1;   // < 0 while queued
  double finish_seconds = -1;  // < 0 until terminal

  uint64_t input_bytes = 0;
  uint64_t output_bytes = 0;
  uint64_t session_id = 0;  // SortEnv session the job ran in
  bool has_session = false;

  /// Streaming sort jobs: milliseconds from job start to the first sorted
  /// output chunk (< 0 until the first chunk lands).
  bool streamed = false;
  double time_to_first_byte_ms = -1;

  [[nodiscard]] bool terminal() const {
    return state == State::kDone || state == State::kFailed ||
           state == State::kCancelled;
  }

  void ToJson(JsonWriter* writer) const;
};

[[nodiscard]] const char* JobStateName(JobStatus::State state);
[[nodiscard]] const char* JobKindName(JobRequest::Kind kind);

class SortService {
 public:
  /// Validates options, sweeps orphaned scratch of crashed prior
  /// instances, composes the SortEnv (pinning sort_memory_blocks to the
  /// derived grant), and starts the executors.
  [[nodiscard]] static StatusOr<std::unique_ptr<SortService>> Create(
      ServiceOptions options);

  /// Stops accepting, cancels queued and in-flight jobs, joins executors.
  ~SortService();

  SortService(const SortService&) = delete;
  SortService& operator=(const SortService&) = delete;

  /// Queue a job. On backpressure rejection returns OutOfMemory and sets
  /// *retry_after_ms; on success *job_id identifies the job from now on.
  [[nodiscard]] Status Submit(JobRequest request, uint64_t* job_id,
                              uint64_t* retry_after_ms = nullptr);

  [[nodiscard]] StatusOr<JobStatus> GetJob(uint64_t job_id) const;

  /// Input bytes (documents and updates) the job table still holds. Only
  /// queued and running jobs hold any: a job drops its inputs on going
  /// terminal.
  [[nodiscard]] uint64_t retained_input_bytes() const;
  [[nodiscard]] std::vector<JobStatus> ListJobs() const;

  /// Cancel: a queued job leaves the queue immediately; a running job's
  /// CancellationToken flips and the sorters unwind at the next block
  /// boundary. Terminal jobs are left untouched (OK, idempotent).
  [[nodiscard]] Status Cancel(uint64_t job_id);

  /// Block until the job is terminal; returns its final status.
  [[nodiscard]] StatusOr<JobStatus> Wait(uint64_t job_id);

  /// Move out a return_output job's result document (once).
  [[nodiscard]] StatusOr<std::string> TakeOutput(uint64_t job_id);

  /// Block until every submitted job is terminal (the SIGTERM drain).
  void Drain();

  /// Stop: no new submissions; `cancel_inflight` also cancels queued and
  /// running jobs (false = drain them first). Joins the executors.
  void Shutdown(bool cancel_inflight);

  /// The daemon stats document, `nexsortd-stats-v1`: env composition,
  /// live `sessions` array, queue/admission/tenant state, and the job
  /// table.
  [[nodiscard]] std::string StatsJson() const;

  SortEnv* env() { return env_.get(); }
  ScratchNamespace* scratch() { return scratch_.get(); }
  uint64_t swept_orphans() const { return swept_orphans_; }
  uint64_t grant_blocks() const;
  uint64_t sort_memory_blocks() const {
    return env_->options().sort_memory_blocks;
  }

 private:
  SortService(ServiceOptions options, std::unique_ptr<SortEnv> env,
              uint64_t grant_blocks, uint64_t admissible_blocks);

  struct JobRecord {
    JobRequest request;
    JobStatus status;
    OrderSpec order;
    std::string output;  // in-memory result while return_output
    bool output_taken = false;
    bool cancel_requested = false;
    /// The running session's token; null while queued. Held as shared_ptr
    /// so Cancel() can flip it while the executor owns the session.
    std::shared_ptr<CancellationToken> cancel;
  };

  void ExecutorLoop();

  /// Run one dispatched job outside the lock; returns its terminal Status.
  [[nodiscard]] Status ExecuteJob(JobRecord* record);

  [[nodiscard]] double NowSeconds() const;

  /// Executor stop test: a cancelling shutdown exits immediately, a
  /// draining one once the backlog is empty.
  [[nodiscard]] bool ShouldStopLocked() const NEXSORT_REQUIRES(lock_);

  /// Terminal bookkeeping under lock_: state, error, timestamps, wakeups.
  /// The job's documents move into *released, for the caller to free
  /// once lock_ is dropped.
  void FinishJob(JobRecord* record, const QueuedJob& queued,
                 const Status& result, JobRequest* released)
      NEXSORT_REQUIRES(lock_);

  ServiceOptions options_;
  std::unique_ptr<SortEnv> env_;
  std::unique_ptr<ScratchNamespace> scratch_;
  uint64_t swept_orphans_ = 0;
  std::chrono::steady_clock::time_point epoch_;

  mutable Mutex lock_{"SortService::lock_", lock_rank::kSortService};
  CondVar work_cv_;      // executors: work or stop
  CondVar terminal_cv_;  // waiters: a job went terminal
  FairScheduler scheduler_ NEXSORT_GUARDED_BY(lock_);
  AdmissionController admission_ NEXSORT_GUARDED_BY(lock_);
  std::map<uint64_t, std::unique_ptr<JobRecord>> jobs_
      NEXSORT_GUARDED_BY(lock_);
  uint64_t next_job_id_ NEXSORT_GUARDED_BY(lock_) = 1;
  bool stopping_ NEXSORT_GUARDED_BY(lock_) = false;
  bool cancel_on_stop_ NEXSORT_GUARDED_BY(lock_) = false;

  std::vector<std::thread> executors_;
};

}  // namespace nexsort
