#include "service/service.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "core/order_spec_parse.h"
#include "extmem/stream.h"
#include "obs/json_writer.h"

namespace nexsort {

namespace {

/// Budget blocks a job uses beyond its pinned sort memory: NEXSORT's
/// sorting-phase stacks, and one block of slack for the output phase's
/// emitter/reader window (which runs after the stacks are gone but is kept
/// inside the grant for safety).
constexpr uint64_t kJobOverheadBlocks = NexSorter::kStackBlocks + 1;

/// The least pinned sort grant a session accepts.
constexpr uint64_t kMinSortBlocks = SortEnv::kMinSortMemoryBlocks;

/// A terminal job keeps its status, not its documents, so the job table
/// stays small however many jobs the daemon runs. The documents are swapped
/// into *released, which callers declare before taking lock_ so that the
/// buffers are freed after it is dropped: freeing a large input can unmap
/// its pages, and no thread waiting for the lock should wait for that.
void ReleaseInputs(JobRequest* request, JobRequest* released) {
  released->input_text.swap(request->input_text);
  released->input_texts.swap(request->input_texts);
  released->updates_text.swap(request->updates_text);
}

}  // namespace

const char* JobStateName(JobStatus::State state) {
  switch (state) {
    case JobStatus::State::kQueued: return "queued";
    case JobStatus::State::kRunning: return "running";
    case JobStatus::State::kDone: return "done";
    case JobStatus::State::kFailed: return "failed";
    case JobStatus::State::kCancelled: return "cancelled";
  }
  return "unknown";
}

const char* JobKindName(JobRequest::Kind kind) {
  switch (kind) {
    case JobRequest::Kind::kSort: return "sort";
    case JobRequest::Kind::kMerge: return "merge";
    case JobRequest::Kind::kBatchUpdate: return "batch_update";
  }
  return "unknown";
}

void JobStatus::ToJson(JsonWriter* writer) const {
  writer->BeginObject();
  writer->Key("id");
  writer->Uint(id);
  writer->Key("kind");
  writer->String(JobKindName(kind));
  writer->Key("tenant");
  writer->String(tenant);
  writer->Key("priority");
  writer->Int(priority);
  writer->Key("state");
  writer->String(JobStateName(state));
  if (!error.empty()) {
    writer->Key("error");
    writer->String(error);
  }
  writer->Key("submit_seconds");
  writer->Double(submit_seconds);
  if (start_seconds >= 0) {
    writer->Key("start_seconds");
    writer->Double(start_seconds);
  }
  if (finish_seconds >= 0) {
    writer->Key("finish_seconds");
    writer->Double(finish_seconds);
  }
  writer->Key("input_bytes");
  writer->Uint(input_bytes);
  writer->Key("output_bytes");
  writer->Uint(output_bytes);
  if (has_session) {
    writer->Key("session_id");
    writer->Uint(session_id);
  }
  if (time_to_first_byte_ms >= 0) {
    writer->Key("time_to_first_byte_ms");
    writer->Double(time_to_first_byte_ms);
  }
  writer->EndObject();
}

SortService::SortService(ServiceOptions options, std::unique_ptr<SortEnv> env,
                         uint64_t grant_blocks, uint64_t admissible_blocks)
    : options_(std::move(options)),
      env_(std::move(env)),
      epoch_(std::chrono::steady_clock::now()),
      scheduler_(FairSchedulerOptions{options_.max_queue_depth,
                                      options_.retry_after_ms,
                                      options_.default_quota}),
      admission_(env_->budget(), grant_blocks, admissible_blocks) {}

StatusOr<std::unique_ptr<SortService>> SortService::Create(
    ServiceOptions options) {
  if (options.executors == 0) {
    return Status::InvalidArgument("service: executors must be >= 1");
  }

  // Size the per-job grant so `executors` concurrent jobs partition the
  // admissible pool (budget minus env-owned cache frames) exactly, then
  // pin the env's sort memory inside the grant: every job — concurrent or
  // solo — sorts with identical memory, which keeps run boundaries and
  // therefore output bytes deterministic.
  uint64_t total = options.env.memory_blocks;
  uint64_t cache = options.env.cache.frames;
  if (cache >= total) {
    return Status::InvalidArgument(
        "service: cache frames consume the whole budget");
  }
  uint64_t admissible = total - cache;
  uint64_t grant = admissible / options.executors;
  if (grant < kMinSortBlocks + kJobOverheadBlocks) {
    return Status::InvalidArgument(
        "service: budget " + std::to_string(admissible) +
        " blocks cannot grant " + std::to_string(options.executors) +
        " executors " +
        std::to_string(kMinSortBlocks + kJobOverheadBlocks) +
        " blocks each; shrink executors or grow memory_blocks");
  }
  if (options.env.sort_memory_blocks == 0) {
    options.env.sort_memory_blocks = grant - kJobOverheadBlocks;
  } else if (options.env.sort_memory_blocks + kJobOverheadBlocks > grant) {
    return Status::InvalidArgument(
        "service: sort_memory_blocks " +
        std::to_string(options.env.sort_memory_blocks) +
        " exceeds the per-job grant of " + std::to_string(grant) +
        " minus " + std::to_string(kJobOverheadBlocks) + " overhead blocks");
  }

  uint64_t swept = 0;
  std::unique_ptr<ScratchNamespace> scratch;
  if (!options.scratch_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.scratch_dir, ec);
    if (ec) {
      return Status::IOError("service: cannot create scratch dir " +
                             options.scratch_dir + ": " + ec.message());
    }
    ASSIGN_OR_RETURN(swept, ScratchNamespace::SweepOrphans(
                                options.scratch_dir, options.scratch_prefix,
                                options.instance));
    scratch = std::make_unique<ScratchNamespace>(
        options.scratch_dir, options.scratch_prefix, options.instance);
    if (options.env.file_path.empty()) {
      // A daemon env defaults to file-backed working storage inside the
      // scratch namespace, so a crashed instance's device file is exactly
      // what the next instance's sweep reclaims.
      options.env.file_path = scratch->NewPath("env-device");
    }
  }

  ASSIGN_OR_RETURN(auto env, SortEnv::Create(options.env));

  uint32_t executors = options.executors;
  std::map<std::string, TenantQuota> quotas = options.tenant_quotas;
  std::unique_ptr<SortService> service(new SortService(
      std::move(options), std::move(env), grant, admissible));
  service->scratch_ = std::move(scratch);
  service->swept_orphans_ = swept;
  for (const auto& [tenant, quota] : quotas) {
    service->scheduler_.SetQuota(tenant, quota);
  }
  service->executors_.reserve(executors);
  for (uint32_t i = 0; i < executors; ++i) {
    service->executors_.emplace_back(
        [raw = service.get()] { raw->ExecutorLoop(); });
  }
  return service;
}

SortService::~SortService() { Shutdown(/*cancel_inflight=*/true); }

double SortService::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

uint64_t SortService::grant_blocks() const {
  return admission_.grant_blocks();
}

Status SortService::Submit(JobRequest request, uint64_t* job_id,
                           uint64_t* retry_after_ms) {
  auto record = std::make_unique<JobRecord>();
  if (!request.order_text.empty()) {
    ASSIGN_OR_RETURN(record->order, ParseOrderSpec(request.order_text));
  }

  uint64_t input_bytes = request.input_text.size() +
                         request.updates_text.size();
  for (const std::string& text : request.input_texts) {
    input_bytes += text.size();
  }
  std::vector<std::string> paths = request.input_paths;
  if (!request.input_path.empty()) paths.push_back(request.input_path);
  for (const std::string& path : paths) {
    ASSIGN_OR_RETURN(auto file, FileByteSource::Open(path));
    input_bytes += file->size();
  }

  MutexLock guard(&lock_);
  if (stopping_) {
    return Status::InvalidArgument("service is shutting down");
  }
  uint64_t id = next_job_id_++;
  QueuedJob queued;
  queued.job_id = id;
  queued.tenant = request.tenant;
  queued.priority = request.priority;
  queued.bytes = input_bytes;
  RETURN_IF_ERROR(scheduler_.Enqueue(queued, retry_after_ms));

  record->request = std::move(request);
  record->status.id = id;
  record->status.kind = record->request.kind;
  record->status.tenant = record->request.tenant;
  record->status.priority = record->request.priority;
  record->status.state = JobStatus::State::kQueued;
  record->status.submit_seconds = NowSeconds();
  record->status.input_bytes = input_bytes;
  jobs_.emplace(id, std::move(record));
  *job_id = id;
  work_cv_.Signal();
  return Status::OK();
}

bool SortService::ShouldStopLocked() const {
  // A cancelling shutdown exits immediately (the backlog was cancelled
  // out from under us); a draining shutdown exits once the backlog is
  // empty, leaving running jobs to their executors.
  return stopping_ && (cancel_on_stop_ || scheduler_.depth() == 0);
}

void SortService::ExecutorLoop() {
  while (true) {
    QueuedJob queued;
    JobRecord* record = nullptr;
    JobRequest released;  // outlives every guard below; see ReleaseInputs
    {
      MutexLock guard(&lock_);
      while (!ShouldStopLocked() &&
             !(scheduler_.HasEligible() && admission_.HasCapacity())) {
        work_cv_.Wait(&lock_);
      }
      if (ShouldStopLocked()) return;
      if (!scheduler_.PickNext(&queued)) continue;
      auto it = jobs_.find(queued.job_id);
      record = it->second.get();
      // Infallible by the ledger invariant: HasCapacity held under this
      // same lock, and grants only move at dispatch/finish, also under it.
      Status admitted = admission_.Admit(queued.job_id);
      if (!admitted.ok()) {
        FinishJob(record, queued, admitted, &released);
        continue;
      }
      record->status.state = JobStatus::State::kRunning;
      record->status.start_seconds = NowSeconds();
    }

    Status result = ExecuteJob(record);

    MutexLock guard(&lock_);
    admission_.OnJobFinish(queued.job_id);
    FinishJob(record, queued, result, &released);
  }
}

Status SortService::ExecuteJob(JobRecord* record) {
  SortEnv::Session session = env_->NewSession();
  {
    // Publish the session's cancellation handle, then honour any Cancel()
    // that raced with dispatch before the handle was visible.
    MutexLock guard(&lock_);
    record->cancel = session.cancellation_handle();
    record->status.session_id = session.id();
    record->status.has_session = true;
    if (record->cancel_requested) record->cancel->Cancel();
    // From here the job's components allocate their own budget blocks —
    // hand the physically reserved grant over to them. The ledger keeps
    // other admissions out of it until OnJobFinish.
    admission_.OnJobStart(record->status.id);
  }

  const JobRequest& request = record->request;
  SortJob job;
  job.kind = request.kind;
  job.options.order = record->order;
  std::vector<StringByteSource> texts;  // reserved: inputs point into it
  texts.reserve(request.input_texts.size() + 1);
  if (request.kind == JobRequest::Kind::kMerge) {
    for (const std::string& text : request.input_texts) {
      job.inputs.emplace_back().source = &texts.emplace_back(text);
    }
    for (const std::string& path : request.input_paths) {
      job.inputs.emplace_back().path = path;
    }
  } else if (!request.input_path.empty()) {
    job.inputs.emplace_back().path = request.input_path;
  } else {
    job.inputs.emplace_back().source = &texts.emplace_back(request.input_text);
  }
  job.updates = request.updates_text;

  std::string output;
  StringByteSink output_sink(&output);
  if (request.return_output) job.output.sink = &output_sink;
  if (!request.output_path.empty()) {
    if (scratch_ == nullptr) {
      return Status::InvalidArgument("output_path needs a service scratch_dir");
    }
    job.output.path = request.output_path;
    job.output.staging_path = scratch_->NewPath(
        "job" + std::to_string(record->status.id) + "-out");
  }

  SortJobResult result;
  Status status = job.Run(std::move(session), &result);
  if (!job.output.staging_path.empty()) {
    // Renamed away or removed by the job either way; drop the path from
    // the namespace's ledger so teardown does not touch the output.
    (void)scratch_->Remove(job.output.staging_path);  // NotFound-only failure
  }
  if (status.ok()) {
    MutexLock guard(&lock_);
    record->status.output_bytes = result.output_bytes;
    record->status.time_to_first_byte_ms = result.time_to_first_byte_ms;
    if (request.return_output) record->output = std::move(output);
  }
  return status;
}

void SortService::FinishJob(JobRecord* record, const QueuedJob& queued,
                            const Status& result, JobRequest* released) {
  scheduler_.OnComplete(queued.tenant, queued.bytes);
  record->cancel.reset();
  ReleaseInputs(&record->request, released);
  if (result.ok()) {
    record->status.state = JobStatus::State::kDone;
  } else if (result.IsCancelled()) {
    record->status.state = JobStatus::State::kCancelled;
    record->status.error = result.ToString();
  } else {
    record->status.state = JobStatus::State::kFailed;
    record->status.error = result.ToString();
  }
  record->status.finish_seconds = NowSeconds();
  work_cv_.SignalAll();
  terminal_cv_.SignalAll();
}

uint64_t SortService::retained_input_bytes() const {
  MutexLock guard(&lock_);
  uint64_t bytes = 0;
  for (const auto& [id, record] : jobs_) {
    bytes += record->request.input_text.size() +
             record->request.updates_text.size();
    for (const std::string& text : record->request.input_texts) {
      bytes += text.size();
    }
  }
  return bytes;
}

StatusOr<JobStatus> SortService::GetJob(uint64_t job_id) const {
  MutexLock guard(&lock_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("job " + std::to_string(job_id));
  }
  return it->second->status;
}

std::vector<JobStatus> SortService::ListJobs() const {
  MutexLock guard(&lock_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, record] : jobs_) out.push_back(record->status);
  return out;
}

Status SortService::Cancel(uint64_t job_id) {
  JobRequest released;  // freed after the guard; see ReleaseInputs
  MutexLock guard(&lock_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("job " + std::to_string(job_id));
  }
  JobRecord* record = it->second.get();
  if (record->status.terminal()) return Status::OK();  // idempotent
  record->cancel_requested = true;
  if (record->status.state == JobStatus::State::kQueued &&
      scheduler_.Remove(job_id)) {
    ReleaseInputs(&record->request, &released);
    record->status.state = JobStatus::State::kCancelled;
    record->status.error = "Cancelled: cancelled while queued";
    record->status.finish_seconds = NowSeconds();
    terminal_cv_.SignalAll();
    return Status::OK();
  }
  // Running (or mid-dispatch): flip the session token when it is already
  // published; the dispatch path re-checks cancel_requested otherwise.
  if (record->cancel != nullptr) record->cancel->Cancel();
  return Status::OK();
}

StatusOr<JobStatus> SortService::Wait(uint64_t job_id) {
  MutexLock guard(&lock_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("job " + std::to_string(job_id));
  }
  JobRecord* record = it->second.get();
  while (!record->status.terminal()) terminal_cv_.Wait(&lock_);
  return record->status;
}

StatusOr<std::string> SortService::TakeOutput(uint64_t job_id) {
  MutexLock guard(&lock_);
  auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    return Status::NotFound("job " + std::to_string(job_id));
  }
  JobRecord* record = it->second.get();
  if (!record->status.terminal()) {
    return Status::InvalidArgument("job still in flight");
  }
  if (record->status.state != JobStatus::State::kDone) {
    return Status::InvalidArgument("job did not produce output: " +
                                   record->status.error);
  }
  if (!record->request.return_output) {
    return Status::InvalidArgument("job was not submitted with return_output");
  }
  if (record->output_taken) {
    return Status::InvalidArgument("output already taken");
  }
  record->output_taken = true;
  return std::move(record->output);
}

void SortService::Drain() {
  MutexLock guard(&lock_);
  for (;;) {
    bool all_terminal = true;
    for (const auto& [id, record] : jobs_) {
      if (!record->status.terminal()) {
        all_terminal = false;
        break;
      }
    }
    if (all_terminal) return;
    terminal_cv_.Wait(&lock_);
  }
}

void SortService::Shutdown(bool cancel_inflight) {
  std::vector<JobRequest> released;  // freed after the guard
  {
    MutexLock guard(&lock_);
    if (stopping_ && executors_.empty()) return;  // already shut down
    stopping_ = true;
    cancel_on_stop_ = cancel_inflight;
    if (cancel_inflight) {
      for (auto& [id, record] : jobs_) {
        if (record->status.terminal()) continue;
        record->cancel_requested = true;
        if (record->status.state == JobStatus::State::kQueued &&
            scheduler_.Remove(id)) {
          ReleaseInputs(&record->request, &released.emplace_back());
          record->status.state = JobStatus::State::kCancelled;
          record->status.error = "Cancelled: service shutdown";
          record->status.finish_seconds = NowSeconds();
        } else if (record->cancel != nullptr) {
          record->cancel->Cancel();
        }
      }
      terminal_cv_.SignalAll();
    }
    work_cv_.SignalAll();
  }
  if (!cancel_inflight) Drain();
  for (std::thread& executor : executors_) {
    if (executor.joinable()) executor.join();
  }
  executors_.clear();
}

std::string SortService::StatsJson() const {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("schema");
  writer.String("nexsortd-stats-v1");
  writer.Key("uptime_seconds");
  writer.Double(NowSeconds());
  writer.Key("env");
  env_->DescribeJson(&writer);
  writer.Key("sessions");
  env_->SessionsToJson(&writer);

  MutexLock guard(&lock_);
  writer.Key("queue");
  writer.BeginObject();
  writer.Key("depth");
  writer.Uint(scheduler_.depth());
  writer.Key("max_depth");
  writer.Uint(options_.max_queue_depth);
  writer.Key("dispatched");
  writer.Uint(scheduler_.dispatched());
  writer.Key("rejected");
  writer.Uint(scheduler_.rejected());
  writer.EndObject();

  writer.Key("admission");
  writer.BeginObject();
  writer.Key("grant_blocks");
  writer.Uint(admission_.grant_blocks());
  writer.Key("admissible_blocks");
  writer.Uint(admission_.admissible_blocks());
  writer.Key("ledger_blocks");
  writer.Uint(admission_.ledger_blocks());
  writer.Key("admitted_jobs");
  writer.Uint(admission_.admitted_jobs());
  writer.Key("swept_orphans");
  writer.Uint(swept_orphans_);
  writer.EndObject();

  writer.Key("tenants");
  writer.BeginArray();
  for (const FairScheduler::TenantSnapshot& tenant : scheduler_.Snapshot()) {
    writer.BeginObject();
    writer.Key("tenant");
    writer.String(tenant.tenant);
    writer.Key("weight");
    writer.Double(tenant.weight);
    writer.Key("pass");
    writer.Double(tenant.pass);
    writer.Key("in_flight");
    writer.Uint(tenant.in_flight);
    writer.Key("bytes_in_flight");
    writer.Uint(tenant.bytes_in_flight);
    writer.Key("queued");
    writer.Uint(tenant.queued);
    writer.Key("dispatched");
    writer.Uint(tenant.dispatched);
    writer.EndObject();
  }
  writer.EndArray();

  writer.Key("jobs");
  writer.BeginArray();
  for (const auto& [id, record] : jobs_) {
    record->status.ToJson(&writer);
  }
  writer.EndArray();
  writer.EndObject();
  return std::move(writer).Take();
}

}  // namespace nexsort
