#include "env/sort_env.h"

#include <algorithm>

#include "obs/json_writer.h"
#include "obs/tracer.h"

namespace nexsort {

namespace {

const char* DeviceLayerName(DeviceLayer::Kind kind) {
  switch (kind) {
    case DeviceLayer::Kind::kThrottle:
      return "throttle";
    case DeviceLayer::Kind::kFault:
      return "fault";
  }
  return "unknown";
}

/// Per-session forwarder over the env's shared device: its own IoStats
/// count exactly this session's logical accesses (sums across sessions
/// reproduce the shared device's read/write/category totals — though not
/// the sequentiality subsets or modeled seconds, which depend on how the
/// sessions' streams interleave at the shared layer). Allocation is
/// delegated wholesale to the inner device: with several wrappers beside
/// each other, only the inner device can hand out dense ids.
class SessionAccountingDevice final : public BlockDevice {
 public:
  SessionAccountingDevice(BlockDevice* inner, DiskModel model)
      : BlockDevice(inner->block_size(), model), inner_(inner) {
    SyncNumBlocks(inner->num_blocks());
  }

  Status Allocate(uint64_t count, uint64_t* first_id) override {
    RETURN_IF_ERROR(inner_->Allocate(count, first_id));
    // Adopt the inner count (>= our blocks) so bounds checks admit every
    // id this session was handed.
    SyncNumBlocks(inner_->num_blocks());
    return Status::OK();
  }

 protected:
  Status DoRead(uint64_t block_id, char* buf, IoCategory category) override {
    return inner_->Read(block_id, buf, category);
  }
  Status DoWrite(uint64_t block_id, const char* buf,
                 IoCategory category) override {
    return inner_->Write(block_id, buf, category);
  }
  Status DoAllocate(uint64_t /*count*/) override {
    return Status::InvalidArgument(
        "SessionAccountingDevice: allocation is forwarded via Allocate");
  }

 private:
  BlockDevice* inner_;
};

}  // namespace

void SessionStats::ToJson(JsonWriter* writer) const {
  writer->BeginObject();
  writer->Key("id");
  writer->Uint(id);
  writer->Key("active");
  writer->Bool(active);
  writer->Key("start_seconds");
  writer->Double(start_seconds);
  writer->Key("wall_seconds");
  writer->Double(wall_seconds);
  writer->Key("io");
  io.ToJson(writer);
  writer->Key("runs_created");
  writer->Uint(runs_created);
  writer->Key("spilled_bytes");
  writer->Uint(spilled_bytes);
  writer->Key("budget_peak_blocks");
  writer->Uint(budget_peak_blocks);
  writer->EndObject();
}

SortEnv::SortEnv(SortEnvOptions options)
    : options_(std::move(options)), budget_(options_.memory_blocks) {}

SortEnv::~SortEnv() = default;

StatusOr<std::unique_ptr<SortEnv>> SortEnv::Create(SortEnvOptions options) {
  if (options.block_size == 0) {
    return Status::InvalidArgument("SortEnv: block_size must be > 0");
  }
  if (options.memory_blocks == 0) {
    return Status::InvalidArgument("SortEnv: memory_blocks must be >= 1");
  }
  if (options.cache.frames == 0 && options.cache.readahead > 0) {
    return Status::InvalidArgument(
        "SortEnv: cache.readahead needs cache.frames > 0");
  }
  if (options.cache.frames == 0 && options.parallel.prefetch_depth > 0) {
    return Status::InvalidArgument(
        "SortEnv: parallel.prefetch_depth needs cache.frames > 0");
  }
  if (options.cache.frames > 0 && options.cache.frames >= options.memory_blocks) {
    return Status::InvalidArgument(
        "SortEnv: cache.frames must leave budget blocks for the sort itself");
  }

  std::unique_ptr<SortEnv> env(new SortEnv(std::move(options)));
  const SortEnvOptions& opts = env->options_;

  if (opts.file_path.empty()) {
    env->base_ = NewMemoryBlockDevice(opts.block_size, opts.disk_model);
  } else {
    ASSIGN_OR_RETURN(env->base_, NewFileBlockDevice(opts.file_path,
                                                    opts.block_size,
                                                    opts.disk_model));
  }

  env->physical_ = env->base_.get();
  for (const DeviceLayer& layer : opts.layers) {
    switch (layer.kind) {
      case DeviceLayer::Kind::kThrottle:
        env->layers_.push_back(
            NewThrottledBlockDevice(env->physical_, layer.throttle));
        break;
      case DeviceLayer::Kind::kFault:
        env->layers_.push_back(NewFaultInjectionBlockDevice(env->physical_));
        break;
    }
    env->physical_ = env->layers_.back().get();
  }

  if (opts.cache.frames > 0) {
    env->cache_ = std::make_unique<CachedBlockDevice>(
        env->physical_, &env->budget_, opts.cache);
    RETURN_IF_ERROR(env->cache_->init_status());
    if (opts.tracer != nullptr) env->cache_->pool()->set_tracer(opts.tracer);
  }

  if (opts.parallel.threads > 0) {
    env->worker_pool_ = std::make_unique<WorkerPool>(opts.parallel.threads);
  }

  if (opts.sample_interval_ms > 0) {
    env->hub_ = std::make_unique<TelemetryHub>();
    SortEnv* raw = env.get();
    env->hub_->StartSampler(
        [raw](TelemetrySample* sample) { raw->SampleGauges(sample); },
        opts.sample_interval_ms);
  }

  return env;
}

SortEnv::Session::Session(SortEnv* env)
    : env_(env),
      tracer_(env->tracer()),
      start_(std::chrono::steady_clock::now()),
      device_(std::make_unique<SessionAccountingDevice>(
          env->device(), env->options().disk_model)),
      run_store_(std::make_unique<RunStore>(device_.get(), env->budget())),
      cancel_(std::make_shared<CancellationToken>()) {
  run_store_->set_tracer(tracer_);
  if (env->options().parallel.enabled()) {
    parallel_ = std::make_unique<ParallelContext>(env->options().parallel,
                                                  env->worker_pool());
  }
  if (env_->hub_ != nullptr) start_seconds_ = env_->hub_->ElapsedSeconds();
  env_->RegisterSession(this);
}

SortEnv::Session::Session(Session&& other) noexcept
    : env_(other.env_),
      id_(other.id_),
      tracer_(other.tracer_),
      start_seconds_(other.start_seconds_),
      start_(other.start_),
      device_(std::move(other.device_)),
      run_store_(std::move(other.run_store_)),
      parallel_(std::move(other.parallel_)),
      cancel_(std::move(other.cancel_)) {
  other.env_ = nullptr;
  if (env_ != nullptr) env_->MoveSession(&other, this);
}

SortEnv::Session& SortEnv::Session::operator=(Session&& other) noexcept {
  if (this == &other) return *this;
  if (env_ != nullptr) env_->UnregisterSession(this);
  env_ = other.env_;
  id_ = other.id_;
  tracer_ = other.tracer_;
  start_seconds_ = other.start_seconds_;
  start_ = other.start_;
  device_ = std::move(other.device_);
  run_store_ = std::move(other.run_store_);
  parallel_ = std::move(other.parallel_);
  cancel_ = std::move(other.cancel_);
  other.env_ = nullptr;
  if (env_ != nullptr) env_->MoveSession(&other, this);
  return *this;
}

SortEnv::Session::~Session() {
  if (env_ != nullptr) env_->UnregisterSession(this);
}

void SortEnv::Session::set_tracer(Tracer* tracer) {
  tracer_ = tracer;
  run_store_->set_tracer(tracer);
}

SessionStats SortEnv::Session::stats() const {
  SessionStats stats;
  stats.id = id_;
  stats.active = true;
  stats.start_seconds = start_seconds_;
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  stats.io = device_->stats();
  stats.runs_created = run_store_->runs_created();
  stats.spilled_bytes = run_store_->finished_bytes();
  stats.budget_peak_blocks = env_->budget_.peak_blocks();
  return stats;
}

void SortEnv::RegisterSession(Session* session) {
  MutexLock lock(&sessions_mutex_);
  session->id_ = next_session_id_++;
  active_sessions_.push_back(session);
}

void SortEnv::MoveSession(Session* from, Session* to) {
  MutexLock lock(&sessions_mutex_);
  std::replace(active_sessions_.begin(), active_sessions_.end(), from, to);
}

void SortEnv::UnregisterSession(Session* session) {
  SessionStats final_stats = session->stats();
  final_stats.active = false;
  MutexLock lock(&sessions_mutex_);
  active_sessions_.erase(std::remove(active_sessions_.begin(),
                                     active_sessions_.end(), session),
                         active_sessions_.end());
  finished_sessions_.push_back(std::move(final_stats));
}

std::vector<SessionStats> SortEnv::session_stats() const {
  MutexLock lock(&sessions_mutex_);
  std::vector<SessionStats> all = finished_sessions_;
  for (const Session* session : active_sessions_) {
    all.push_back(session->stats());
  }
  return all;
}

void SortEnv::SessionsToJson(JsonWriter* writer) const {
  writer->BeginArray();
  for (const SessionStats& stats : session_stats()) {
    stats.ToJson(writer);
  }
  writer->EndArray();
}

void SortEnv::SampleGauges(TelemetrySample* sample) {
  auto gauge = [sample](const char* name, double value) {
    sample->gauges.emplace_back(name, value);
  };

  gauge("budget_used_blocks", budget_.used_blocks());
  gauge("budget_total_blocks", budget_.total_blocks());
  gauge("budget_peak_blocks", budget_.peak_blocks());

  // device() counts logical accesses (what jobs asked for); the physical
  // device below the cache counts real transfers. Identical without a
  // cache, and their gap is exactly the I/O the cache absorbed.
  const IoStats& logical = device()->stats();
  const IoStats& physical = physical_->stats();
  gauge("io_logical_reads", logical.reads.load(std::memory_order_relaxed));
  gauge("io_logical_writes", logical.writes.load(std::memory_order_relaxed));
  gauge("io_logical_total", logical.total());
  gauge("io_physical_reads", physical.reads.load(std::memory_order_relaxed));
  gauge("io_physical_writes",
        physical.writes.load(std::memory_order_relaxed));
  gauge("io_physical_total", physical.total());
  for (int i = 0; i < kNumIoCategories; ++i) {
    uint64_t reads = physical.category_reads[i].load(std::memory_order_relaxed);
    uint64_t writes =
        physical.category_writes[i].load(std::memory_order_relaxed);
    if (reads == 0 && writes == 0) continue;  // keep quiet categories out
    std::string name = IoCategoryName(static_cast<IoCategory>(i));
    sample->gauges.emplace_back("io_physical_" + name + "_reads",
                                static_cast<double>(reads));
    sample->gauges.emplace_back("io_physical_" + name + "_writes",
                                static_cast<double>(writes));
  }

  if (cache_ != nullptr) {
    BufferPool* pool = cache_->pool();
    CacheStats stats = pool->stats();
    gauge("cache_hits", stats.hits);
    gauge("cache_misses", stats.misses);
    gauge("cache_pinned_frames", pool->pinned_frames());
    gauge("cache_dirty_frames", pool->dirty_frames());
    // Same absence convention as the stats block: no accesses, no gauge.
    if (stats.hits + stats.misses > 0) {
      gauge("cache_hit_rate_pct", stats.hit_rate() * 100.0);
    }
  }

  if (worker_pool_ != nullptr) {
    gauge("workers_total", worker_pool_->size());
    gauge("workers_busy", worker_pool_->busy_workers());
    gauge("workers_queue_depth", worker_pool_->queue_depth());
  }

  {
    MutexLock lock(&sessions_mutex_);
    uint64_t live_runs = 0, live_bytes = 0;
    uint64_t created = 0, spilled = 0;
    for (const Session* session : active_sessions_) {
      live_runs += session->run_store()->live_runs();
      live_bytes += session->run_store()->live_bytes();
      created += session->run_store()->runs_created();
      spilled += session->run_store()->finished_bytes();
    }
    for (const SessionStats& finished : finished_sessions_) {
      created += finished.runs_created;
      spilled += finished.spilled_bytes;
    }
    gauge("sessions_active", active_sessions_.size());
    gauge("runs_live", live_runs);
    gauge("run_live_bytes", live_bytes);
    gauge("runs_created", created);
    gauge("run_spilled_bytes", spilled);
  }
}

void SortEnv::DescribeJson(JsonWriter* writer) const {
  writer->BeginObject();
  writer->Key("block_size");
  writer->Uint(options_.block_size);
  writer->Key("memory_blocks");
  writer->Uint(options_.memory_blocks);
  writer->Key("device");
  writer->String(options_.file_path.empty() ? "memory" : "file");
  writer->Key("layers");
  writer->BeginArray();
  for (const DeviceLayer& layer : options_.layers) {
    writer->String(DeviceLayerName(layer.kind));
  }
  writer->EndArray();
  writer->Key("cache_frames");
  writer->Uint(options_.cache.frames);
  writer->Key("readahead");
  writer->Uint(options_.cache.readahead);
  writer->Key("threads");
  writer->Uint(options_.parallel.threads);
  writer->Key("prefetch_depth");
  writer->Uint(options_.parallel.prefetch_depth);
  writer->Key("sort_memory_blocks");
  writer->Uint(options_.sort_memory_blocks);
  writer->Key("sample_interval_ms");
  writer->Uint(options_.sample_interval_ms);
  writer->EndObject();
}

}  // namespace nexsort
