#include "parallel/parallel.h"

#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace nexsort {

void ParallelStats::MergeFrom(const ParallelStats& other) {
  sync_spills += other.sync_spills;
  parallel_sorts += other.parallel_sorts;
  sort_partitions += other.sort_partitions;
  prefetch_issued += other.prefetch_issued;
}

void ParallelStats::ToJson(JsonWriter* writer) const {
  writer->BeginObject();
  writer->Key("sync_spills");
  writer->Uint(sync_spills);
  writer->Key("parallel_sorts");
  writer->Uint(parallel_sorts);
  writer->Key("sort_partitions");
  writer->Uint(sort_partitions);
  writer->Key("prefetch_issued");
  writer->Uint(prefetch_issued);
  writer->EndObject();
}

ParallelContext::ParallelContext(ParallelOptions options, WorkerPool* pool)
    : options_(options), pool_(options.threads > 0 ? pool : nullptr) {}

void ParallelContext::AddStats(const ParallelStats& stats) {
  MutexLock lock(&mutex_);
  stats_.MergeFrom(stats);
}

ParallelStats ParallelContext::stats() const {
  MutexLock lock(&mutex_);
  return stats_;
}

void ParallelContext::PublishMetrics(Tracer* tracer) const {
  if (tracer == nullptr) return;
  ParallelStats snapshot = stats();
  MetricsRegistry* metrics = tracer->metrics();
  metrics->GetCounter("parallel_sync_spills")->Add(snapshot.sync_spills);
  metrics->GetCounter("parallel_sorts")->Add(snapshot.parallel_sorts);
  metrics->GetCounter("parallel_sort_partitions")
      ->Add(snapshot.sort_partitions);
  metrics->GetCounter("parallel_prefetch_issued")
      ->Add(snapshot.prefetch_issued);
}

}  // namespace nexsort
