// Shared harness for the paper-reproduction benchmarks: workload builders,
// algorithm runners over counted block devices, and table printers. Each
// bench binary regenerates one table/figure of the paper (see DESIGN.md's
// experiment index); the primary metric is counted block I/Os, with the
// DiskModel supplying a seconds-shaped series comparable to the paper's
// sort-time plots, plus real wall-clock for reference.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/keypath_xml_sort.h"
#include "core/nexsort.h"
#include "env/sort_env.h"
#include "extmem/block_device.h"
#include "obs/json_writer.h"
#include "obs/telemetry_hub.h"
#include "obs/tracer.h"
#include "service/sort_job.h"
#include "xml/generator.h"

namespace nexsort {
namespace bench {

/// The paper's experiments used 64 KB blocks on a 1 GB machine; we shrink
/// both so the same N/B and M/B ratios (and therefore the same pass
/// structure) appear at laptop-benchmark sizes.
inline constexpr size_t kBlockSize = 4096;

struct RunResult {
  bool ok = false;
  std::string error;
  uint64_t io_total = 0;
  uint64_t io_reads = 0;
  uint64_t io_writes = 0;
  double modeled_seconds = 0;
  double wall_seconds = 0;
  uint64_t output_bytes = 0;
  /// RunNexSortStream only: milliseconds from the job's start to the first
  /// sorted chunk. Negative for every other runner.
  double time_to_first_byte_ms = -1;
  NexSortStats nexsort_stats;      // NEXSORT runs only
  KeyPathSortStats keypath_stats;  // baseline runs only
  IoStats io;  // *physical* transfers: the backing device's counters
  CacheStats cache;  // all zeros unless env_options.cache.frames > 0
  /// Rendered "nexsort-telemetry-v1" object (per-phase spans, run events,
  /// metrics) — same schema as xmlsort --stats-json's "telemetry" key.
  /// Empty unless the run captured telemetry.
  std::string telemetry_json;
};

/// Sort `xml` with NEXSORT inside an environment built from `env_options`.
/// Benches that need a cache, worker threads, or throttle layers set the
/// corresponding SortEnvOptions fields; everything else uses the
/// memory-blocks convenience overload below.
inline RunResult RunNexSort(const std::string& xml, SortEnvOptions env_options,
                            NexSortOptions options,
                            bool capture_telemetry = false,
                            std::string* output = nullptr) {
  RunResult result;
  Tracer tracer;
  if (capture_telemetry) env_options.tracer = &tracer;
  auto env_or = SortEnv::Create(std::move(env_options));
  if (!env_or.ok()) {
    result.error = env_or.status().ToString();
    return result;
  }
  std::unique_ptr<SortEnv> env = std::move(env_or).value();
  NexSorter sorter(env.get(), std::move(options));
  StringByteSource source(xml);
  std::string out;
  StringByteSink sink(&out);
  auto start = std::chrono::steady_clock::now();
  Status st = sorter.Sort(&source, &sink);
  auto stop = std::chrono::steady_clock::now();
  result.ok = st.ok();
  result.error = st.ToString();
  result.io = env->physical_device()->stats();
  result.io_total = result.io.total();
  result.io_reads = result.io.reads;
  result.io_writes = result.io.writes;
  result.modeled_seconds = result.io.modeled_seconds;
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  result.output_bytes = out.size();
  result.nexsort_stats = sorter.stats();
  result.cache = env->cache_stats();
  if (capture_telemetry) result.telemetry_json = tracer.ToJsonString();
  if (output != nullptr) *output = std::move(out);
  return result;
}

/// Sort `xml` with NEXSORT under `memory_blocks` of budget.
inline RunResult RunNexSort(const std::string& xml, uint64_t memory_blocks,
                            NexSortOptions options,
                            size_t block_size = kBlockSize,
                            bool capture_telemetry = false,
                            std::string* output = nullptr) {
  SortEnvOptions env_options;
  env_options.block_size = block_size;
  env_options.memory_blocks = memory_blocks;
  return RunNexSort(xml, std::move(env_options), std::move(options),
                    capture_telemetry, output);
}

/// Sort `xml` with NEXSORT as a SortJob over a string source and sink: the
/// job drains the SortedStream chunk by chunk and stamps
/// time_to_first_byte_ms when the first sorted chunk surfaces. Output
/// bytes are identical to RunNexSort.
inline RunResult RunNexSortStream(const std::string& xml,
                                  uint64_t memory_blocks,
                                  NexSortOptions options,
                                  size_t block_size = kBlockSize,
                                  std::string* output = nullptr) {
  RunResult result;
  SortEnvOptions env_options;
  env_options.block_size = block_size;
  env_options.memory_blocks = memory_blocks;
  auto env_or = SortEnv::Create(std::move(env_options));
  if (!env_or.ok()) {
    result.error = env_or.status().ToString();
    return result;
  }
  std::unique_ptr<SortEnv> env = std::move(env_or).value();
  StringByteSource source(xml);
  std::string out;
  StringByteSink sink(&out);
  SortJob job;
  job.options = std::move(options);
  job.inputs.emplace_back().source = &source;
  job.output.sink = &sink;
  SortJobResult job_result;
  Status st = job.Run(env->NewSession(), &job_result);
  result.ok = st.ok();
  result.error = st.ToString();
  result.io = env->physical_device()->stats();
  result.io_total = result.io.total();
  result.io_reads = result.io.reads;
  result.io_writes = result.io.writes;
  result.modeled_seconds = result.io.modeled_seconds;
  result.wall_seconds = job_result.wall_ms / 1e3;
  result.time_to_first_byte_ms = job_result.time_to_first_byte_ms;
  result.output_bytes = out.size();
  result.nexsort_stats = job_result.nexsort;
  result.cache = env->cache_stats();
  if (output != nullptr) *output = std::move(out);
  return result;
}

/// Sort `xml` with the key-path external merge sort baseline inside an
/// environment built from `env_options`.
inline RunResult RunKeyPathSort(const std::string& xml,
                                SortEnvOptions env_options,
                                KeyPathSortOptions options,
                                bool capture_telemetry = false) {
  RunResult result;
  Tracer tracer;
  if (capture_telemetry) env_options.tracer = &tracer;
  auto env_or = SortEnv::Create(std::move(env_options));
  if (!env_or.ok()) {
    result.error = env_or.status().ToString();
    return result;
  }
  std::unique_ptr<SortEnv> env = std::move(env_or).value();
  KeyPathXmlSorter sorter(env.get(), std::move(options));
  StringByteSource source(xml);
  std::string out;
  StringByteSink sink(&out);
  auto start = std::chrono::steady_clock::now();
  Status st = sorter.Sort(&source, &sink);
  auto stop = std::chrono::steady_clock::now();
  result.ok = st.ok();
  result.error = st.ToString();
  result.io = env->physical_device()->stats();
  result.io_total = result.io.total();
  result.io_reads = result.io.reads;
  result.io_writes = result.io.writes;
  result.modeled_seconds = result.io.modeled_seconds;
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  result.output_bytes = out.size();
  result.keypath_stats = sorter.stats();
  result.cache = env->cache_stats();
  if (capture_telemetry) result.telemetry_json = tracer.ToJsonString();
  return result;
}

/// Sort `xml` with the key-path external merge sort baseline.
inline RunResult RunKeyPathSort(const std::string& xml,
                                uint64_t memory_blocks,
                                KeyPathSortOptions options,
                                size_t block_size = kBlockSize,
                                bool capture_telemetry = false) {
  SortEnvOptions env_options;
  env_options.block_size = block_size;
  env_options.memory_blocks = memory_blocks;
  return RunKeyPathSort(xml, std::move(env_options), std::move(options),
                        capture_telemetry);
}

/// Machine-readable companion to the printed tables: pass `--json FILE`
/// (or `--json=FILE`) to a bench binary and every measured point is also
/// appended here, then written as one "nexsort-bench-v1" document:
///
///   {"schema":"nexsort-bench-v1","bench":...,"block_size":...,
///    "rows":[{"algorithm":...,"params":{...},"ok":...,"io":{...},
///             "modeled_seconds":...,"wall_seconds":...,
///             "output_bytes":...,"telemetry":{...}}, ...]}
///
/// "io" matches IoStats::ToJson and "telemetry" (present when the run
/// captured it) matches the tracer's nexsort-telemetry-v1 — the same
/// objects xmlsort --stats-json emits, so one consumer reads both.
class BenchJsonLog {
 public:
  BenchJsonLog(int argc, char** argv, const char* bench_name)
      : bench_name_(bench_name) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        path_ = argv[++i];
      } else if (arg.rfind("--json=", 0) == 0) {
        path_ = arg.substr(std::string("--json=").size());
      }
    }
  }

  /// True when --json was given; use it to decide capture_telemetry.
  bool enabled() const { return !path_.empty(); }

  void AddRow(const char* algorithm,
              std::initializer_list<std::pair<const char*, uint64_t>> params,
              const RunResult& result) {
    if (!enabled()) return;
    JsonWriter row;
    row.BeginObject();
    row.Key("algorithm");
    row.String(algorithm);
    row.Key("params");
    row.BeginObject();
    for (const auto& [name, value] : params) {
      row.Key(name);
      row.Uint(value);
    }
    row.EndObject();
    row.Key("ok");
    row.Bool(result.ok);
    row.Key("io");
    result.io.ToJson(&row);
    row.Key("modeled_seconds");
    row.Double(result.modeled_seconds);
    row.Key("wall_seconds");
    row.Double(result.wall_seconds);
    row.Key("output_bytes");
    row.Uint(result.output_bytes);
    if (result.time_to_first_byte_ms >= 0) {
      row.Key("time_to_first_byte_ms");
      row.Double(result.time_to_first_byte_ms);
    }
    if (result.cache.hits + result.cache.misses > 0) {
      row.Key("cache");
      result.cache.ToJson(&row);
    }
    if (!result.telemetry_json.empty()) {
      row.Key("telemetry");
      row.Raw(result.telemetry_json);
    }
    row.EndObject();
    rows_.push_back(std::move(row).Take());
  }

  /// Write the accumulated series; call once after the sweep.
  void Write(size_t block_size = kBlockSize) {
    if (!enabled()) return;
    JsonWriter json;
    json.BeginObject();
    json.Key("schema");
    json.String("nexsort-bench-v1");
    json.Key("bench");
    json.String(bench_name_);
    json.Key("block_size");
    json.Uint(block_size);
    json.Key("rows");
    json.BeginArray();
    for (const std::string& row : rows_) json.Raw(row);
    json.EndArray();
    json.EndObject();
    FILE* out = std::fopen(path_.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path_.c_str());
      return;
    }
    std::string text = std::move(json).Take();
    text.push_back('\n');
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
    std::printf("wrote %s (%zu rows)\n", path_.c_str(), rows_.size());
  }

 private:
  std::string bench_name_;
  std::string path_;
  std::vector<std::string> rows_;
};

/// Live-telemetry knobs for the bench binaries, parsed the same way as
/// BenchJsonLog's `--json`: `--sample-interval-ms N` arms the SortEnv
/// background sampler on the runs a bench designates, and `--timeline
/// FILE` (or `--timeline=FILE`) streams that run's gauge samples as
/// nexsort-timeline-v1 JSONL. `--timeline` without an explicit interval
/// defaults to 5 ms. Each bench decides which configuration gets the
/// timeline (typically its headline run); the sink attaches once.
class BenchTimeline {
 public:
  BenchTimeline(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--timeline" && i + 1 < argc) {
        path_ = argv[++i];
      } else if (arg.rfind("--timeline=", 0) == 0) {
        path_ = arg.substr(std::string("--timeline=").size());
      } else if (arg == "--sample-interval-ms" && i + 1 < argc) {
        interval_ms_ =
            static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
      } else if (arg.rfind("--sample-interval-ms=", 0) == 0) {
        interval_ms_ = static_cast<uint32_t>(std::strtoul(
            arg.substr(std::string("--sample-interval-ms=").size()).c_str(),
            nullptr, 10));
      }
    }
    if (!path_.empty() && interval_ms_ == 0) interval_ms_ = 5;
  }

  bool enabled() const { return interval_ms_ > 0; }
  uint32_t interval_ms() const { return interval_ms_; }

  /// Arm the env's sampler for a run this bench wants sampled.
  void Arm(SortEnvOptions* options) const {
    options->sample_interval_ms = interval_ms_;
  }

  /// Attach the timeline file sink to a freshly created (armed) env.
  /// First successful call wins; later calls are no-ops.
  void Attach(SortEnv* env) {
    if (path_.empty() || attached_ || env->telemetry() == nullptr) return;
    JsonWriter env_json;
    env->DescribeJson(&env_json);
    auto sink = FileTimelineSink::Open(path_, std::move(env_json).Take(),
                                       interval_ms_);
    if (!sink.ok()) {
      std::fprintf(stderr, "cannot open %s: %s\n", path_.c_str(),
                   sink.status().ToString().c_str());
      return;
    }
    env->telemetry()->AddSink(std::move(sink).value());
    attached_ = true;
  }

 private:
  std::string path_;
  uint32_t interval_ms_ = 0;
  bool attached_ = false;
};

inline NexSortOptions DefaultNexOptions() {
  NexSortOptions options;
  options.order = OrderSpec::ByAttribute("id", /*numeric=*/true);
  return options;
}

inline KeyPathSortOptions DefaultKeyPathOptions() {
  KeyPathSortOptions options;
  options.order = OrderSpec::ByAttribute("id", /*numeric=*/true);
  return options;
}

/// Generate a paper-style document with the IBM-style generator.
inline std::string MakeRandomDoc(int height, uint64_t max_fanout,
                                 uint64_t seed, GeneratorStats* stats) {
  RandomTreeGenerator generator(
      height, max_fanout, {.seed = seed, .element_bytes = 150});
  auto xml = generator.GenerateString();
  if (!xml.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 xml.status().ToString().c_str());
    std::exit(1);
  }
  if (stats != nullptr) *stats = generator.stats();
  return std::move(xml).value();
}

/// Generate a Table-2-style document with exact fan-outs per level.
inline std::string MakeShapedDoc(const std::vector<uint64_t>& fanouts,
                                 uint64_t seed, GeneratorStats* stats) {
  ShapeGenerator generator(fanouts,
                           {.seed = seed, .element_bytes = 150,
                            .leaf_text = false});
  auto xml = generator.GenerateString();
  if (!xml.ok()) {
    std::fprintf(stderr, "generator failed: %s\n",
                 xml.status().ToString().c_str());
    std::exit(1);
  }
  if (stats != nullptr) *stats = generator.stats();
  return std::move(xml).value();
}

inline void PrintHeader(const char* title, const char* columns) {
  std::printf("\n== %s ==\n%s\n", title, columns);
}

inline void CheckOk(const RunResult& result, const char* label) {
  if (!result.ok) {
    std::fprintf(stderr, "%s failed: %s\n", label, result.error.c_str());
    std::exit(1);
  }
}

}  // namespace bench
}  // namespace nexsort
