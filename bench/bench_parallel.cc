// Compute/I-O overlap sweep on the Figure-5 workload: the same document,
// budget, and pinned sort allowance, sorted serially and with increasing
// worker counts (plus a merge-prefetching variant). Unlike the counted
// benches, the interesting metric here is *wall clock*, so each run's
// SortEnv stacks a Throttle layer over the memory base that pays a real
// (slept) latency per block — on a pure memory device the CPU dominates
// and overlap has nothing to hide. Every parallel run must produce
// byte-identical output; the table reports the wall-time reduction against
// the serial baseline alongside the pipeline's own counters (partitioned
// sorts, prefetched blocks).
//
//   bench_parallel [--json FILE] [--timeline FILE] [--sample-interval-ms N]
//
// With --timeline, the headline "2 thr + prefetch" NEXSORT run gets the
// live sampler and streams its gauges as nexsort-timeline-v1 JSONL.
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "extmem/block_device.h"
#include "util/string_util.h"

using namespace nexsort;
using namespace nexsort::bench;

namespace {

struct ParallelRun {
  RunResult result;
  ParallelStats pstats;
  std::string output;
};

// Stage `xml` onto the env's storage and return its extent. The extent is
// *allocated* through the full device stack (env->device()) so every
// wrapper layer's block count stays in sync — allocating beside a wrapper
// violates the layer invariant and leaves the staged blocks unaddressable
// through the stack. The payload is then *written* straight to the base
// device: staging is setup, not workload, so it pays no throttle latency
// and leaves the measured (wrapper-layer) stats untouched. Exits on
// failure — this is bench scaffolding.
ByteRange StageInput(SortEnv* env, const std::string& xml) {
  const uint64_t block_size = env->device()->block_size();
  const uint64_t blocks = (xml.size() + block_size - 1) / block_size;
  uint64_t first = 0;
  Status st = env->device()->Allocate(blocks, &first);
  std::string block(block_size, '\0');
  for (uint64_t i = 0; st.ok() && i < blocks; ++i) {
    const uint64_t offset = i * block_size;
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(block_size, xml.size() - offset));
    block.assign(xml.data() + offset, chunk);
    block.resize(block_size, '\0');
    st = env->base_device()->Write(first + i, block.data(),
                                   IoCategory::kOther);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "staging the input document failed: %s\n",
                 st.ToString().c_str());
    std::exit(1);
  }
  return ByteRange{first, xml.size()};
}

// Read an extent back into a string. This goes through the full stack
// (env->device()) so a caching layer's dirty frames are visible; it runs
// after the stats snapshot, so the extra reads are never measured.
std::string ReadBack(SortEnv* env, ByteRange range) {
  BlockStreamReader reader(env->device(), env->budget(), range,
                           IoCategory::kOther);
  std::string out;
  out.reserve(range.byte_size);
  char buf[8192];
  size_t got = 0;
  while (reader.Read(buf, sizeof(buf), &got).ok() && got > 0) {
    out.append(buf, got);
  }
  return out;
}

// RunNexSort in bench_common.h sorts RAM-to-RAM, so the overlap sweep
// has its own runner: the document is staged on the env's memory base and
// the sort runs extent-to-extent through the env's throttle layer —
// input reads, working I/O, and output writes all pay a real (slept)
// per-block latency, which is what gives prefetches something to hide. Stats come from the throttled layer
// (env->physical_device(); staging and read-back bypass it).
ParallelRun RunThrottled(SortEnv* env, ByteRange input_range,
                         NexSortOptions options) {
  ParallelRun run;
  NexSorter sorter(env, std::move(options));
  BlockStreamReader source(env->device(), env->budget(), input_range,
                           IoCategory::kInput);
  BlockStreamWriter sink(env->device(), env->budget(), IoCategory::kOutput);
  ByteRange output_range;
  auto start = std::chrono::steady_clock::now();
  Status st = sorter.Sort(&source, &sink);
  if (st.ok()) st = sink.Finish(&output_range);
  auto stop = std::chrono::steady_clock::now();
  run.result.ok = st.ok();
  run.result.error = st.ToString();
  run.result.io = env->physical_device()->stats();
  run.result.io_total = run.result.io.total();
  run.result.io_reads = run.result.io.reads;
  run.result.io_writes = run.result.io.writes;
  run.result.modeled_seconds = run.result.io.modeled_seconds;
  run.result.wall_seconds =
      std::chrono::duration<double>(stop - start).count();
  run.result.nexsort_stats = sorter.stats();
  run.result.cache = env->cache_stats();
  run.pstats = sorter.parallel_stats();
  if (run.result.ok) run.output = ReadBack(env, output_range);
  run.result.output_bytes = run.output.size();
  return run;
}

// Same arrangement for the key-path external merge sort — the
// external-sort-heavy configuration: every document byte flows through
// run formation and the merge, so partitioned sorts and prefetched merge
// inputs act on the bulk of the work instead of a slice of it.
ParallelRun RunThrottledKeyPath(SortEnv* env, ByteRange input_range,
                                KeyPathSortOptions options) {
  ParallelRun run;
  KeyPathXmlSorter sorter(env, std::move(options));
  BlockStreamReader source(env->device(), env->budget(), input_range,
                           IoCategory::kInput);
  BlockStreamWriter sink(env->device(), env->budget(), IoCategory::kOutput);
  ByteRange output_range;
  auto start = std::chrono::steady_clock::now();
  Status st = sorter.Sort(&source, &sink);
  if (st.ok()) st = sink.Finish(&output_range);
  auto stop = std::chrono::steady_clock::now();
  run.result.ok = st.ok();
  run.result.error = st.ToString();
  run.result.io = env->physical_device()->stats();
  run.result.io_total = run.result.io.total();
  run.result.io_reads = run.result.io.reads;
  run.result.io_writes = run.result.io.writes;
  run.result.modeled_seconds = run.result.io.modeled_seconds;
  run.result.wall_seconds =
      std::chrono::duration<double>(stop - start).count();
  run.result.keypath_stats = sorter.stats();
  run.result.cache = env->cache_stats();
  run.pstats = sorter.parallel_stats();
  if (run.result.ok) run.output = ReadBack(env, output_range);
  run.result.output_bytes = run.output.size();
  return run;
}

struct Config {
  const char* label;
  uint32_t threads;
  uint32_t prefetch_depth;
  uint64_t cache_frames;
};

// Build the throttled environment for one sweep configuration: memory
// base device, a Throttle layer paying the modeled per-block latency,
// and the config's cache/thread/prefetch settings. Exits on failure.
std::unique_ptr<SortEnv> MakeThrottledEnv(const Config& config,
                                          uint64_t memory_blocks,
                                          uint64_t sort_blocks,
                                          const ThrottleModel& model,
                                          BenchTimeline* timeline = nullptr) {
  SortEnvOptions env_options;
  env_options.block_size = kBlockSize;
  env_options.memory_blocks = memory_blocks;
  env_options.sort_memory_blocks = sort_blocks;
  env_options.layers.push_back(DeviceLayer::Throttle(model));
  env_options.parallel.threads = config.threads;
  env_options.parallel.prefetch_depth = config.prefetch_depth;
  if (config.cache_frames > 0) {
    env_options.cache = {.frames = config.cache_frames, .readahead = 0};
  }
  if (timeline != nullptr) timeline->Arm(&env_options);
  auto env = SortEnv::Create(std::move(env_options));
  if (!env.ok()) {
    std::fprintf(stderr, "SortEnv::Create failed: %s\n",
                 env.status().ToString().c_str());
    std::exit(1);
  }
  if (timeline != nullptr) timeline->Attach(env->get());
  return std::move(env).value();
}

}  // namespace

int main(int argc, char** argv) {
  BenchJsonLog json_log(argc, argv, "parallel");
  BenchTimeline timeline(argc, argv);
  GeneratorStats doc_stats;
  std::string xml = MakeRandomDoc(/*height=*/7, /*max_fanout=*/10,
                                  /*seed=*/42, &doc_stats);
  constexpr uint64_t kMemoryBlocks = 128;
  // Pinned for every run: identical run structure, so the serial-vs-
  // parallel delta is pure scheduling. Deliberately small so the large
  // subtrees overflow it — the external-sort-heavy regime where run
  // formation spills often and merges read runs back — while the budget
  // keeps ample room for the cache frames.
  constexpr uint64_t kSortBlocks = 8;
  constexpr uint64_t kCacheFrames = 32;
  constexpr uint32_t kPrefetchDepth = 4;
  const ThrottleModel kModel{};  // 150 us + 4 KB / 250 MB/s per block

  std::printf("Compute/I-O overlap sweep (fig5 workload, throttled device)\n");
  std::printf("document: %s elements, k=%llu, height=%d, %s\n",
              WithCommas(doc_stats.elements).c_str(),
              static_cast<unsigned long long>(doc_stats.max_fanout),
              doc_stats.height, HumanBytes(doc_stats.bytes).c_str());
  std::printf("block size %zu, M=%llu blocks, sort allowance %llu blocks, "
              "device latency %.0f us + %.0f MB/s\n",
              kBlockSize, static_cast<unsigned long long>(kMemoryBlocks),
              static_cast<unsigned long long>(kSortBlocks),
              kModel.access_latency_us, kModel.throughput_mb_per_s);

  const Config configs[] = {
      {"serial", 0, 0, 0},
      {"1 thread", 1, 0, 0},
      {"2 threads", 2, 0, 0},
      {"4 threads", 4, 0, 0},
      {"cache only", 0, 0, kCacheFrames},
      {"prefetch only", 0, kPrefetchDepth, kCacheFrames},
      {"2 thr + prefetch", 2, kPrefetchDepth, kCacheFrames},
  };
  const char* kColumns =
      "            config |  wall(s) | saved% | psorts | prefetch | output";

  auto print_row = [](const Config& config, const ParallelRun& run,
                      double baseline_wall, bool identical) {
    double saved = baseline_wall > 0
                       ? 100.0 * (baseline_wall - run.result.wall_seconds) /
                             baseline_wall
                       : 0.0;
    std::printf("  %16s | %8.2f | %5.1f%% | %6llu | %8llu | %s\n",
                config.label, run.result.wall_seconds, saved,
                static_cast<unsigned long long>(run.pstats.parallel_sorts),
                static_cast<unsigned long long>(run.pstats.prefetch_issued),
                identical ? "identical" : "DIFFERS!");
  };

  PrintHeader("NEXSORT overlap sweep", kColumns);
  std::string baseline_output;
  double baseline_wall = 0;
  for (const Config& config : configs) {
    NexSortOptions options = DefaultNexOptions();
    // The headline overlap configuration carries the live sampler (and
    // the --timeline stream when requested).
    bool sampled = timeline.enabled() && config.threads == 2 &&
                   config.prefetch_depth > 0;
    auto env = MakeThrottledEnv(config, kMemoryBlocks, kSortBlocks, kModel,
                                sampled ? &timeline : nullptr);
    ByteRange input_range = StageInput(env.get(), xml);
    ParallelRun run = RunThrottled(env.get(), input_range,
                                   std::move(options));
    if (env->telemetry() != nullptr) env->telemetry()->StopSampler();
    CheckOk(run.result, config.label);
    json_log.AddRow("nexsort_parallel",
                    {{"threads", config.threads},
                     {"prefetch_depth", config.prefetch_depth},
                     {"cache_frames", config.cache_frames},
                     {"sort_memory_blocks", kSortBlocks},
                     {"memory_blocks", kMemoryBlocks}},
                    run.result);
    bool identical;
    if (baseline_output.empty()) {
      baseline_output = std::move(run.output);
      baseline_wall = run.result.wall_seconds;
      identical = true;
    } else {
      identical = run.output == baseline_output;
    }
    print_row(config, run, baseline_wall, identical);
    if (!identical) {
      std::fprintf(stderr, "parallel output differs from serial baseline "
                           "(%s)\n", config.label);
      return 1;
    }
  }

  // The external-sort-heavy configuration: the key-path baseline pushes
  // the whole document through one big run-formation + merge, so the
  // overlap mechanisms act on the bulk of the work.
  PrintHeader("Key-path merge sort overlap sweep (external-sort-heavy)",
              kColumns);
  baseline_output.clear();
  baseline_wall = 0;
  for (const Config& config : configs) {
    KeyPathSortOptions options = DefaultKeyPathOptions();
    auto env = MakeThrottledEnv(config, kMemoryBlocks, kSortBlocks, kModel);
    ByteRange input_range = StageInput(env.get(), xml);
    ParallelRun run = RunThrottledKeyPath(env.get(), input_range,
                                          std::move(options));
    CheckOk(run.result, config.label);
    json_log.AddRow("keypath_parallel",
                    {{"threads", config.threads},
                     {"prefetch_depth", config.prefetch_depth},
                     {"cache_frames", config.cache_frames},
                     {"sort_memory_blocks", kSortBlocks},
                     {"memory_blocks", kMemoryBlocks}},
                    run.result);
    bool identical;
    if (baseline_output.empty()) {
      baseline_output = std::move(run.output);
      baseline_wall = run.result.wall_seconds;
      identical = true;
    } else {
      identical = run.output == baseline_output;
    }
    print_row(config, run, baseline_wall, identical);
    if (!identical) {
      std::fprintf(stderr, "parallel output differs from serial baseline "
                           "(keypath, %s)\n", config.label);
      return 1;
    }
  }

  std::printf(
      "\nexpected shape: prefetching hides merge-input reads; worker\n"
      "threads only split the in-memory buffer sorts, so without prefetch\n"
      "their rows match the serial row's I/O and modeled seconds (compare\n"
      "against the 'cache only' row to separate caching from overlap).\n"
      "Counted I/O is identical within each sweep — only the schedule\n"
      "changes.\n");
  json_log.Write();
  return 0;
}
