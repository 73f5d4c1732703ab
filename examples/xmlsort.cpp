// xmlsort: command-line external-memory XML sorter.
//
//   xmlsort [options] <input.xml> <output.xml>
//
//   --order SPEC          full ordering spec, e.g.
//                         "employee:attr(dept),attr(ID)n;*:attr(name)"
//                         (see core/order_spec_parse.h for the grammar)
//   --by-attr NAME        sort every element by attribute NAME (default: id)
//   --by-tag              sort every element by its tag name
//   --by-child-text PATH  sort by the text of the descendant at PATH
//                         (e.g. personalInfo/name/lastName)
//   --numeric             compare keys numerically
//   --descending          reverse the order
//   --depth-limit D       sort levels 1..D only (0 = head to toe)
//   --memory-mb M         internal memory budget in MiB (default 64)
//   --block-kb B          block size in KiB (default 64, like the paper)
//   --threshold-blocks T  sort threshold t in blocks (default 2)
//   --sort-memory-blocks N pin each sort's memory allowance to N blocks
//                         instead of granting whatever the budget has
//                         free (0 = dynamic, the default); small values
//                         force the external path, and concurrent jobs
//                         get identical deterministic grants
//   --cache-blocks N      buffer-pool cache of N block frames over the
//                         working device (0 = off, the default); frames
//                         come out of the --memory-mb budget, so M must
//                         cover N + the 8 blocks the sort needs. See
//                         docs/CACHING.md
//   --readahead N         prefetch up to N blocks ahead on sequential
//                         scans (needs --cache-blocks; capped at half
//                         the pool)
//   --threads N           worker threads for partitioned spill sorts
//                         (0 = serial, the default; output is
//                         byte-identical either way). See
//                         docs/PARALLELISM.md
//   --prefetch-depth K    prefetch merge-input runs K blocks ahead per
//                         source into the block cache (needs
//                         --cache-blocks)
//   --run-formation P     run-formation policy for external sorts:
//                         quicksort (default) or replacement
//                         (heap-based replacement selection: ~2x mean run
//                         length on random input, a single run on
//                         nearly-sorted input; output is byte-identical
//                         either way). See docs/RUN_FORMATION.md
//   --graceful            enable graceful degeneration into merge sort
//   --scope TAG           XSort mode: only sort children of TAG elements
//                         (repeatable)
//   --record-order ATTR   stamp each element with its original position
//   --strip-attr ATTR     drop ATTR from output elements
//   --check               verify the output is fully sorted afterwards
//   --check-only          just verify the input; no sorting, no output file
//   --pretty              indent the output document
//   --dtd FILE            parse FILE as a DTD: validate the input against
//                         it before sorting and pre-seed the compaction
//                         dictionary with its vocabulary
//   --stats               print the I/O breakdown afterwards
//   --stats-json FILE     write machine-readable telemetry (per-phase wall
//                         time + I/O, per-category counts, memory peak,
//                         run count, run-size histogram) as JSON; see
//                         docs/OBSERVABILITY.md for the schema
//   --trace-out FILE      write the JSONL trace stream (one span or
//                         run-lifecycle event per line)
//   --sample-interval-ms N poll env-wide gauges (budget, cache, workers,
//                         runs, I/O) every N ms on a background sampler;
//                         implied (10 ms) by --timeline-out / --progress
//   --timeline-out FILE   stream sampler ticks as nexsort-timeline-v1
//                         JSONL (header record, then one sample per line)
//   --chrome-trace FILE   write a Chrome Trace Event JSON file (spans as
//                         thread lanes, sampler gauges as counter tracks)
//                         loadable in Perfetto / chrome://tracing
//   --progress            live one-line status on stderr, driven by the
//                         sampler
//
// The sort runs as one SortJob (service/sort_job.h), the job nexsortd runs
// too. Working storage (stacks + sorted runs) lives in <output.xml>.work,
// and the sorted document streams into <output.xml>.staging, which is
// renamed onto <output.xml> only when the sort succeeds. Both are gone when
// xmlsort exits, so a failed run leaves a previous <output.xml> as it was.
//
// Exit status: 0 ok; 1 an input, output or working file failed, or the
// input is malformed; 2 usage or inconsistent options (including a memory
// budget too small to sort in); 3 a --check, --check-only or --dtd
// verification failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/nexsort.h"
#include "core/order_spec_parse.h"
#include "core/sorted_check.h"
#include "env/sort_env.h"
#include "extmem/block_device.h"
#include "extmem/stream.h"
#include "obs/chrome_trace.h"
#include "obs/json_writer.h"
#include "obs/telemetry_hub.h"
#include "obs/tracer.h"
#include "service/sort_job.h"
#include "util/string_util.h"
#include "xml/dtd.h"

using namespace nexsort;

namespace {

// Opens `path` for reading, or exits 1.
std::unique_ptr<FileByteSource> OpenOrExit(const std::string& path) {
  auto file = FileByteSource::Open(path);
  if (!file.ok()) {
    std::fprintf(stderr, "%s\n", file.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(file).value();
}

// Writes `text` as the whole of `path`; false (after saying why) on error.
bool WriteTextFile(const std::string& path, std::string_view text) {
  auto sink = FileByteSink::Open(path);
  Status status = sink.status();
  if (status.ok()) status = sink.value()->Append(text);
  if (status.ok()) status = sink.value()->Close();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
  }
  return status.ok();
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: xmlsort [options] <input.xml> <output.xml>\n"
      "       xmlsort --check-only [options] <input.xml>\n"
      "order:   [--order SPEC | --by-attr NAME | --by-tag |"
      " --by-child-text PATH]\n"
      "         [--numeric] [--descending] [--depth-limit D] [--scope TAG]\n"
      "memory:  [--memory-mb M] [--block-kb B] [--threshold-blocks T]\n"
      "         [--sort-memory-blocks N] [--cache-blocks N] [--readahead N]\n"
      "         [--threads N] [--prefetch-depth K]\n"
      "         [--run-formation quicksort|replacement] [--graceful]\n"
      "output:  [--record-order ATTR] [--strip-attr ATTR] [--dtd FILE]"
      " [--pretty]\n"
      "         [--check] [--check-only]\n"
      "stats:   [--stats] [--stats-json FILE] [--trace-out FILE]\n"
      "         [--sample-interval-ms N] [--timeline-out FILE]"
      " [--chrome-trace FILE]\n"
      "         [--progress]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  OrderRule rule;
  rule.element = "*";
  rule.source = KeySource::kAttribute;
  rule.argument = "id";
  // The parser fills the job's sort options in place.
  SortJob job;
  NexSortOptions& options = job.options;
  uint64_t memory_mb = 64;
  uint64_t block_kb = 64;
  uint64_t threshold_blocks = 2;
  uint64_t sort_memory_blocks = 0;
  uint64_t cache_blocks = 0;
  uint64_t cache_readahead = 0;
  uint64_t threads = 0;
  uint64_t prefetch_depth = 0;
  bool show_stats = false;
  std::string stats_json_path;
  std::string trace_out_path;
  std::string timeline_out_path;
  std::string chrome_trace_path;
  uint64_t sample_interval_ms = 0;
  bool progress = false;
  bool check_output = false;
  bool check_only = false;
  std::string order_spec_text;
  std::string dtd_path;
  std::string input_path;
  std::string output_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--order") {
      order_spec_text = next();
    } else if (arg == "--by-attr") {
      rule.source = KeySource::kAttribute;
      rule.argument = next();
    } else if (arg == "--by-tag") {
      rule.source = KeySource::kTagName;
      rule.argument.clear();
    } else if (arg == "--by-child-text") {
      rule.source = KeySource::kChildText;
      rule.argument = next();
    } else if (arg == "--numeric") {
      rule.numeric = true;
    } else if (arg == "--descending") {
      rule.descending = true;
    } else if (arg == "--depth-limit") {
      options.depth_limit = std::atoi(next());
    } else if (arg == "--memory-mb") {
      memory_mb = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--block-kb") {
      block_kb = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--threshold-blocks") {
      threshold_blocks = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--sort-memory-blocks") {
      sort_memory_blocks = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--cache-blocks") {
      cache_blocks = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--readahead") {
      cache_readahead = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--threads") {
      threads = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--prefetch-depth") {
      prefetch_depth = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--run-formation") {
      std::string policy = next();
      if (policy == "quicksort" || policy == "quicksort_chunks") {
        options.run_formation = RunFormationPolicy::kQuicksortChunks;
      } else if (policy == "replacement" ||
                 policy == "replacement_selection") {
        options.run_formation = RunFormationPolicy::kReplacementSelection;
      } else {
        std::fprintf(stderr, "unknown --run-formation policy '%s'\n",
                     policy.c_str());
        return 2;
      }
    } else if (arg == "--graceful") {
      options.graceful_degeneration = true;
    } else if (arg == "--scope") {
      options.sort_scope_tags.emplace_back(next());
    } else if (arg == "--record-order") {
      options.record_order_attribute = next();
    } else if (arg == "--strip-attr") {
      options.strip_attribute = next();
    } else if (arg == "--dtd") {
      dtd_path = next();
    } else if (arg == "--pretty") {
      options.pretty_output = true;
    } else if (arg == "--check") {
      check_output = true;
    } else if (arg == "--check-only") {
      check_only = true;
    } else if (arg == "--stats") {
      show_stats = true;
    } else if (arg == "--stats-json") {
      stats_json_path = next();
    } else if (arg.rfind("--stats-json=", 0) == 0) {
      stats_json_path = arg.substr(std::strlen("--stats-json="));
    } else if (arg == "--trace-out") {
      trace_out_path = next();
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out_path = arg.substr(std::strlen("--trace-out="));
    } else if (arg == "--timeline-out") {
      timeline_out_path = next();
    } else if (arg.rfind("--timeline-out=", 0) == 0) {
      timeline_out_path = arg.substr(std::strlen("--timeline-out="));
    } else if (arg == "--chrome-trace") {
      chrome_trace_path = next();
    } else if (arg.rfind("--chrome-trace=", 0) == 0) {
      chrome_trace_path = arg.substr(std::strlen("--chrome-trace="));
    } else if (arg == "--sample-interval-ms") {
      sample_interval_ms = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg.rfind("--", 0) == 0) {
      Usage();
    } else if (input_path.empty()) {
      input_path = arg;
    } else if (output_path.empty()) {
      output_path = arg;
    } else {
      Usage();
    }
  }
  if (input_path.empty() || (output_path.empty() && !check_only)) Usage();

  OrderSpec& spec = options.order;
  if (!order_spec_text.empty()) {
    auto parsed = ParseOrderSpec(order_spec_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    spec = *parsed;
  } else {
    spec.AddRule(rule);
  }

  if (check_only) {
    auto report = CheckSorted(OpenOrExit(input_path).get(), spec,
                              options.depth_limit);
    if (!report.ok()) {
      std::fprintf(stderr, "check failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    if (report->sorted) {
      std::printf("sorted (%s elements)\n",
                  WithCommas(report->elements).c_str());
      return 0;
    }
    std::printf("NOT sorted: %s\n", report->violation.c_str());
    return 3;
  }

  size_t block_size = static_cast<size_t>(block_kb) * 1024;
  uint64_t memory_blocks = memory_mb * 1024 * 1024 / block_size;
  if (threads > 64) {
    std::fprintf(stderr, "--threads capped at 64\n");
    return 2;
  }

  Dtd dtd;
  if (!dtd_path.empty()) {
    std::string dtd_text;
    Status read = ReadFile(dtd_path, &dtd_text);
    if (!read.ok()) {
      std::fprintf(stderr, "%s\n", read.ToString().c_str());
      return 1;
    }
    auto parsed_dtd = Dtd::Parse(dtd_text);
    if (!parsed_dtd.ok()) {
      std::fprintf(stderr, "%s\n", parsed_dtd.status().ToString().c_str());
      return 2;
    }
    dtd = std::move(*parsed_dtd);
    options.dtd = &dtd;
    // Validate the input before doing any sorting work.
    auto report = dtd.Validate(OpenOrExit(input_path).get());
    if (!report.ok()) {
      std::fprintf(stderr, "DTD validation failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    if (!report->valid) {
      std::fprintf(stderr, "input violates the DTD: %s\n",
                   report->violation.c_str());
      return 3;
    }
  }

  // Declared before the env, so the env's file is closed before this
  // removes it on every return below.
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() { std::remove(path.c_str()); }
  } work_file{output_path + ".work"};
  bool want_telemetry = show_stats || !stats_json_path.empty() ||
                        !trace_out_path.empty() || !chrome_trace_path.empty();
  Tracer tracer;

  // The timeline/progress surfaces are sampler-driven; give them a
  // default cadence when the user asked for the output but not the rate.
  if ((!timeline_out_path.empty() || progress) && sample_interval_ms == 0) {
    sample_interval_ms = 10;
  }

  SortEnvOptions env_options;
  env_options.block_size = block_size;
  env_options.memory_blocks = memory_blocks;
  env_options.file_path = work_file.path;
  env_options.sort_memory_blocks = sort_memory_blocks;
  env_options.cache = {.frames = cache_blocks, .readahead = cache_readahead};
  env_options.parallel.threads = static_cast<uint32_t>(threads);
  env_options.parallel.prefetch_depth =
      static_cast<uint32_t>(prefetch_depth);
  env_options.sample_interval_ms = static_cast<uint32_t>(sample_interval_ms);
  if (want_telemetry) env_options.tracer = &tracer;
  auto env_or = SortEnv::Create(std::move(env_options));
  if (!env_or.ok()) {
    // Inconsistent knobs (e.g. --prefetch-depth without --cache-blocks)
    // are usage errors; anything else is the working storage failing.
    const bool usage = env_or.status().IsInvalidArgument();
    std::fprintf(stderr, "%s: %s\n",
                 usage ? "invalid options" : "cannot open working storage",
                 env_or.status().ToString().c_str());
    return usage ? 2 : 1;
  }
  std::unique_ptr<SortEnv> env = std::move(env_or).value();

  if (!timeline_out_path.empty()) {
    JsonWriter env_json;
    env->DescribeJson(&env_json);
    auto sink_or = FileTimelineSink::Open(
        timeline_out_path, std::move(env_json).Take(),
        static_cast<uint32_t>(sample_interval_ms));
    if (!sink_or.ok()) {
      std::fprintf(stderr, "cannot open %s: %s\n", timeline_out_path.c_str(),
                   sink_or.status().ToString().c_str());
      return 1;
    }
    env->telemetry()->AddSink(std::move(sink_or).value());
  }
  if (progress) {
    env->telemetry()->AddSink(std::make_unique<ProgressSink>());
  }

  options.sort_threshold = threshold_blocks * block_size;
  job.inputs.emplace_back().path = input_path;
  job.output.path = output_path;
  SortJobResult result;
  Status status = job.Run(env->NewSession(), &result);
  // Stop the sampler before reporting: the final sample lands in the
  // timeline stream (and samples() retention) and the progress line ends.
  if (env->telemetry() != nullptr) env->telemetry()->StopSampler();
  if (!status.ok()) {
    std::fprintf(stderr, "sort failed: %s\n", status.ToString().c_str());
    // The sort rejects a budget too small for it as an invalid option.
    return status.IsInvalidArgument() ? 2 : 1;
  }

  if (check_output && !options.sort_scope_tags.empty()) {
    std::fprintf(stderr,
                 "--check skipped: scoped output is not fully sorted\n");
    check_output = false;
  }
  if (check_output) {
    auto report =
        CheckSorted(OpenOrExit(output_path).get(), spec, options.depth_limit);
    if (!report.ok() || !report->sorted) {
      std::fprintf(stderr, "output verification FAILED: %s\n",
                   report.ok() ? report->violation.c_str()
                               : report.status().ToString().c_str());
      return 3;
    }
    std::fprintf(stderr, "output verified sorted\n");
  }

  if (show_stats) {
    const NexSortStats& stats = result.nexsort;
    std::fprintf(stderr,
                 "elements %s, text nodes %s, k=%llu, height %llu\n"
                 "subtree sorts %llu (internal %llu, external %llu), "
                 "fragments %llu\n%s%s",
                 WithCommas(stats.scan.elements).c_str(),
                 WithCommas(stats.scan.text_nodes).c_str(),
                 static_cast<unsigned long long>(stats.scan.max_fanout),
                 static_cast<unsigned long long>(stats.scan.max_depth),
                 static_cast<unsigned long long>(stats.subtree_sorts),
                 static_cast<unsigned long long>(stats.sorts.internal_sorts),
                 static_cast<unsigned long long>(stats.sorts.external_sorts),
                 static_cast<unsigned long long>(stats.fragment_runs),
                 env->physical_device()->stats().ToString(block_size).c_str(),
                 tracer.ReportString().c_str());
    if (stats.sorts.run_formation.runs_formed > 0) {
      std::fprintf(
          stderr,
          "run formation (%s): %llu runs, avg %.1f blocks, max %llu "
          "blocks, %llu merge passes\n",
          RunFormationPolicyName(options.run_formation),
          static_cast<unsigned long long>(
              stats.sorts.run_formation.runs_formed),
          stats.sorts.run_formation.avg_run_blocks(),
          static_cast<unsigned long long>(
              stats.sorts.run_formation.max_run_blocks),
          static_cast<unsigned long long>(stats.sorts.merge_passes));
    }
    if (stats.sorts.merge_plan.plans > 0) {
      const MergePlanStats& plan = stats.sorts.merge_plan;
      std::fprintf(
          stderr,
          "merge plan: %llu steps over %llu runs, fan-in %llu-%llu, "
          "%.1f MiB merged\n",
          static_cast<unsigned long long>(plan.steps),
          static_cast<unsigned long long>(plan.input_runs),
          static_cast<unsigned long long>(plan.fanin_min),
          static_cast<unsigned long long>(plan.fanin_max),
          static_cast<double>(plan.actual_bytes) / (1024.0 * 1024.0));
    }
    std::fprintf(stderr, "first byte at %.1f ms of %.1f ms\n",
                 result.time_to_first_byte_ms, result.wall_ms);
    if (cache_blocks > 0) {
      CacheStats cache = env->cache_stats();
      std::fprintf(stderr,
                   "cache: %llu frames, %llu hits / %llu misses "
                   "(%.1f%% hit rate), %llu evictions, %llu writebacks, "
                   "%llu prefetches\n",
                   static_cast<unsigned long long>(cache_blocks),
                   static_cast<unsigned long long>(cache.hits),
                   static_cast<unsigned long long>(cache.misses),
                   cache.hit_rate() * 100.0,
                   static_cast<unsigned long long>(cache.evictions),
                   static_cast<unsigned long long>(cache.writebacks),
                   static_cast<unsigned long long>(cache.prefetches));
    }
    if (threads > 0 || prefetch_depth > 0) {
      const ParallelStats& par = result.parallel;
      std::fprintf(stderr,
                   "parallel: %llu threads, %llu spills, "
                   "%llu partitioned sorts, %llu prefetched blocks\n",
                   static_cast<unsigned long long>(threads),
                   static_cast<unsigned long long>(par.sync_spills),
                   static_cast<unsigned long long>(par.parallel_sorts),
                   static_cast<unsigned long long>(par.prefetch_issued));
    }
  }

  if (!stats_json_path.empty()) {
    JsonWriter json;
    json.BeginObject();
    json.Key("schema");
    json.String("nexsort-stats-v1");
    json.Key("tool");
    json.String("xmlsort");
    json.Key("input");
    json.String(input_path);
    json.Key("block_size");
    json.Uint(block_size);
    json.Key("memory_blocks");
    json.Uint(memory_blocks);
    json.Key("memory_peak_blocks");
    json.Uint(env->budget()->peak_blocks());
    json.Key("run_count");
    json.Uint(tracer.run_event_counts()[static_cast<int>(
        RunEventKind::kCreated)]);
    // The composed execution environment (device stack, cache, workers)
    // that produced this run, as configured — see docs/ARCHITECTURE.md.
    json.Key("env");
    env->DescribeJson(&json);
    json.Key("io");
    env->physical_device()->stats().ToJson(&json);
    // The io block above is *physical* transfers on the working device;
    // with caching on, the counters here say how many logical accesses
    // the pool absorbed.
    json.Key("cache");
    json.BeginObject();
    json.Key("enabled");
    json.Bool(cache_blocks > 0);
    json.Key("frames");
    json.Uint(cache_blocks);
    json.Key("readahead");
    json.Uint(cache_readahead);
    json.Key("counters");
    env->cache_stats().ToJson(&json);
    json.EndObject();
    json.Key("parallel");
    json.BeginObject();
    json.Key("enabled");
    json.Bool(threads > 0 || prefetch_depth > 0);
    json.Key("threads");
    json.Uint(threads);
    json.Key("prefetch_depth");
    json.Uint(prefetch_depth);
    json.Key("counters");
    result.parallel.ToJson(&json);
    json.EndObject();
    // Per-session attribution: xmlsort runs one job, so one entry, but
    // the array shape is shared with multi-session envs (see
    // docs/OBSERVABILITY.md).
    json.Key("sessions");
    env->SessionsToJson(&json);
    // Run-formation + delivery summary for this job (docs/RUN_FORMATION.md):
    // run-length accounting comes from the external sorts' run formation,
    // the timings from the job.
    {
      const RunFormationStats& runs = result.nexsort.sorts.run_formation;
      json.Key("sort");
      json.BeginObject();
      json.Key("run_formation");
      json.String(RunFormationPolicyName(options.run_formation));
      json.Key("runs_formed");
      json.Uint(runs.runs_formed);
      json.Key("avg_run_blocks");
      json.Double(runs.avg_run_blocks());
      json.Key("max_run_blocks");
      json.Uint(runs.max_run_blocks);
      json.Key("merge_passes");
      json.Uint(result.nexsort.sorts.merge_passes);
      // Merge-schedule accounting (docs/MERGE_PLANNING.md): only present
      // when at least one external sort actually ran merge steps.
      const MergePlanStats& plan = result.nexsort.sorts.merge_plan;
      if (plan.plans > 0) {
        json.Key("merge_plan");
        plan.ToJson(&json);
      }
      json.Key("time_to_first_byte_ms");
      json.Double(result.time_to_first_byte_ms);
      json.Key("wall_ms");
      json.Double(result.wall_ms);
      json.EndObject();
    }
    json.Key("nexsort");
    result.nexsort.ToJson(&json);
    json.Key("telemetry");
    tracer.ToJson(&json);
    json.EndObject();
    if (!WriteTextFile(stats_json_path, std::move(json).Take() + "\n")) {
      return 1;
    }
  }

  if (!trace_out_path.empty() &&
      !WriteTextFile(trace_out_path, tracer.ToJsonl())) {
    return 1;
  }

  if (!chrome_trace_path.empty()) {
    ChromeTraceExporter exporter;
    exporter.AddSession("xmlsort", tracer);
    if (env->telemetry() != nullptr) {
      exporter.AddCounterTrack("env gauges", env->telemetry()->samples(),
                               env->telemetry()->epoch());
    }
    if (!WriteTextFile(chrome_trace_path, exporter.ToJsonString() + "\n")) {
      return 1;
    }
  }
  return 0;
}
