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
//   --stream              pull sorted output incrementally through the
//                         SortedStream API instead of the eager Sort call;
//                         output bytes are identical, and the stats gain
//                         time_to_first_byte_ms
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
// Working storage (stacks + sorted runs) lives in <output.xml>.work, which
// is removed on success.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/nexsort.h"
#include "core/order_spec_parse.h"
#include "core/sorted_check.h"
#include "xml/dtd.h"
#include "env/sort_env.h"
#include "extmem/block_device.h"
#include "extmem/stream.h"
#include "obs/chrome_trace.h"
#include "obs/json_writer.h"
#include "obs/telemetry_hub.h"
#include "obs/tracer.h"
#include "util/string_util.h"

using namespace nexsort;

namespace {

// Streams stdin-independent file I/O through stdio; input/output documents
// are ordinary files, while the working device is block-addressed.
class FileSource final : public ByteSource {
 public:
  explicit FileSource(FILE* file) : file_(file) {}
  Status Read(char* buf, size_t n, size_t* out) override {
    *out = std::fread(buf, 1, n, file_);
    if (*out < n && std::ferror(file_)) {
      return Status::IOError("read error on input file");
    }
    return Status::OK();
  }

 private:
  FILE* file_;
};

class FileSink final : public ByteSink {
 public:
  explicit FileSink(FILE* file) : file_(file) {}
  Status Append(std::string_view data) override {
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return Status::IOError("write error on output file");
    }
    return Status::OK();
  }

 private:
  FILE* file_;
};

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
      "         [--run-formation quicksort|replacement] [--graceful]"
      " [--stream]\n"
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
  int depth_limit = 0;
  uint64_t memory_mb = 64;
  uint64_t block_kb = 64;
  uint64_t threshold_blocks = 2;
  uint64_t sort_memory_blocks = 0;
  uint64_t cache_blocks = 0;
  uint64_t cache_readahead = 0;
  uint64_t threads = 0;
  uint64_t prefetch_depth = 0;
  bool graceful = false;
  bool stream_mode = false;
  RunFormationPolicy run_formation = RunFormationPolicy::kQuicksortChunks;
  bool show_stats = false;
  std::string stats_json_path;
  std::string trace_out_path;
  std::string timeline_out_path;
  std::string chrome_trace_path;
  uint64_t sample_interval_ms = 0;
  bool progress = false;
  bool check_output = false;
  bool check_only = false;
  bool pretty = false;
  std::string order_spec_text;
  std::string dtd_path;
  std::vector<std::string> scope_tags;
  std::string record_order;
  std::string strip_attr;
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
      depth_limit = std::atoi(next());
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
        run_formation = RunFormationPolicy::kQuicksortChunks;
      } else if (policy == "replacement" ||
                 policy == "replacement_selection") {
        run_formation = RunFormationPolicy::kReplacementSelection;
      } else {
        std::fprintf(stderr, "unknown --run-formation policy '%s'\n",
                     policy.c_str());
        return 2;
      }
    } else if (arg == "--stream") {
      stream_mode = true;
    } else if (arg == "--graceful") {
      graceful = true;
    } else if (arg == "--scope") {
      scope_tags.emplace_back(next());
    } else if (arg == "--record-order") {
      record_order = next();
    } else if (arg == "--strip-attr") {
      strip_attr = next();
    } else if (arg == "--dtd") {
      dtd_path = next();
    } else if (arg == "--pretty") {
      pretty = true;
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

  OrderSpec spec;
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
    FILE* input = std::fopen(input_path.c_str(), "rb");
    if (input == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", input_path.c_str());
      return 1;
    }
    FileSource source(input);
    auto report = CheckSorted(&source, spec, depth_limit);
    std::fclose(input);
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
  if (memory_blocks < 8 + cache_blocks) {
    std::fprintf(stderr,
                 "memory budget too small: need >= 8 blocks plus the "
                 "%llu cache frames\n",
                 static_cast<unsigned long long>(cache_blocks));
    return 2;
  }
  if (cache_readahead > 0 && cache_blocks == 0) {
    std::fprintf(stderr, "--readahead needs --cache-blocks\n");
    return 2;
  }
  if (threads > 64) {
    std::fprintf(stderr, "--threads capped at 64\n");
    return 2;
  }

  Dtd dtd;
  bool have_dtd = false;
  if (!dtd_path.empty()) {
    FILE* dtd_file = std::fopen(dtd_path.c_str(), "rb");
    if (dtd_file == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", dtd_path.c_str());
      return 1;
    }
    std::string dtd_text;
    char chunk[4096];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), dtd_file)) > 0) {
      dtd_text.append(chunk, got);
    }
    std::fclose(dtd_file);
    auto parsed_dtd = Dtd::Parse(dtd_text);
    if (!parsed_dtd.ok()) {
      std::fprintf(stderr, "%s\n", parsed_dtd.status().ToString().c_str());
      return 2;
    }
    dtd = std::move(*parsed_dtd);
    have_dtd = true;
    // Validate the input before doing any sorting work.
    FILE* check = std::fopen(input_path.c_str(), "rb");
    if (check == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", input_path.c_str());
      return 1;
    }
    FileSource check_source(check);
    auto report = dtd.Validate(&check_source);
    std::fclose(check);
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

  FILE* input = std::fopen(input_path.c_str(), "rb");
  if (input == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", input_path.c_str());
    return 1;
  }

  std::string work_path = output_path + ".work";
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
  env_options.file_path = work_path;
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
  // Opened only once the options are known good, so a usage error never
  // truncates an existing output file.
  FILE* output = std::fopen(output_path.c_str(), "wb");
  if (output == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", output_path.c_str());
    std::fclose(input);
    std::remove(work_path.c_str());
    return 1;
  }

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

  NexSortOptions options;
  options.order = spec;
  options.pretty_output = pretty;
  if (have_dtd) options.dtd = &dtd;
  options.depth_limit = depth_limit;
  options.sort_threshold = threshold_blocks * block_size;
  options.graceful_degeneration = graceful;
  options.sort_scope_tags = scope_tags;
  options.record_order_attribute = record_order;
  options.strip_attribute = strip_attr;
  options.run_formation = run_formation;
  NexSorter sorter(env.get(), options);

  FileSource source(input);
  FileSink sink(output);
  double time_to_first_byte_ms = 0.0;
  double sort_wall_ms = 0.0;
  Status status;
  {
    auto started = std::chrono::steady_clock::now();
    auto elapsed_ms = [&started]() {
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - started)
          .count();
    };
    if (stream_mode) {
      auto stream_or = sorter.SortStream(&source);
      status = stream_or.status();
      if (status.ok()) {
        std::unique_ptr<SortedStream> stream = std::move(stream_or).value();
        std::string_view chunk;
        bool first = true;
        while (true) {
          auto more = stream->Next(&chunk);
          if (!more.ok()) {
            status = more.status();
            break;
          }
          if (!*more) break;
          if (first) {
            first = false;
            time_to_first_byte_ms = elapsed_ms();
          }
          status = sink.Append(chunk);
          if (!status.ok()) break;
        }
      }
    } else {
      status = sorter.Sort(&source, &sink);
    }
    sort_wall_ms = elapsed_ms();
  }
  std::fclose(input);
  std::fclose(output);
  // Stop the sampler before reporting: the final sample lands in the
  // timeline stream (and samples() retention) and the progress line ends.
  if (env->telemetry() != nullptr) env->telemetry()->StopSampler();
  if (!status.ok()) {
    std::fprintf(stderr, "sort failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::remove(work_path.c_str());

  if (check_output && !scope_tags.empty()) {
    std::fprintf(stderr,
                 "--check skipped: scoped output is not fully sorted\n");
    check_output = false;
  }
  if (check_output) {
    FILE* verify = std::fopen(output_path.c_str(), "rb");
    if (verify == nullptr) {
      std::fprintf(stderr, "cannot reopen %s\n", output_path.c_str());
      return 1;
    }
    FileSource source(verify);
    auto report = CheckSorted(&source, spec, depth_limit);
    std::fclose(verify);
    if (!report.ok() || !report->sorted) {
      std::fprintf(stderr, "output verification FAILED: %s\n",
                   report.ok() ? report->violation.c_str()
                               : report.status().ToString().c_str());
      return 3;
    }
    std::fprintf(stderr, "output verified sorted\n");
  }

  if (show_stats) {
    const NexSortStats& stats = sorter.stats();
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
          RunFormationPolicyName(run_formation),
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
    if (stream_mode) {
      std::fprintf(stderr, "streamed: first byte at %.1f ms of %.1f ms\n",
                   time_to_first_byte_ms, sort_wall_ms);
    }
    if (cache_blocks > 0) {
      CacheStats cache = sorter.cache_stats();
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
      ParallelStats par = sorter.parallel_stats();
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
    sorter.cache_stats().ToJson(&json);
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
    sorter.parallel_stats().ToJson(&json);
    json.EndObject();
    // Per-session attribution: xmlsort runs one job, so one entry, but
    // the array shape is shared with multi-session envs (see
    // docs/OBSERVABILITY.md).
    json.Key("sessions");
    env->SessionsToJson(&json);
    // Run-formation + delivery summary for this job (docs/RUN_FORMATION.md):
    // run-length accounting comes from the external sorts' run formation,
    // time_to_first_byte_ms is 0 unless --stream pulled the output.
    {
      const RunFormationStats& runs = sorter.stats().sorts.run_formation;
      json.Key("sort");
      json.BeginObject();
      json.Key("run_formation");
      json.String(RunFormationPolicyName(run_formation));
      json.Key("runs_formed");
      json.Uint(runs.runs_formed);
      json.Key("avg_run_blocks");
      json.Double(runs.avg_run_blocks());
      json.Key("max_run_blocks");
      json.Uint(runs.max_run_blocks);
      json.Key("merge_passes");
      json.Uint(sorter.stats().sorts.merge_passes);
      // Merge-schedule accounting (docs/MERGE_PLANNING.md): only present
      // when at least one external sort actually ran merge steps.
      const MergePlanStats& plan = sorter.stats().sorts.merge_plan;
      if (plan.plans > 0) {
        json.Key("merge_plan");
        plan.ToJson(&json);
      }
      json.Key("streaming");
      json.Bool(stream_mode);
      json.Key("time_to_first_byte_ms");
      json.Double(time_to_first_byte_ms);
      json.Key("wall_ms");
      json.Double(sort_wall_ms);
      json.EndObject();
    }
    json.Key("nexsort");
    sorter.stats().ToJson(&json);
    json.Key("telemetry");
    tracer.ToJson(&json);
    json.EndObject();
    FILE* out = std::fopen(stats_json_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", stats_json_path.c_str());
      return 1;
    }
    std::string text = std::move(json).Take();
    text.push_back('\n');
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
  }

  if (!trace_out_path.empty()) {
    FILE* out = std::fopen(trace_out_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", trace_out_path.c_str());
      return 1;
    }
    std::string text = tracer.ToJsonl();
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
  }

  if (!chrome_trace_path.empty()) {
    ChromeTraceExporter exporter;
    exporter.AddSession("xmlsort", tracer);
    if (env->telemetry() != nullptr) {
      exporter.AddCounterTrack("env gauges", env->telemetry()->samples(),
                               env->telemetry()->epoch());
    }
    FILE* out = std::fopen(chrome_trace_path.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", chrome_trace_path.c_str());
      return 1;
    }
    std::string text = exporter.ToJsonString();
    text.push_back('\n');
    std::fwrite(text.data(), 1, text.size(), out);
    std::fclose(out);
  }
  return 0;
}
