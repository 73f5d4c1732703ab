// Runner of the end-to-end benchmark (see README.md). It drives the
// library's module entry points from outside and prints what it measured as
// one JSON line; run.py spawns it once per job, probe or check.
//
//   e2e_runner info
//   e2e_runner ready   --input IN --work W [env flags]
//   e2e_runner sort    --input IN --output OUT --work W [env flags] [--trace]
//   e2e_runner parse   --input IN
//   e2e_runner scan    --input IN
//   e2e_runner check   --input IN
//   e2e_runner service --spec SPEC.json
//
// env flags: --memory-blocks M --sort-memory-blocks S --threads T
//            --cache-frames F --readahead R --prefetch-depth P
//
// `ready` and `sort` print the line "ready" once the SortEnv exists and the
// input is open; run.py times spawn -> that line as the set-up time.
// Nothing here adds a span or counter to the library: the spans come from
// the existing Tracer, the counters from the stats structs the modules
// already export, and every timing is taken around a call into a module.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/nexsort.h"
#include "core/order_spec_parse.h"
#include "core/sorted_check.h"
#include "core/unit_scanner.h"
#include "env/sort_env.h"
#include "obs/json_writer.h"
#include "obs/tracer.h"
#include "service/client.h"
#include "service/wire.h"
#include "util/dcheck.h"
#include "xml/sax_parser.h"

using namespace nexsort;

namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kBlockSize = 64 * 1024;
constexpr const char* kOrder = "*:attr(id)n";

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// 95th percentile, interpolated as Python's statistics.quantiles does with
/// method="inclusive"; 0 for no values. Reorders `values`.
double Percentile95(std::vector<double>* values) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  double pos = 0.95 * static_cast<double>(values->size() - 1);
  size_t low = static_cast<size_t>(pos);
  size_t high = std::min(low + 1, values->size() - 1);
  double frac = pos - static_cast<double>(low);
  return (*values)[low] + frac * ((*values)[high] - (*values)[low]);
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "e2e_runner: %s\n", message.c_str());
  std::exit(1);
}

OrderSpec Order() {
  auto spec = ParseOrderSpec(kOrder);
  if (!spec.ok()) Die(spec.status().ToString());
  return *spec;
}

// -- The runner's own ByteSource / ByteSink, timed per call ---------------

class TimedFileSource final : public ByteSource {
 public:
  explicit TimedFileSource(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY)) {
    if (fd_ < 0) Die("cannot open " + path + ": " + std::strerror(errno));
  }
  ~TimedFileSource() override { ::close(fd_); }
  TimedFileSource(const TimedFileSource&) = delete;
  TimedFileSource& operator=(const TimedFileSource&) = delete;

  Status Read(char* buf, size_t n, size_t* out) override {
    auto start = Clock::now();
    ssize_t got;
    do {
      got = ::read(fd_, buf, n);
    } while (got < 0 && errno == EINTR);
    seconds_ += SecondsSince(start);
    ++calls_;
    if (got < 0) return Status::IOError(std::strerror(errno));
    *out = static_cast<size_t>(got);
    return Status::OK();
  }

  double seconds() const { return seconds_; }
  uint64_t calls() const { return calls_; }

 private:
  int fd_;
  double seconds_ = 0;
  uint64_t calls_ = 0;
};

class TimedFileSink final : public ByteSink {
 public:
  explicit TimedFileSink(const std::string& path)
      : file_(std::fopen(path.c_str(), "wb")) {
    if (file_ == nullptr) Die("cannot open " + path);
    std::setvbuf(file_, nullptr, _IOFBF, 1 << 20);
  }
  ~TimedFileSink() override {
    if (file_ != nullptr) std::fclose(file_);
  }
  TimedFileSink(const TimedFileSink&) = delete;
  TimedFileSink& operator=(const TimedFileSink&) = delete;

  Status Append(std::string_view data) override {
    auto start = Clock::now();
    size_t put = std::fwrite(data.data(), 1, data.size(), file_);
    seconds_ += SecondsSince(start);
    ++calls_;
    if (put != data.size()) return Status::IOError("short write on output");
    return Status::OK();
  }

  /// Flush and close; its time counts as append time.
  Status Close() {
    auto start = Clock::now();
    int rc = std::fclose(file_);
    file_ = nullptr;
    seconds_ += SecondsSince(start);
    return rc == 0 ? Status::OK() : Status::IOError("closing output failed");
  }

  double seconds() const { return seconds_; }
  uint64_t calls() const { return calls_; }

 private:
  std::FILE* file_;
  double seconds_ = 0;
  uint64_t calls_ = 0;
};

// -- Process counters: getrusage and /proc/self/io ------------------------

struct ProcSnapshot {
  double user_s = 0, sys_s = 0;
  uint64_t vol_csw = 0, invol_csw = 0;
  std::map<std::string, uint64_t> io;  // rchar, wchar, syscr, ...

  static ProcSnapshot Take() {
    ProcSnapshot snap;
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    snap.user_s = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6;
    snap.sys_s = usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6;
    snap.vol_csw = static_cast<uint64_t>(usage.ru_nvcsw);
    snap.invol_csw = static_cast<uint64_t>(usage.ru_nivcsw);
    std::ifstream in("/proc/self/io");
    std::string key;
    uint64_t value = 0;
    while (in >> key >> value) {
      if (!key.empty() && key.back() == ':') key.pop_back();
      snap.io[key] = value;
    }
    return snap;
  }
};

void WriteProcDelta(JsonWriter* json, const ProcSnapshot& before,
                    const ProcSnapshot& after) {
  json->BeginObject();
  json->Key("user_s");
  json->Double(after.user_s - before.user_s);
  json->Key("sys_s");
  json->Double(after.sys_s - before.sys_s);
  json->Key("vol_csw");
  json->Uint(after.vol_csw - before.vol_csw);
  json->Key("invol_csw");
  json->Uint(after.invol_csw - before.invol_csw);
  for (const auto& [key, value] : after.io) {
    auto it = before.io.find(key);
    json->Key(key);
    json->Uint(value - (it == before.io.end() ? 0 : it->second));
  }
  json->EndObject();
}

// -- Flags ----------------------------------------------------------------

struct Flags {
  std::map<std::string, std::string> values;
  bool trace = false;

  static Flags Parse(int argc, char** argv, int first) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--trace") {
        flags.trace = true;
      } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
        flags.values[arg.substr(2)] = argv[++i];
      } else {
        Die("bad argument " + arg);
      }
    }
    return flags;
  }
  std::string Get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) Die("missing --" + key);
    return it->second;
  }
  uint64_t Uint(const std::string& key, uint64_t fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback
                              : std::strtoull(it->second.c_str(), nullptr, 10);
  }
};

SortEnvOptions EnvOptions(const Flags& flags, Tracer* tracer) {
  SortEnvOptions options;
  options.block_size = kBlockSize;
  options.memory_blocks = flags.Uint("memory-blocks", 32);
  options.file_path = flags.Get("work");
  options.sort_memory_blocks = flags.Uint("sort-memory-blocks", 0);
  options.cache = {.frames = flags.Uint("cache-frames", 0),
                   .readahead = flags.Uint("readahead", 0)};
  options.parallel.threads =
      static_cast<uint32_t>(flags.Uint("threads", 0));
  options.parallel.prefetch_depth =
      static_cast<uint32_t>(flags.Uint("prefetch-depth", 0));
  options.tracer = tracer;
  return options;
}

std::unique_ptr<SortEnv> CreateEnv(const Flags& flags, Tracer* tracer,
                                   double* seconds) {
  auto start = Clock::now();
  auto env = SortEnv::Create(EnvOptions(flags, tracer));
  *seconds = SecondsSince(start);
  if (!env.ok()) Die("SortEnv::Create: " + env.status().ToString());
  return std::move(env).value();
}

void SignalReady() {
  std::fputs("ready\n", stdout);
  std::fflush(stdout);
}

void PrintJson(JsonWriter&& json) {
  std::string text = std::move(json).Take();
  std::printf("%s\n", text.c_str());
}

// -- Span aggregation over the existing Tracer's records ------------------

void WriteSpans(JsonWriter* json, const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, double> child_seconds;
  for (const SpanRecord& span : spans) {
    if (span.closed && span.parent_id >= 0) {
      child_seconds[span.parent_id] += span.duration_seconds;
    }
  }
  struct Agg {
    uint64_t count = 0;
    double total_s = 0, self_s = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const SpanRecord& span : spans) {
    if (!span.closed) continue;
    Agg& agg = by_name[span.name];
    ++agg.count;
    agg.total_s += span.duration_seconds;
    agg.self_s +=
        std::max(0.0, span.duration_seconds - child_seconds[span.id]);
  }
  json->BeginObject();
  for (const auto& [name, agg] : by_name) {
    json->Key(name);
    json->BeginObject();
    json->Key("count");
    json->Uint(agg.count);
    json->Key("total_s");
    json->Double(agg.total_s);
    json->Key("self_s");
    json->Double(agg.self_s);
    json->EndObject();
  }
  json->EndObject();
}

void WriteIo(JsonWriter* json, const IoStats& io) {
  json->BeginObject();
  json->Key("reads");
  json->Uint(io.reads.load());
  json->Key("writes");
  json->Uint(io.writes.load());
  json->Key("sequential");
  json->Uint(io.sequential_reads.load() + io.sequential_writes.load());
  json->Key("modeled_s");
  json->Double(io.modeled_seconds.load());
  json->Key("categories");
  json->BeginObject();
  for (int i = 0; i < kNumIoCategories; ++i) {
    json->Key(IoCategoryName(static_cast<IoCategory>(i)));
    json->Uint(io.category_reads[i].load() + io.category_writes[i].load());
  }
  json->EndObject();
  json->EndObject();
}

// -- Modes ----------------------------------------------------------------

/// How this binary was compiled; run.py refuses to time a debug or
/// sanitizer build.
int Info() {
  bool ndebug = false, sanitized = false, optimized = false;
#ifdef NDEBUG
  ndebug = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  sanitized = true;
#endif
#endif
#ifdef __OPTIMIZE__
  optimized = true;
#endif
  JsonWriter json;
  json.BeginObject();
  json.Key("dcheck");
  json.Bool(NEXSORT_DCHECK_ENABLED != 0);
  json.Key("ndebug");
  json.Bool(ndebug);
  json.Key("sanitized");
  json.Bool(sanitized);
  json.Key("optimized");
  json.Bool(optimized);
  json.EndObject();
  PrintJson(std::move(json));
  return 0;
}

int Ready(const Flags& flags) {
  double create_s = 0;
  std::unique_ptr<SortEnv> env = CreateEnv(flags, nullptr, &create_s);
  TimedFileSource source(flags.Get("input"));
  SignalReady();
  JsonWriter json;
  json.BeginObject();
  json.Key("env_create_s");
  json.Double(create_s);
  json.EndObject();
  PrintJson(std::move(json));
  return 0;
}

int Sort(const Flags& flags) {
  Tracer tracer;
  double create_s = 0;
  std::unique_ptr<SortEnv> env =
      CreateEnv(flags, flags.trace ? &tracer : nullptr, &create_s);
  TimedFileSource source(flags.Get("input"));
  TimedFileSink sink(flags.Get("output"));
  NexSortOptions options;
  options.order = Order();
  NexSorter sorter(env.get(), options);
  SignalReady();

  ProcSnapshot before = ProcSnapshot::Take();
  auto start = Clock::now();
  auto stream = sorter.SortStream(&source);
  double sort_stream_s = SecondsSince(start);
  if (!stream.ok()) Die("SortStream: " + stream.status().ToString());
  double ttfb_s = 0, next_s = 0;
  uint64_t chunks = 0;
  std::vector<double> waits;  // each Next() that returned a later chunk
  std::string_view chunk;
  while (true) {
    auto next_start = Clock::now();
    auto more = (*stream)->Next(&chunk);
    double wait_s = SecondsSince(next_start);
    next_s += wait_s;
    if (!more.ok()) Die("SortedStream::Next: " + more.status().ToString());
    if (!*more) break;
    if (chunks++ == 0) {
      ttfb_s = SecondsSince(start);
    } else {
      waits.push_back(wait_s);
    }
    Status appended = sink.Append(chunk);
    if (!appended.ok()) Die(appended.ToString());
  }
  Status closed = sink.Close();
  if (!closed.ok()) Die(closed.ToString());
  double wall_s = SecondsSince(start);
  ProcSnapshot after = ProcSnapshot::Take();

  const NexSortStats& stats = sorter.stats();
  const SubtreeSortStats& sorts = stats.sorts;
  JsonWriter json;
  json.BeginObject();
  json.Key("env_create_s");
  json.Double(create_s);
  json.Key("wall_s");
  json.Double(wall_s);
  json.Key("ttfb_s");
  json.Double(ttfb_s);
  json.Key("sort_stream_s");
  json.Double(sort_stream_s);
  json.Key("next_s");
  json.Double(next_s);
  json.Key("next_calls");
  json.Uint(chunks + 1);
  json.Key("next_wait_p95_s");
  json.Double(Percentile95(&waits));  json.Key("input_read_s");
  json.Double(source.seconds());
  json.Key("input_reads");
  json.Uint(source.calls());
  json.Key("output_append_s");
  json.Double(sink.seconds());
  json.Key("output_appends");
  json.Uint(sink.calls());
  json.Key("input_bytes");
  json.Uint(stats.input_bytes);
  json.Key("output_bytes");
  json.Uint(stats.output_bytes);
  json.Key("io");
  WriteIo(&json, env->physical_device()->stats());
  json.Key("logical_ios");
  json.Uint(env->device()->stats().total());
  json.Key("budget_peak_blocks");
  json.Uint(env->budget()->peak_blocks());
  json.Key("core");
  json.BeginObject();
  json.Key("subtree_sorts");
  json.Uint(stats.subtree_sorts);
  json.Key("internal_sorts");
  json.Uint(sorts.internal_sorts);
  json.Key("external_sorts");
  json.Uint(sorts.external_sorts);
  json.Key("pointer_units");
  json.Uint(stats.pointer_units);
  json.Key("data_stack_peak_bytes");
  json.Uint(stats.data_stack_peak);
  json.Key("elements");
  json.Uint(stats.scan.elements);
  json.EndObject();
  json.Key("sort");
  json.BeginObject();
  json.Key("runs_formed");
  json.Uint(sorts.run_formation.runs_formed);
  json.Key("avg_run_blocks");
  json.Double(sorts.run_formation.avg_run_blocks());
  json.Key("merge_passes");
  json.Uint(sorts.merge_passes);
  json.Key("merge_steps");
  json.Uint(sorts.merge_plan.steps);
  json.Key("fanin_max");
  json.Uint(sorts.merge_plan.fanin_max);
  json.Key("merge_bytes");
  json.Uint(sorts.merge_plan.actual_bytes);
  json.EndObject();
  CacheStats cache = sorter.cache_stats();
  json.Key("cache");
  json.BeginObject();
  json.Key("hits");
  json.Uint(cache.hits);
  json.Key("misses");
  json.Uint(cache.misses);
  json.Key("evictions");
  json.Uint(cache.evictions);
  json.Key("writebacks");
  json.Uint(cache.writebacks);
  json.Key("prefetches");
  json.Uint(cache.prefetches);
  json.EndObject();
  ParallelStats parallel = sorter.parallel_stats();
  json.Key("parallel");
  json.BeginObject();
  json.Key("async_spills");
  json.Uint(parallel.async_spills);
  json.Key("sync_spills");
  json.Uint(parallel.sync_spills);
  json.Key("double_buffer_declined");
  json.Uint(parallel.double_buffer_declined);
  json.Key("parallel_sorts");
  json.Uint(parallel.parallel_sorts);
  json.Key("prefetch_issued");
  json.Uint(parallel.prefetch_issued);
  json.Key("spill_wait_s");
  json.Double(parallel.spill_wait_seconds);
  json.Key("spill_busy_s");
  json.Double(parallel.spill_busy_seconds);
  json.EndObject();
  json.Key("proc");
  WriteProcDelta(&json, before, after);
  if (flags.trace) {
    json.Key("spans");
    WriteSpans(&json, tracer.spans());
  }
  json.EndObject();
  PrintJson(std::move(json));
  return 0;
}

/// Time a SaxParser-only or UnitScanner-only pass over the input.
int Pass(const Flags& flags, bool scanner) {
  TimedFileSource source(flags.Get("input"));
  OrderSpec spec = Order();
  uint64_t events = 0, bytes = 0;
  auto start = Clock::now();
  if (scanner) {
    UnitScanner scan(&source, &spec);
    ScanEvent event;
    while (true) {
      auto more = scan.Next(&event);
      if (!more.ok()) Die("UnitScanner::Next: " + more.status().ToString());
      if (!*more) break;
      ++events;
    }
    bytes = scan.bytes_consumed();
  } else {
    SaxParser parser(&source);
    XmlEvent event;
    while (true) {
      auto more = parser.Next(&event);
      if (!more.ok()) Die("SaxParser::Next: " + more.status().ToString());
      if (!*more) break;
      ++events;
    }
    bytes = parser.bytes_consumed();
  }
  double seconds = SecondsSince(start);
  JsonWriter json;
  json.BeginObject();
  json.Key("seconds");
  json.Double(seconds);
  json.Key("bytes");
  json.Uint(bytes);
  json.Key("events");
  json.Uint(events);
  json.Key("input_read_s");
  json.Double(source.seconds());
  json.EndObject();
  PrintJson(std::move(json));
  return 0;
}

// -- Output checks --------------------------------------------------------

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Order-independent fingerprint of a document's content: the sum, over
/// every element and text node, of a hash of the node together with its
/// parent element. Sorting permutes siblings and keeps every parent, so a
/// correct output has the input's fingerprint; a changed, lost or moved
/// byte changes it.
StatusOr<uint64_t> Fingerprint(ByteSource* source) {
  SaxParser parser(source);
  std::vector<uint64_t> open;  // descriptor hash per open element
  uint64_t sum = 0;
  std::hash<std::string_view> hash;
  XmlEvent event;
  while (true) {
    ASSIGN_OR_RETURN(bool more, parser.Next(&event));
    if (!more) break;
    uint64_t parent = open.empty() ? 0 : open.back();
    switch (event.type) {
      case XmlEventType::kStartElement: {
        std::string descriptor = event.name;
        for (const XmlAttribute& attr : event.attributes) {
          descriptor += '\0' + attr.name + '=' + attr.value;
        }
        uint64_t self = hash(descriptor);
        sum += Mix(parent * 0x9e3779b97f4a7c15ULL + self);
        open.push_back(self);
        break;
      }
      case XmlEventType::kEndElement:
        open.pop_back();
        break;
      default:
        sum += Mix(parent * 0x9e3779b97f4a7c15ULL + hash(event.text) + 1);
        break;
    }
  }
  return sum;
}

/// Sortedness, element count and content fingerprint of one document.
int Check(const Flags& flags) {
  std::string path = flags.Get("input");
  TimedFileSource first(path), second(path);
  auto report = CheckSorted(&first, Order());
  if (!report.ok()) Die("CheckSorted: " + report.status().ToString());
  auto fingerprint = Fingerprint(&second);
  if (!fingerprint.ok()) Die("fingerprint: " + fingerprint.status().ToString());
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(*fingerprint));
  JsonWriter json;
  json.BeginObject();
  json.Key("sorted");
  json.Bool(report->sorted);
  json.Key("elements");
  json.Uint(report->elements);
  json.Key("fingerprint");
  json.String(hex);
  json.Key("violation");
  json.String(report->violation);
  json.EndObject();
  PrintJson(std::move(json));
  return 0;
}

// -- Service load: a closed loop over nexsortd's wire ---------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct Document {
  std::string path;
  uint64_t elements = 0;
  uint64_t fingerprint = 0;
};

/// Verifies every output of the load: the first output of each input gets
/// CheckSorted, the element count and the input's fingerprint; every later
/// output of that input must have the first one's digest.
class OutputChecker {
 public:
  explicit OutputChecker(const std::vector<Document>* docs)
      : docs_(docs), digests_(docs->size(), 0), checked_(docs->size()) {}

  bool Verify(size_t doc, const std::string& output_path) {
    std::string text = ReadFile(output_path);
    std::remove(output_path.c_str());
    uint64_t digest = std::hash<std::string_view>()(text) ^ text.size();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (checked_[doc]) return digests_[doc] == digest;
    }
    StringByteSource first(text), second(text);
    auto report = CheckSorted(&first, Order());
    auto fingerprint = Fingerprint(&second);
    bool ok = report.ok() && report->sorted &&
              report->elements == (*docs_)[doc].elements &&
              fingerprint.ok() && *fingerprint == (*docs_)[doc].fingerprint;
    if (ok) {
      std::lock_guard<std::mutex> lock(mutex_);
      checked_[doc] = true;
      digests_[doc] = digest;
    }
    return ok;
  }

 private:
  const std::vector<Document>* docs_;
  std::mutex mutex_;
  std::vector<uint64_t> digests_;
  std::vector<bool> checked_;
};

struct JobSample {
  bool done = false;      // the daemon reported the job done
  bool wrong = false;     // done, but its output failed verification
  bool rejected = false;  // refused by admission (retry_after_ms)
  double latency_ms = 0;  // client: submit sent -> reply read
  double queue_ms = 0, run_ms = 0, service_ms = 0, ttfb_ms = 0;
  uint64_t input_bytes = 0;
  uint64_t session_id = 0;
};

std::string SubmitRequest(const std::string& tenant, const std::string& input,
                          const std::string& output, bool stream) {
  JsonWriter json;
  json.BeginObject();
  json.Key("op");
  json.String("submit");
  json.Key("kind");
  json.String("sort");
  json.Key("tenant");
  json.String(tenant);
  json.Key("order");
  json.String(kOrder);
  json.Key("input_path");
  json.String(input);
  json.Key("output");
  json.String(output);
  json.Key("stream");
  json.Bool(stream);
  json.Key("wait");
  json.Bool(true);
  json.EndObject();
  return std::move(json).Take();
}

JobSample RunJob(ServiceClient* client, const std::string& request) {
  JobSample sample;
  auto start = Clock::now();
  auto response = client->Call(request);
  sample.latency_ms = SecondsSince(start) * 1e3;
  if (!response.ok()) return sample;
  if (!response->GetBool("ok")) {
    sample.rejected = response->Find("retry_after_ms") != nullptr;
    return sample;
  }
  const JsonValue* job = response->Find("job");
  if (job == nullptr || job->GetString("state") != "done") return sample;
  double submit = job->GetDouble("submit_seconds");
  double begin = job->GetDouble("start_seconds");
  double finish = job->GetDouble("finish_seconds");
  sample.queue_ms = (begin - submit) * 1e3;
  sample.run_ms = (finish - begin) * 1e3;
  sample.service_ms = (finish - submit) * 1e3;
  sample.ttfb_ms = job->GetDouble("time_to_first_byte_ms");
  sample.input_bytes = job->GetUint("input_bytes");
  sample.session_id = job->GetUint("session_id");
  sample.done = true;
  return sample;
}

void WriteSamples(JsonWriter* json, const std::vector<JobSample>& samples) {
  json->BeginArray();
  for (const JobSample& s : samples) {
    json->BeginObject();
    json->Key("done");
    json->Bool(s.done);
    json->Key("wrong");
    json->Bool(s.wrong);
    json->Key("rejected");
    json->Bool(s.rejected);
    json->Key("latency_ms");
    json->Double(s.latency_ms);
    json->Key("queue_ms");
    json->Double(s.queue_ms);
    json->Key("run_ms");
    json->Double(s.run_ms);
    json->Key("service_ms");
    json->Double(s.service_ms);
    json->Key("ttfb_ms");
    json->Double(s.ttfb_ms);
    json->Key("input_bytes");
    json->Uint(s.input_bytes);
    json->Key("session_id");
    json->Uint(s.session_id);
    json->EndObject();
  }
  json->EndArray();
}

std::unique_ptr<ServiceClient> ConnectOrDie(const std::string& socket) {
  auto client = ServiceClient::Connect(socket);
  if (!client.ok()) Die(client.status().ToString());
  return std::move(client).value();
}

Document LoadDocument(const JsonValue& spec) {
  Document doc;
  doc.path = spec.GetString("path");
  doc.elements = spec.GetUint("elements");
  TimedFileSource source(doc.path);
  auto fingerprint = Fingerprint(&source);
  if (!fingerprint.ok()) Die("fingerprint: " + fingerprint.status().ToString());
  doc.fingerprint = *fingerprint;
  return doc;
}

int Service(const Flags& flags) {
  auto spec = JsonValue::Parse(ReadFile(flags.Get("spec")));
  if (!spec.ok()) Die("spec: " + spec.status().ToString());
  const std::string socket = spec->GetString("socket");
  const std::string out_dir = spec->GetString("out_dir");
  const uint64_t jobs_per_client = spec->GetUint("jobs_per_client");
  const int kClients = 2;
  std::vector<Document> docs;  // interactive inputs, then the bulk input
  const JsonValue* interactive = spec->Find("interactive");
  if (interactive == nullptr || interactive->array_items().empty()) {
    Die("spec needs interactive inputs");
  }
  for (const JsonValue& item : interactive->array_items()) {
    docs.push_back(LoadDocument(item));
  }
  const size_t num_interactive = docs.size();
  docs.push_back(LoadDocument(*spec->Find("bulk")));
  OutputChecker checker(&docs);

  std::atomic<int> interactive_running{kClients};
  std::vector<std::vector<JobSample>> interactive_samples(kClients);
  std::vector<double> interactive_seconds(kClients, 0);
  std::vector<JobSample> bulk_samples;
  auto load_start = Clock::now();

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = ConnectOrDie(socket);
      for (uint64_t j = 0; j < jobs_per_client; ++j) {
        size_t doc = (c + j * kClients) % num_interactive;
        std::string output = out_dir + "/i" + std::to_string(c) + "-" +
                             std::to_string(j) + ".xml";
        JobSample sample = RunJob(
            client.get(),
            SubmitRequest("interactive", docs[doc].path, output, true));
        sample.wrong = sample.done && !checker.Verify(doc, output);
        interactive_samples[c].push_back(sample);
      }
      interactive_seconds[c] = SecondsSince(load_start);
      interactive_running.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    auto client = ConnectOrDie(socket);
    const size_t doc = num_interactive;
    for (uint64_t j = 0; interactive_running.load() > 0; ++j) {
      std::string output = out_dir + "/b-" + std::to_string(j) + ".xml";
      JobSample sample = RunJob(
          client.get(), SubmitRequest("bulk", docs[doc].path, output, false));
      sample.wrong = sample.done && !checker.Verify(doc, output);
      bulk_samples.push_back(sample);
    }
  });

  // The fourth connection: ping round trips while the load runs.
  std::vector<double> pings_ms;
  {
    auto client = ConnectOrDie(socket);
    while (interactive_running.load() > 0) {
      auto start = Clock::now();
      auto response = client->Call("{\"op\":\"ping\"}");
      if (response.ok() && response->GetBool("ok")) {
        pings_ms.push_back(SecondsSince(start) * 1e3);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    for (std::thread& thread : threads) thread.join();
  }
  double load_s = SecondsSince(load_start);

  // Daemon-side counters from the stats op: per-session logical I/O.
  auto client = ConnectOrDie(socket);
  auto stats = client->Call("{\"op\":\"stats\"}");
  if (!stats.ok() || !stats->GetBool("ok")) Die("stats op failed");
  const JsonValue* body = stats->Find("stats");
  std::unordered_map<uint64_t, uint64_t> session_ios;
  uint64_t all_session_ios = 0;
  for (const JsonValue& session : body->Find("sessions")->array_items()) {
    uint64_t ios = session.Find("io")->GetUint("total");
    session_ios[session.GetUint("id")] = ios;
    all_session_ios += ios;
  }
  uint64_t interactive_ios = 0, interactive_bytes = 0;
  for (const auto& samples : interactive_samples) {
    for (const JobSample& s : samples) {
      if (!s.done || s.wrong) continue;
      interactive_ios += session_ios[s.session_id];
      interactive_bytes += s.input_bytes;
    }
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("load_s");
  json.Double(load_s);
  json.Key("interactive_s");
  json.Double(*std::max_element(interactive_seconds.begin(),
                                interactive_seconds.end()));
  json.Key("interactive");
  std::vector<JobSample> all_interactive;
  for (const auto& samples : interactive_samples) {
    all_interactive.insert(all_interactive.end(), samples.begin(),
                           samples.end());
  }
  WriteSamples(&json, all_interactive);
  json.Key("bulk");
  WriteSamples(&json, bulk_samples);
  json.Key("pings_ms");
  json.BeginArray();
  for (double ping : pings_ms) json.Double(ping);
  json.EndArray();
  json.Key("session_ios");
  json.Uint(all_session_ios);
  json.Key("interactive_session_ios");
  json.Uint(interactive_ios);
  json.Key("interactive_input_bytes");
  json.Uint(interactive_bytes);
  json.EndObject();
  PrintJson(std::move(json));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: e2e_runner MODE [flags] (see runner.cc)");
  std::string mode = argv[1];
  if (mode == "info") return Info();
  Flags flags = Flags::Parse(argc, argv, 2);
  if (mode == "ready") return Ready(flags);
  if (mode == "sort") return Sort(flags);
  if (mode == "parse") return Pass(flags, /*scanner=*/false);
  if (mode == "scan") return Pass(flags, /*scanner=*/true);
  if (mode == "check") return Check(flags);
  if (mode == "service") return Service(flags);
  Die("unknown mode " + mode);
}
