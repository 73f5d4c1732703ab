// nexsortd: the multi-tenant sort daemon (docs/SERVICE.md). One shared
// SortEnv, a fixed executor pool, weighted-fair scheduling with admission
// control, all behind a unix-domain socket speaking `nexsortd-wire-v1`
// (one JSON request/response per line; drive it with nexsortctl).
//
//   nexsortd --socket PATH [options]
//
//   --socket PATH         unix-domain socket to listen on (required)
//   --block-kb B          block size in KiB (default 64)
//   --memory-mb M         shared internal-memory budget in MiB (default 64)
//   --executors N         concurrent jobs; each gets an equal deterministic
//                         share of the budget (default 2)
//   --queue-depth N       backlog bound before submissions are rejected
//                         with a retry_after_ms hint (default 64)
//   --retry-after-ms N    the hint handed back on rejection (default 50)
//   --cache-blocks N      shared buffer-pool frames over the working
//                         device (0 = off); counted against --memory-mb
//   --threads N           worker threads, shared by all jobs, for
//                         partitioned spill sorts
//   --scratch-dir DIR     working device + staged outputs live here under
//                         crash-safe scoped names; orphans of crashed
//                         prior instances are swept at startup
//   --tenant SPEC         quota override, name:weight:inflight[:bytes],
//                         repeatable (e.g. batch:0.5:1:8388608)
//   --default-weight W    default tenant weight (default 1.0)
//   --default-inflight N  default per-tenant concurrent-job cap (default 2)
//   --timeline-out FILE   stream env gauges as nexsort-timeline-v1 JSONL
//   --sample-interval-ms N sampler cadence (default 10 when --timeline-out
//                         is given, else off)
//   --version / --help
//
// Shutdown: SIGTERM/SIGINT or the wire `shutdown` op. Either way the
// daemon stops accepting, cancels queued and in-flight jobs at the next
// block boundary, joins the executors, flushes the timeline sink, removes
// the socket file, and exits 0.
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/sort_env.h"
#include "obs/json_writer.h"
#include "obs/telemetry_hub.h"
#include "service/server.h"
#include "service/service.h"

using namespace nexsort;

namespace {

constexpr const char* kVersion = "nexsortd 1.0.0";

// Self-pipe: the only async-signal-safe way to get a signal into the
// blocking main thread. The handler writes one byte; main reads it.
int g_signal_pipe[2] = {-1, -1};

extern "C" void OnSignal(int /*signo*/) {
  char byte = 's';
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

void Usage(FILE* out) {
  std::fprintf(
      out,
      "usage: nexsortd --socket PATH [--block-kb B] [--memory-mb M]\n"
      "                [--executors N] [--queue-depth N] "
      "[--retry-after-ms N]\n"
      "                [--cache-blocks N] [--threads N] "
      "[--scratch-dir DIR]\n"
      "                [--tenant name:weight:inflight[:bytes]]...\n"
      "                [--default-weight W] [--default-inflight N]\n"
      "                [--timeline-out FILE] [--sample-interval-ms N]\n"
      "                [--version] [--help]\n");
}

bool ParseTenantSpec(const std::string& spec, std::string* name,
                     TenantQuota* quota) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.size() < 3 || parts.size() > 4 || parts[0].empty()) return false;
  *name = parts[0];
  quota->weight = std::strtod(parts[1].c_str(), nullptr);
  quota->max_in_flight =
      static_cast<uint32_t>(std::strtoul(parts[2].c_str(), nullptr, 10));
  quota->max_bytes_in_flight =
      parts.size() == 4 ? std::strtoull(parts[3].c_str(), nullptr, 10) : 0;
  return quota->weight > 0 && quota->max_in_flight > 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  uint64_t block_kb = 64;
  uint64_t memory_mb = 64;
  uint64_t executors = 2;
  uint64_t queue_depth = 64;
  uint64_t retry_after_ms = 50;
  uint64_t cache_blocks = 0;
  uint64_t threads = 0;
  std::string scratch_dir;
  std::string timeline_out_path;
  uint64_t sample_interval_ms = 0;
  double default_weight = 1.0;
  uint64_t default_inflight = 2;
  std::map<std::string, TenantQuota> tenant_quotas;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(stderr);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      socket_path = next();
    } else if (arg == "--block-kb") {
      block_kb = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--memory-mb") {
      memory_mb = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--executors") {
      executors = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--queue-depth") {
      queue_depth = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--retry-after-ms") {
      retry_after_ms = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--cache-blocks") {
      cache_blocks = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--threads") {
      threads = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--scratch-dir") {
      scratch_dir = next();
    } else if (arg == "--tenant") {
      std::string name;
      TenantQuota quota;
      if (!ParseTenantSpec(next(), &name, &quota)) {
        std::fprintf(stderr,
                     "bad --tenant spec (want name:weight:inflight"
                     "[:bytes])\n");
        return 2;
      }
      tenant_quotas[name] = quota;
    } else if (arg == "--default-weight") {
      default_weight = std::strtod(next(), nullptr);
    } else if (arg == "--default-inflight") {
      default_inflight = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--timeline-out") {
      timeline_out_path = next();
    } else if (arg == "--sample-interval-ms") {
      sample_interval_ms = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--version") {
      std::printf("%s (wire %s)\n", kVersion,
                  std::string(kWireSchema).c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return 0;
    } else {
      Usage(stderr);
      return 2;
    }
  }
  if (socket_path.empty()) {
    Usage(stderr);
    return 2;
  }
  if (!timeline_out_path.empty() && sample_interval_ms == 0) {
    sample_interval_ms = 10;
  }

  size_t block_size = static_cast<size_t>(block_kb) * 1024;
  uint64_t memory_blocks = memory_mb * 1024 * 1024 / block_size;

  ServiceOptions options;
  options.env.block_size = block_size;
  options.env.memory_blocks = memory_blocks;
  options.env.cache = {.frames = cache_blocks};
  options.env.parallel.threads = static_cast<uint32_t>(threads);
  options.env.sample_interval_ms = static_cast<uint32_t>(sample_interval_ms);
  options.executors = static_cast<uint32_t>(executors);
  options.max_queue_depth = queue_depth;
  options.retry_after_ms = retry_after_ms;
  options.default_quota.weight = default_weight;
  options.default_quota.max_in_flight =
      static_cast<uint32_t>(default_inflight);
  options.tenant_quotas = std::move(tenant_quotas);
  options.scratch_dir = scratch_dir;
  options.instance = static_cast<uint64_t>(::getpid());

  auto service_or = SortService::Create(std::move(options));
  if (!service_or.ok()) {
    std::fprintf(stderr, "nexsortd: %s\n",
                 service_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<SortService> service = std::move(service_or).value();

  if (!timeline_out_path.empty()) {
    JsonWriter env_json;
    service->env()->DescribeJson(&env_json);
    auto sink_or = FileTimelineSink::Open(
        timeline_out_path, std::move(env_json).Take(),
        static_cast<uint32_t>(sample_interval_ms));
    if (!sink_or.ok()) {
      std::fprintf(stderr, "nexsortd: cannot open %s: %s\n",
                   timeline_out_path.c_str(),
                   sink_or.status().ToString().c_str());
      return 1;
    }
    service->env()->telemetry()->AddSink(std::move(sink_or).value());
  }

  auto server_or = SocketServer::Start(service.get(), socket_path);
  if (!server_or.ok()) {
    std::fprintf(stderr, "nexsortd: %s\n",
                 server_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<SocketServer> server = std::move(server_or).value();

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "nexsortd: pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  std::fprintf(stderr,
               "nexsortd: listening on %s (%llu executors, %llu-block "
               "grant, %llu orphaned scratch files swept)\n",
               socket_path.c_str(),
               static_cast<unsigned long long>(executors),
               static_cast<unsigned long long>(service->grant_blocks()),
               static_cast<unsigned long long>(service->swept_orphans()));

  // The wire `shutdown` op lands on a server thread; funnel it into the
  // same pipe the signal handler uses so main has one thing to wait on.
  std::thread wire_watcher([&] {
    if (server->WaitForShutdownRequest()) OnSignal(0);
  });

  char byte;
  while (::read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }

  std::fprintf(stderr, "nexsortd: shutting down\n");
  // Cancel first so connection threads blocked in wait ops see their jobs
  // go terminal and drain before the server joins them.
  service->Shutdown(/*cancel_inflight=*/true);
  server->Stop();
  wire_watcher.join();
  if (service->env()->telemetry() != nullptr) {
    service->env()->telemetry()->StopSampler();
  }
  service.reset();  // flushes sinks and removes staged scratch
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);
  std::fprintf(stderr, "nexsortd: bye\n");
  return 0;
}
