// nexsortctl: command-line client for the nexsortd daemon
// (docs/SERVICE.md). Speaks `nexsortd-wire-v1` over the daemon's
// unix-domain socket: one JSON request per line, one JSON response back.
//
//   nexsortctl --socket PATH <command> [args]
//
//   ping                     check the daemon is alive (prints the schema)
//   submit [options]         queue a job; prints the job record
//     --kind K               sort | merge | batch_update (default sort)
//     --tenant NAME          tenant to bill the job to (default "default")
//     --priority P           higher dispatches first within the tenant
//     --order SPEC           ordering spec (core/order_spec_parse.h)
//     --input FILE           input document (sort / batch_update base);
//                            read here and sent inline
//     --input-path FILE      same, but the daemon streams it from the file
//                            when the job runs (shared host; the file must
//                            exist until then)
//     --inputs F1,F2,...     merge inputs, read here, merge order
//     --updates FILE         batch_update updates document
//     --output FILE          daemon streams into a staging file and
//                            atomically renames it here
//     --print                wait and print the result document to stdout
//     --wait                 block until the job is terminal
//   status --job ID          one job record
//   wait --job ID            block until terminal, print the record
//   cancel --job ID          cancel (queued: immediate; running: next
//                            block boundary)
//   jobs                     every job record the daemon remembers
//   stats                    the nexsortd-stats-v1 document (env, live
//                            sessions, queue, admission, tenants, jobs)
//   shutdown                 ask the daemon to exit cleanly
//   --version / --help
//
// Exit status: 0 ok; 1 transport/daemon error; 3 the awaited job failed
// or was cancelled.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "extmem/stream.h"
#include "obs/json_writer.h"
#include "service/client.h"
#include "service/server.h"

using namespace nexsort;

namespace {

constexpr const char* kVersion = "nexsortctl 1.0.0";

void Usage(FILE* out) {
  std::fprintf(
      out,
      "usage: nexsortctl --socket PATH <command> [args]\n"
      "  ping | jobs | stats | shutdown\n"
      "  submit [--kind sort|merge|batch_update] [--tenant NAME]\n"
      "         [--priority P] [--order SPEC] [--input FILE]\n"
      "         [--input-path FILE] [--inputs F1,F2,...] [--updates FILE]\n"
      "         [--output FILE] [--print] [--wait]\n"
      "  status --job ID | wait --job ID | cancel --job ID\n");
}

bool ReadFileOrDie(const std::string& path, std::string* out) {
  Status read = ReadFile(path, out);
  if (!read.ok()) {
    std::fprintf(stderr, "nexsortctl: %s\n", read.ToString().c_str());
  }
  return read.ok();
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

int RoundTrip(const std::string& socket_path, const std::string& request,
              JsonValue* response) {
  auto client = ServiceClient::Connect(socket_path);
  if (!client.ok()) {
    std::fprintf(stderr, "nexsortctl: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  auto reply = client.value()->Call(request);
  if (!reply.ok()) {
    std::fprintf(stderr, "nexsortctl: %s\n",
                 reply.status().ToString().c_str());
    return 1;
  }
  Status ok = ResponseStatus(reply.value());
  if (!ok.ok()) {
    std::fprintf(stderr, "nexsortctl: daemon: %s\n",
                 ok.ToString().c_str());
    const JsonValue* retry = reply.value().Find("retry_after_ms");
    if (retry != nullptr && retry->is_number()) {
      std::fprintf(stderr, "nexsortctl: retry after %.0f ms\n",
                   retry->number_value());
    }
    return 1;
  }
  *response = std::move(reply).value();
  return 0;
}

/// Re-serialize one job record for human eyes (stable key order).
void PrintJob(const JsonValue& job) {
  std::printf(
      "job %llu  %-12s %-9s tenant=%s priority=%lld",
      static_cast<unsigned long long>(job.GetUint("id")),
      job.GetString("kind", "?").c_str(),
      job.GetString("state", "?").c_str(),
      job.GetString("tenant", "?").c_str(),
      static_cast<long long>(job.GetInt("priority")));
  const JsonValue* ttfb = job.Find("time_to_first_byte_ms");
  if (ttfb != nullptr && ttfb->is_number()) {
    std::printf("  ttfb=%.1fms", ttfb->number_value());
  }
  std::string error = job.GetString("error");
  if (!error.empty()) std::printf("  error=%s", error.c_str());
  std::printf("\n");
}

int JobExitCode(const JsonValue& job) {
  std::string state = job.GetString("state");
  if (state == "failed" || state == "cancelled") return 3;
  return 0;
}

int SimpleJobOp(const std::string& socket_path, const std::string& op,
                uint64_t job_id, bool exit_by_state) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("op");
  writer.String(op);
  writer.Key("job");
  writer.Uint(job_id);
  writer.EndObject();
  JsonValue response;
  int rc = RoundTrip(socket_path, std::move(writer).Take(), &response);
  if (rc != 0) return rc;
  const JsonValue* job = response.Find("job");
  if (job != nullptr) {
    PrintJob(*job);
    if (exit_by_state) return JobExitCode(*job);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string command;
  std::vector<std::string> rest;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      socket_path = argv[++i];
    } else if (arg == "--version") {
      std::printf("%s (wire %s)\n", kVersion,
                  std::string(kWireSchema).c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return 0;
    } else if (command.empty() && arg.rfind("--", 0) != 0) {
      command = arg;
    } else {
      rest.push_back(arg);
    }
  }
  if (socket_path.empty() || command.empty()) {
    Usage(stderr);
    return 2;
  }

  auto rest_value = [&](size_t i) -> const char* {
    if (i + 1 >= rest.size()) {
      Usage(stderr);
      std::exit(2);
    }
    return rest[++i].c_str();
  };
  (void)rest_value;

  if (command == "ping" || command == "jobs" || command == "stats" ||
      command == "shutdown") {
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("op");
    writer.String(command);
    writer.EndObject();
    JsonValue response;
    int rc = RoundTrip(socket_path, std::move(writer).Take(), &response);
    if (rc != 0) return rc;
    if (command == "ping") {
      std::printf("ok (%s)\n", response.GetString("schema", "?").c_str());
    } else if (command == "shutdown") {
      std::printf("daemon stopping\n");
    } else if (command == "stats") {
      const JsonValue* stats = response.Find("stats");
      std::printf("%s\n",
                  stats != nullptr ? stats->ToJsonString().c_str() : "{}");
    } else {
      const JsonValue* jobs = response.Find("jobs");
      if (jobs != nullptr && jobs->is_array()) {
        for (const JsonValue& job : jobs->array_items()) PrintJob(job);
      }
    }
    return 0;
  }

  if (command == "status" || command == "wait" || command == "cancel") {
    uint64_t job_id = 0;
    bool have_id = false;
    for (size_t i = 0; i < rest.size(); ++i) {
      if (rest[i] == "--job" && i + 1 < rest.size()) {
        job_id = std::strtoull(rest[++i].c_str(), nullptr, 10);
        have_id = true;
      }
    }
    if (!have_id) {
      Usage(stderr);
      return 2;
    }
    return SimpleJobOp(socket_path, command, job_id,
                       /*exit_by_state=*/command == "wait");
  }

  if (command != "submit") {
    Usage(stderr);
    return 2;
  }

  std::string kind = "sort";
  std::string tenant;
  long long priority = 0;
  bool have_priority = false;
  std::string order;
  std::string input_text;
  bool have_input_text = false;
  std::string input_path;
  std::vector<std::string> input_texts;
  std::string updates_text;
  bool have_updates = false;
  std::string output_path;
  bool print_result = false;
  bool wait = false;

  for (size_t i = 0; i < rest.size(); ++i) {
    const std::string& arg = rest[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= rest.size()) {
        Usage(stderr);
        std::exit(2);
      }
      return rest[++i].c_str();
    };
    if (arg == "--kind") {
      kind = next();
    } else if (arg == "--tenant") {
      tenant = next();
    } else if (arg == "--priority") {
      priority = std::strtoll(next(), nullptr, 10);
      have_priority = true;
    } else if (arg == "--order") {
      order = next();
    } else if (arg == "--input") {
      if (!ReadFileOrDie(next(), &input_text)) return 1;
      have_input_text = true;
    } else if (arg == "--input-path") {
      input_path = next();
    } else if (arg == "--inputs") {
      for (const std::string& path : SplitCommas(next())) {
        std::string text;
        if (!ReadFileOrDie(path, &text)) return 1;
        input_texts.push_back(std::move(text));
      }
    } else if (arg == "--updates") {
      if (!ReadFileOrDie(next(), &updates_text)) return 1;
      have_updates = true;
    } else if (arg == "--output") {
      output_path = next();
    } else if (arg == "--print") {
      print_result = true;
      wait = true;
    } else if (arg == "--wait") {
      wait = true;
    } else {
      Usage(stderr);
      return 2;
    }
  }

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("op");
  writer.String("submit");
  writer.Key("kind");
  writer.String(kind);
  if (!tenant.empty()) {
    writer.Key("tenant");
    writer.String(tenant);
  }
  if (have_priority) {
    writer.Key("priority");
    writer.Int(priority);
  }
  if (!order.empty()) {
    writer.Key("order");
    writer.String(order);
  }
  if (have_input_text) {
    writer.Key("input_text");
    writer.String(input_text);
  }
  if (!input_path.empty()) {
    writer.Key("input_path");
    writer.String(input_path);
  }
  if (!input_texts.empty()) {
    writer.Key("input_texts");
    writer.BeginArray();
    for (const std::string& text : input_texts) writer.String(text);
    writer.EndArray();
  }
  if (have_updates) {
    writer.Key("updates_text");
    writer.String(updates_text);
  }
  if (!output_path.empty()) {
    writer.Key("output");
    writer.String(output_path);
  }
  if (print_result) {
    writer.Key("return_output");
    writer.Bool(true);
  }
  if (wait) {
    writer.Key("wait");
    writer.Bool(true);
  }
  writer.EndObject();

  JsonValue response;
  int rc = RoundTrip(socket_path, std::move(writer).Take(), &response);
  if (rc != 0) return rc;
  const JsonValue* job = response.Find("job");
  if (job == nullptr) {
    std::fprintf(stderr, "nexsortctl: malformed response\n");
    return 1;
  }
  if (print_result) {
    const JsonValue* output = response.Find("output");
    if (output != nullptr && output->is_string()) {
      std::fwrite(output->string_value().data(), 1,
                  output->string_value().size(), stdout);
      return JobExitCode(*job);
    }
  }
  PrintJob(*job);
  return wait ? JobExitCode(*job) : 0;
}
