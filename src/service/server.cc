#include "service/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "extmem/stream.h"
#include "obs/json_writer.h"
#include "service/wire.h"

namespace nexsort {

namespace {

std::string ErrorResponse(const Status& status,
                          uint64_t retry_after_ms = 0) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("ok");
  writer.Bool(false);
  writer.Key("error");
  writer.String(status.ToString());
  if (retry_after_ms > 0) {
    writer.Key("retry_after_ms");
    writer.Uint(retry_after_ms);
  }
  writer.EndObject();
  return std::move(writer).Take();
}

std::string JobResponse(const JobStatus& status, const std::string* output) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("ok");
  writer.Bool(true);
  writer.Key("job");
  status.ToJson(&writer);
  if (output != nullptr) {
    writer.Key("output");
    writer.String(*output);
  }
  writer.EndObject();
  return std::move(writer).Take();
}

/// Send all of `data`, tolerating partial writes. A dead peer surfaces as
/// EPIPE (signal suppressed via MSG_NOSIGNAL), which the caller treats as
/// disconnect.
bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

StatusOr<std::unique_ptr<SocketServer>> SocketServer::Start(
    SortService* service, std::string socket_path) {
  if (socket_path.empty()) {
    return Status::InvalidArgument("socket path must be non-empty");
  }
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  // A previous instance that crashed leaves its socket file behind; the
  // bind would fail on it forever. Unlinking is safe — a *live* instance
  // would still hold the listening fd, but two daemons on one path is an
  // operator error the runbook covers, not something we can detect here.
  ::unlink(socket_path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status =
        Status::IOError("bind " + socket_path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) != 0) {
    Status status = Status::IOError("listen " + socket_path + ": " +
                                    std::strerror(errno));
    ::close(fd);
    return status;
  }
  std::unique_ptr<SocketServer> server(
      new SocketServer(service, std::move(socket_path), fd));
  server->accept_thread_ = std::thread([raw = server.get()] {
    raw->AcceptLoop();
  });
  return server;
}

SocketServer::SocketServer(SortService* service, std::string socket_path,
                           int listen_fd)
    : service_(service),
      socket_path_(std::move(socket_path)),
      listen_fd_(listen_fd) {}

SocketServer::~SocketServer() { Stop(); }

void SocketServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Second caller: the first is (or was) tearing down; just join.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // Unblock accept(); connection reads unblock via per-fd shutdown below.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    MutexLock guard(&lock_);
    for (int fd : connection_fds_) ::shutdown(fd, SHUT_RDWR);
    shutdown_cv_.SignalAll();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> threads;
  {
    MutexLock guard(&lock_);
    threads.swap(connection_threads_);
  }
  for (std::thread& thread : threads) {
    if (thread.joinable()) thread.join();
  }
  ::close(listen_fd_);
  ::unlink(socket_path_.c_str());
}

bool SocketServer::WaitForShutdownRequest() {
  MutexLock guard(&lock_);
  while (!shutdown_requested_.load(std::memory_order_acquire) &&
         !stopping_.load(std::memory_order_acquire)) {
    shutdown_cv_.Wait(&lock_);
  }
  return shutdown_requested_.load(std::memory_order_acquire);
}

void SocketServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down
    }
    MutexLock guard(&lock_);
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void SocketServer::ServeConnection(int fd) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    size_t newline = buffer.find('\n');
    if (newline == std::string::npos) {
      ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // peer closed or server shutting down
      buffer.append(chunk, static_cast<size_t>(n));
      continue;
    }
    std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (line.empty()) continue;
    std::string response = HandleLine(line);
    response.push_back('\n');
    if (!SendAll(fd, response)) break;
  }
  ::close(fd);
}

std::string SocketServer::HandleLine(std::string_view line) {
  auto parsed = JsonValue::Parse(line);
  if (!parsed.ok()) return ErrorResponse(parsed.status());
  const JsonValue& request = parsed.value();
  std::string op = request.GetString("op");

  if (op == "ping") {
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("ok");
    writer.Bool(true);
    writer.Key("schema");
    writer.String(kWireSchema);
    writer.EndObject();
    return std::move(writer).Take();
  }

  if (op == "submit") return HandleSubmit(request);

  if (op == "status" || op == "wait" || op == "cancel") {
    const JsonValue* job = request.Find("job");
    if (job == nullptr || !job->is_number()) {
      return ErrorResponse(
          Status::InvalidArgument(op + " needs a numeric \"job\""));
    }
    uint64_t id = static_cast<uint64_t>(job->number_value());
    if (op == "cancel") {
      Status cancelled = service_->Cancel(id);
      if (!cancelled.ok()) return ErrorResponse(cancelled);
      auto status = service_->GetJob(id);
      if (!status.ok()) return ErrorResponse(status.status());
      return JobResponse(status.value(), nullptr);
    }
    auto status = op == "wait" ? service_->Wait(id) : service_->GetJob(id);
    if (!status.ok()) return ErrorResponse(status.status());
    return JobResponse(status.value(), nullptr);
  }

  if (op == "jobs") {
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("ok");
    writer.Bool(true);
    writer.Key("jobs");
    writer.BeginArray();
    for (const JobStatus& job : service_->ListJobs()) {
      job.ToJson(&writer);
    }
    writer.EndArray();
    writer.EndObject();
    return std::move(writer).Take();
  }

  if (op == "stats") {
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("ok");
    writer.Bool(true);
    writer.Key("stats");
    writer.Raw(service_->StatsJson());
    writer.EndObject();
    return std::move(writer).Take();
  }

  if (op == "shutdown") {
    shutdown_requested_.store(true, std::memory_order_release);
    {
      MutexLock guard(&lock_);
      shutdown_cv_.SignalAll();
    }
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("ok");
    writer.Bool(true);
    writer.Key("stopping");
    writer.Bool(true);
    writer.EndObject();
    return std::move(writer).Take();
  }

  return ErrorResponse(Status::InvalidArgument("unknown op \"" + op + "\""));
}

std::string SocketServer::HandleSubmit(const JsonValue& request) {
  JobRequest job;
  std::string kind = request.GetString("kind", "sort");
  if (kind == "sort") {
    job.kind = JobRequest::Kind::kSort;
  } else if (kind == "merge") {
    job.kind = JobRequest::Kind::kMerge;
  } else if (kind == "batch_update") {
    job.kind = JobRequest::Kind::kBatchUpdate;
  } else {
    return ErrorResponse(
        Status::InvalidArgument("unknown job kind \"" + kind + "\""));
  }
  job.tenant = request.GetString("tenant", "default");
  job.priority = static_cast<int32_t>(request.GetInt("priority", 0));
  job.order_text = request.GetString("order");
  job.output_path = request.GetString("output");
  job.return_output = request.GetBool("return_output", false);

  // Input files are only checked at submit (SortService::Submit opens
  // them for their sizes); the job streams them when it runs.
  job.input_text = request.GetString("input_text");
  job.input_path = request.GetString("input_path");
  for (auto [key, out] : {std::pair{"input_texts", &job.input_texts},
                           std::pair{"input_paths", &job.input_paths}}) {
    const JsonValue* items = request.Find(key);
    if (items == nullptr || !items->is_array()) continue;
    for (const JsonValue& item : items->array_items()) {
      if (!item.is_string()) {
        return ErrorResponse(Status::InvalidArgument(
            std::string(key) + " must be strings"));
      }
      out->push_back(item.string_value());
    }
  }
  job.updates_text = request.GetString("updates_text");
  std::string updates_path = request.GetString("updates_path");
  if (!updates_path.empty()) {
    Status read = ReadFile(updates_path, &job.updates_text);
    if (!read.ok()) return ErrorResponse(read);
  }

  bool wait = request.GetBool("wait", false);
  bool want_inline = wait && job.return_output;

  uint64_t job_id = 0;
  uint64_t retry_after_ms = 0;
  Status submitted = service_->Submit(std::move(job), &job_id,
                                      &retry_after_ms);
  if (!submitted.ok()) return ErrorResponse(submitted, retry_after_ms);

  if (!wait) {
    auto status = service_->GetJob(job_id);
    if (!status.ok()) return ErrorResponse(status.status());
    return JobResponse(status.value(), nullptr);
  }
  auto status = service_->Wait(job_id);
  if (!status.ok()) return ErrorResponse(status.status());
  if (want_inline && status.value().state == JobStatus::State::kDone) {
    auto output = service_->TakeOutput(job_id);
    if (!output.ok()) return ErrorResponse(output.status());
    return JobResponse(status.value(), &output.value());
  }
  return JobResponse(status.value(), nullptr);
}

}  // namespace nexsort
