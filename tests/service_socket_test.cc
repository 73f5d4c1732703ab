// End-to-end `nexsortd-wire-v1` over a real unix-domain socket: an
// in-process SortService wrapped by SocketServer, driven through
// ServiceClient exactly as nexsortctl drives the daemon. The headline
// assertion: N concurrent sort jobs through the service come back
// byte-identical to direct solo NexSorter runs.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/nexsort.h"
#include "core/order_spec_parse.h"
#include "env/sort_env.h"
#include "extmem/stream.h"
#include "obs/json_writer.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"
#include "tests/test_util.h"

namespace nexsort {
namespace {

using ::nexsort::testing::Env;

class ServiceSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ =
        (std::filesystem::temp_directory_path() /
         ("nexsortd_test_" + std::to_string(::getpid()) + ".sock"))
            .string();
    ServiceOptions options;
    options.env.block_size = 1024;
    options.env.memory_blocks = 72;
    options.executors = 3;
    options.scratch_dir = scratch_dir_;
    auto service = SortService::Create(std::move(options));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service_ = std::move(service).value();
    auto server = SocketServer::Start(service_.get(), socket_path_);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  void TearDown() override {
    server_.reset();
    service_.reset();
    EXPECT_FALSE(std::filesystem::exists(socket_path_))
        << "Stop() must remove the socket file";
  }

  StatusOr<JsonValue> Call(std::string_view request) {
    auto client = ServiceClient::Connect(socket_path_);
    if (!client.ok()) return client.status();
    return client.value()->Call(request);
  }

  std::string scratch_dir_;  // set before SetUp for path-output jobs
  std::string socket_path_;
  std::unique_ptr<SortService> service_;
  std::unique_ptr<SocketServer> server_;
};

std::string ShuffledDoc(int count, int stride) {
  // A deterministic permutation: ids hop by `stride` modulo count, so
  // every document is distinct and none arrives sorted.
  std::string xml = "<list>";
  for (int i = 0; i < count; ++i) {
    int id = (i * stride + 7) % count;
    xml += "<item id=\"" + std::to_string(id) +
           "\"><v>payload-" + std::to_string(id) + "</v></item>";
  }
  xml += "</list>";
  return xml;
}

std::string SubmitRequest(const std::string& xml, const std::string& tenant,
                          bool wait, bool return_output) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("op");
  writer.String("submit");
  writer.Key("kind");
  writer.String("sort");
  writer.Key("tenant");
  writer.String(tenant);
  writer.Key("order");
  writer.String("item:attr(id)n");
  writer.Key("input_text");
  writer.String(xml);
  if (wait) {
    writer.Key("wait");
    writer.Bool(true);
  }
  if (return_output) {
    writer.Key("return_output");
    writer.Bool(true);
  }
  writer.EndObject();
  return std::move(writer).Take();
}

TEST_F(ServiceSocketTest, PingReportsSchema) {
  auto response = Call(R"({"op":"ping"})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response.value().GetBool("ok"));
  EXPECT_EQ(response.value().GetString("schema"), kWireSchema);
}

TEST_F(ServiceSocketTest, MalformedAndUnknownRequestsAreErrors) {
  auto bad_json = Call("this is not json");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_FALSE(bad_json.value().GetBool("ok", true));
  EXPECT_FALSE(bad_json.value().GetString("error").empty());

  auto bad_op = Call(R"({"op":"frobnicate"})");
  ASSERT_TRUE(bad_op.ok());
  EXPECT_FALSE(bad_op.value().GetBool("ok", true));

  auto bad_job = Call(R"({"op":"status"})");
  ASSERT_TRUE(bad_job.ok());
  EXPECT_FALSE(bad_job.value().GetBool("ok", true));

  auto unknown_job = Call(R"({"op":"status","job":424242})");
  ASSERT_TRUE(unknown_job.ok());
  EXPECT_FALSE(unknown_job.value().GetBool("ok", true));
}

TEST_F(ServiceSocketTest, ConcurrentJobsAreByteIdenticalToSoloRuns) {
  constexpr int kJobs = 6;
  std::vector<std::string> documents;
  documents.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    documents.push_back(ShuffledDoc(120 + 15 * i, 11 + 2 * i));
  }

  // One connection per thread, all submitting with wait+return_output so
  // the responses carry the sorted documents.
  std::vector<std::string> outputs(kJobs);
  std::vector<std::string> errors(kJobs);
  std::vector<std::thread> clients;
  clients.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    clients.emplace_back([this, &documents, &outputs, &errors, i] {
      auto client = ServiceClient::Connect(socket_path_);
      if (!client.ok()) {
        errors[i] = client.status().ToString();
        return;
      }
      auto response = client.value()->Call(
          SubmitRequest(documents[i], "tenant-" + std::to_string(i % 3),
                        /*wait=*/true, /*return_output=*/true));
      if (!response.ok()) {
        errors[i] = response.status().ToString();
        return;
      }
      if (!response.value().GetBool("ok")) {
        errors[i] = response.value().GetString("error", "server error");
        return;
      }
      const JsonValue* job = response.value().Find("job");
      if (job == nullptr || job->GetString("state") != "done") {
        errors[i] = "job not done: " +
                    (job != nullptr ? job->GetString("error") : "no record");
        return;
      }
      outputs[i] = response.value().GetString("output");
    });
  }
  for (std::thread& thread : clients) thread.join();

  const SortEnvOptions& service_env = service_->env()->options();
  auto spec = ParseOrderSpec("item:attr(id)n");
  ASSERT_TRUE(spec.ok());
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_TRUE(errors[i].empty()) << "job " << i << ": " << errors[i];
    // Solo reference run: fresh env, same block size / budget / pinned
    // sort memory as the shared service env.
    SortEnvOptions solo;
    solo.block_size = service_env.block_size;
    solo.memory_blocks = service_env.memory_blocks;
    solo.sort_memory_blocks = service_env.sort_memory_blocks;
    Env env(solo);
    NexSortOptions sort_options;
    sort_options.order = *spec;
    NexSorter sorter(env.get(), sort_options);
    StringByteSource source(documents[i]);
    std::string expected;
    StringByteSink sink(&expected);
    NEX_ASSERT_OK(sorter.Sort(&source, &sink));
    EXPECT_EQ(outputs[i], expected) << "job " << i << " diverged";
  }

  // Stats over the same wire: every job accounted, queue drained.
  auto stats = Call(R"({"op":"stats"})");
  ASSERT_TRUE(stats.ok());
  const JsonValue* doc = stats.value().Find("stats");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->GetString("schema"), "nexsortd-stats-v1");
  const JsonValue* queue = doc->Find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->GetUint("dispatched"), static_cast<uint64_t>(kJobs));
  EXPECT_EQ(queue->GetUint("depth"), 0u);
  const JsonValue* sessions = doc->Find("sessions");
  ASSERT_NE(sessions, nullptr);
  EXPECT_GE(sessions->array_items().size(), static_cast<size_t>(kJobs));
}

TEST_F(ServiceSocketTest, StatusWaitAndCancelRoundTrip) {
  auto submit = Call(SubmitRequest(ShuffledDoc(60, 13), "default",
                                   /*wait=*/false, /*return_output=*/false));
  ASSERT_TRUE(submit.ok()) << submit.status().ToString();
  ASSERT_TRUE(submit.value().GetBool("ok"))
      << submit.value().GetString("error");
  const JsonValue* record = submit.value().Find("job");
  ASSERT_NE(record, nullptr);
  uint64_t job_id = record->GetUint("id");
  ASSERT_GT(job_id, 0u);

  auto wait = Call(R"({"op":"wait","job":)" + std::to_string(job_id) + "}");
  ASSERT_TRUE(wait.ok());
  ASSERT_TRUE(wait.value().GetBool("ok"));
  EXPECT_EQ(wait.value().Find("job")->GetString("state"), "done");

  // Cancel on a terminal job: idempotent, state unchanged.
  auto cancel =
      Call(R"({"op":"cancel","job":)" + std::to_string(job_id) + "}");
  ASSERT_TRUE(cancel.ok());
  EXPECT_TRUE(cancel.value().GetBool("ok"));
  EXPECT_EQ(cancel.value().Find("job")->GetString("state"), "done");

  auto jobs = Call(R"({"op":"jobs"})");
  ASSERT_TRUE(jobs.ok());
  const JsonValue* list = jobs.value().Find("jobs");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->array_items().size(), 1u);
}

TEST_F(ServiceSocketTest, ShutdownOpSignalsTheDaemonLoop) {
  EXPECT_FALSE(server_->shutdown_requested());
  auto response = Call(R"({"op":"shutdown"})");
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().GetBool("ok"));
  EXPECT_TRUE(server_->shutdown_requested());
  EXPECT_TRUE(server_->WaitForShutdownRequest()) << "returns without block";
}

// Path jobs: the daemon streams `input_path` / `input_paths` from their
// files when the job runs and streams the result into a staging file in
// its scratch namespace, renamed onto `output` on success.
class ServiceSocketPathJobTest : public ServiceSocketTest {
 protected:
  ServiceSocketPathJobTest() {
    dir_ = std::filesystem::temp_directory_path() /
           ("nexsortd_path_jobs_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    scratch_dir_ = (dir_ / "scratch").string();
  }
  ~ServiceSocketPathJobTest() override { std::filesystem::remove_all(dir_); }

  std::string WriteFile(const std::string& name, const std::string& text) {
    std::string path = (dir_ / name).string();
    std::ofstream(path, std::ios::binary) << text;
    return path;
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  std::filesystem::path dir_;
};

TEST_F(ServiceSocketPathJobTest, SortWithInputPathAndOutputMatchesDirectRun) {
  const std::string xml = ShuffledDoc(500, 17);
  const std::string input = WriteFile("in.xml", xml);
  const std::string output = (dir_ / "out.xml").string();
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("op");
  writer.String("submit");
  writer.Key("order");
  writer.String("item:attr(id)n");
  writer.Key("input_path");
  writer.String(input);
  writer.Key("output");
  writer.String(output);
  writer.Key("wait");
  writer.Bool(true);
  writer.EndObject();
  auto response = Call(std::move(writer).Take());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response.value().GetBool("ok"))
      << response.value().GetString("error");
  const JsonValue* job = response.value().Find("job");
  ASSERT_NE(job, nullptr);
  ASSERT_EQ(job->GetString("state"), "done") << job->GetString("error");

  const SortEnvOptions& service_env = service_->env()->options();
  SortEnvOptions solo;
  solo.block_size = service_env.block_size;
  solo.memory_blocks = service_env.memory_blocks;
  solo.sort_memory_blocks = service_env.sort_memory_blocks;
  Env env(solo);
  auto spec = ParseOrderSpec("item:attr(id)n");
  ASSERT_TRUE(spec.ok());
  NexSortOptions sort_options;
  sort_options.order = *spec;
  NexSorter sorter(env.get(), sort_options);
  StringByteSource source(xml);
  std::string expected;
  StringByteSink sink(&expected);
  NEX_ASSERT_OK(sorter.Sort(&source, &sink));

  EXPECT_EQ(ReadFile(output), expected);
  EXPECT_EQ(job->GetUint("input_bytes"), xml.size());
  EXPECT_EQ(job->GetUint("output_bytes"), expected.size());
  EXPECT_NE(job->Find("time_to_first_byte_ms"), nullptr);
  // The staging file was renamed away: only the env's device file remains.
  size_t staged = 0;
  for (const auto& entry : std::filesystem::directory_iterator(scratch_dir_)) {
    staged += entry.path().string().find("-out.") != std::string::npos;
  }
  EXPECT_EQ(staged, 0u);
}

TEST_F(ServiceSocketPathJobTest, MergeWithInputPathsMatchesInlineInputs) {
  const std::vector<std::string> docs = {
      R"(<l><e id="1"/><e id="3"><a>x</a></e><e id="5"/></l>)",
      R"(<l><e id="2"/><e id="3"><b>y</b></e><e id="6"/></l>)"};
  auto merge = [&](const char* key, const std::vector<std::string>& items) {
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("op");
    writer.String("submit");
    writer.Key("kind");
    writer.String("merge");
    writer.Key("order");
    writer.String("*:attr(id)n");
    writer.Key(key);
    writer.BeginArray();
    for (const std::string& item : items) writer.String(item);
    writer.EndArray();
    writer.Key("wait");
    writer.Bool(true);
    writer.Key("return_output");
    writer.Bool(true);
    writer.EndObject();
    auto response = Call(std::move(writer).Take());
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok()) return std::string();
    EXPECT_TRUE(response.value().GetBool("ok"))
        << response.value().GetString("error");
    const JsonValue* job = response.value().Find("job");
    EXPECT_TRUE(job != nullptr && job->GetString("state") == "done");
    return response.value().GetString("output");
  };
  const std::string inline_output = merge("input_texts", docs);
  const std::string path_output =
      merge("input_paths", {WriteFile("a.xml", docs[0]),
                            WriteFile("b.xml", docs[1])});
  EXPECT_FALSE(inline_output.empty());
  EXPECT_EQ(path_output, inline_output);
}

TEST_F(ServiceSocketPathJobTest, MissingInputPathFailsAtSubmit) {
  const std::string missing = (dir_ / "missing.xml").string();
  const std::string expected =
      Status::IOError("cannot open " + missing).ToString();
  for (const std::string& field :
       {R"("input_path":")" + missing + R"(")",
        R"("kind":"merge","input_paths":[")" + missing + R"("])"}) {
    auto response = Call(R"({"op":"submit",)" + field + "}");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response.value().GetBool("ok", true));
    EXPECT_EQ(response.value().GetString("error"), expected);
  }
  auto jobs = Call(R"({"op":"jobs"})");
  ASSERT_TRUE(jobs.ok());
  EXPECT_TRUE(jobs.value().Find("jobs")->array_items().empty());
}

}  // namespace
}  // namespace nexsort
