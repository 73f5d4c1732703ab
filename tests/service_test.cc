// The nexsortd service layer, minus the socket (service_socket_test.cc):
// wire parsing, the deterministic scheduler/admission pair, crash-safe
// scratch hygiene, session cancellation, and the in-process SortService
// end to end.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/nexsort.h"
#include "core/order_spec_parse.h"
#include "env/sort_env.h"
#include "extmem/memory_budget.h"
#include "extmem/run_store.h"
#include "extmem/stream.h"
#include "merge/batch_update.h"
#include "merge/structural_merge.h"
#include "service/scheduler.h"
#include "service/service.h"
#include "service/wire.h"
#include "tests/test_util.h"
#include "util/cancellation.h"

namespace nexsort {
namespace {

using ::nexsort::testing::Env;

// ---------------------------------------------------------------- wire --

TEST(ServiceWire, ParsesScalarsAndContainers) {
  auto parsed = JsonValue::Parse(
      R"({"op":"submit","priority":-3,"ratio":1.5,"flag":true,)"
      R"("none":null,"list":[1,"two",false]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& value = parsed.value();
  EXPECT_EQ(value.GetString("op"), "submit");
  EXPECT_EQ(value.GetInt("priority"), -3);
  EXPECT_DOUBLE_EQ(value.GetDouble("ratio"), 1.5);
  EXPECT_TRUE(value.GetBool("flag"));
  ASSERT_NE(value.Find("none"), nullptr);
  EXPECT_TRUE(value.Find("none")->is_null());
  const JsonValue* list = value.Find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->array_items().size(), 3u);
  EXPECT_EQ(list->array_items()[1].string_value(), "two");
}

TEST(ServiceWire, DecodesEscapesIncludingSurrogatePairs) {
  auto parsed = JsonValue::Parse(
      R"({"s":"a\nb\t\"q\" \u0041 \ud83d\ude00"})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().GetString("s"),
            "a\nb\t\"q\" A \xF0\x9F\x98\x80");
}

TEST(ServiceWire, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":\"unterminated}").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":nul}").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1e}").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"s\":\"\\ud800\"}").ok());  // unpaired
}

TEST(ServiceWire, TypedAccessorsFallBackOnMissingOrMistyped) {
  auto parsed = JsonValue::Parse(R"({"n":3,"s":"x"})");
  ASSERT_TRUE(parsed.ok());
  const JsonValue& value = parsed.value();
  EXPECT_EQ(value.GetString("n", "fb"), "fb");   // number, not string
  EXPECT_EQ(value.GetUint("s", 7), 7u);          // string, not number
  EXPECT_EQ(value.GetUint("missing", 9), 9u);
  EXPECT_TRUE(value.GetBool("missing", true));
}

TEST(ServiceWire, ReserializationRoundTripsByteIdentically) {
  const std::string text =
      R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null},"e":-7})";
  auto first = JsonValue::Parse(text);
  ASSERT_TRUE(first.ok());
  std::string emitted = first.value().ToJsonString();
  auto second = JsonValue::Parse(emitted);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(emitted, second.value().ToJsonString());
  EXPECT_EQ(emitted, text);
}

// ----------------------------------------------------------- scheduler --

QueuedJob Job(uint64_t id, const std::string& tenant, int32_t priority = 0,
              uint64_t bytes = 1) {
  QueuedJob job;
  job.job_id = id;
  job.tenant = tenant;
  job.priority = priority;
  job.bytes = bytes;
  return job;
}

TEST(FairScheduler, FifoWithinOneTenant) {
  FairScheduler scheduler({});
  for (uint64_t id = 1; id <= 3; ++id) {
    NEX_ASSERT_OK(scheduler.Enqueue(Job(id, "a")));
  }
  QueuedJob out;
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(scheduler.PickNext(&out));
    EXPECT_EQ(out.job_id, id);
    scheduler.OnComplete("a", out.bytes);
  }
  EXPECT_FALSE(scheduler.PickNext(&out));
  EXPECT_EQ(scheduler.dispatched(), 3u);
}

TEST(FairScheduler, PriorityBeforeArrivalWithinTenant) {
  FairSchedulerOptions scheduler_options;
  scheduler_options.default_quota.max_in_flight = 10;
  FairScheduler scheduler(scheduler_options);
  NEX_ASSERT_OK(scheduler.Enqueue(Job(1, "a", /*priority=*/0)));
  NEX_ASSERT_OK(scheduler.Enqueue(Job(2, "a", /*priority=*/5)));
  NEX_ASSERT_OK(scheduler.Enqueue(Job(3, "a", /*priority=*/5)));
  QueuedJob out;
  ASSERT_TRUE(scheduler.PickNext(&out));
  EXPECT_EQ(out.job_id, 2u);  // highest priority, earliest arrival
  ASSERT_TRUE(scheduler.PickNext(&out));
  EXPECT_EQ(out.job_id, 3u);
  ASSERT_TRUE(scheduler.PickNext(&out));
  EXPECT_EQ(out.job_id, 1u);
}

TEST(FairScheduler, RejectsBeyondDepthWithRetryHint) {
  FairSchedulerOptions options;
  options.max_queue_depth = 2;
  options.retry_after_ms = 125;
  FairScheduler scheduler(options);
  NEX_ASSERT_OK(scheduler.Enqueue(Job(1, "a")));
  NEX_ASSERT_OK(scheduler.Enqueue(Job(2, "b")));
  uint64_t retry = 0;
  Status rejected = scheduler.Enqueue(Job(3, "c"), &retry);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(retry, 125u);
  EXPECT_EQ(scheduler.rejected(), 1u);
  EXPECT_EQ(scheduler.depth(), 2u);
}

TEST(FairScheduler, WeightedShareIsProportional) {
  FairSchedulerOptions options;
  options.default_quota.max_in_flight = 100;
  FairScheduler scheduler(options);
  TenantQuota heavy = options.default_quota;
  heavy.weight = 2.0;
  scheduler.SetQuota("a", heavy);
  for (uint64_t id = 0; id < 20; ++id) {
    NEX_ASSERT_OK(scheduler.Enqueue(Job(100 + id, "a", 0, /*bytes=*/6)));
    NEX_ASSERT_OK(scheduler.Enqueue(Job(200 + id, "b", 0, /*bytes=*/6)));
  }
  // Every job charges 6 bytes: tenant a's pass advances 3 per dispatch,
  // b's 6 — over any window a receives twice b's dispatches.
  uint64_t from_a = 0;
  QueuedJob out;
  for (int i = 0; i < 18; ++i) {
    ASSERT_TRUE(scheduler.PickNext(&out));
    if (out.tenant == "a") ++from_a;
    scheduler.OnComplete(out.tenant, out.bytes);
  }
  EXPECT_EQ(from_a, 12u);
}

TEST(FairScheduler, LateTenantCannotMonopolizeWithBankedPass) {
  FairSchedulerOptions options;
  options.default_quota.max_in_flight = 100;
  FairScheduler scheduler(options);
  // Tenant a works alone for a while and accumulates pass.
  for (uint64_t id = 0; id < 8; ++id) {
    NEX_ASSERT_OK(scheduler.Enqueue(Job(100 + id, "a", 0, /*bytes=*/10)));
  }
  QueuedJob out;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(scheduler.PickNext(&out));
    EXPECT_EQ(out.tenant, "a");
    scheduler.OnComplete("a", out.bytes);
  }
  // b arrives with pass 0 banked; reactivation snaps it to the floor, so
  // dispatch alternates instead of handing b six slots in a row.
  for (uint64_t id = 0; id < 4; ++id) {
    NEX_ASSERT_OK(scheduler.Enqueue(Job(200 + id, "b", 0, /*bytes=*/10)));
  }
  std::vector<std::string> sequence;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(scheduler.PickNext(&out));
    sequence.push_back(out.tenant);
    scheduler.OnComplete(out.tenant, out.bytes);
  }
  // b's pass snaps to a's (the floor), so they tie and alternate — the
  // equal-pass tie resolves to "a" by name order.
  EXPECT_EQ(sequence,
            (std::vector<std::string>{"a", "b", "a", "b"}));
}

TEST(FairScheduler, MaxInFlightGatesDispatch) {
  FairSchedulerOptions options;
  options.default_quota.max_in_flight = 1;
  FairScheduler scheduler(options);
  NEX_ASSERT_OK(scheduler.Enqueue(Job(1, "a")));
  NEX_ASSERT_OK(scheduler.Enqueue(Job(2, "a")));
  QueuedJob out;
  ASSERT_TRUE(scheduler.PickNext(&out));
  EXPECT_EQ(out.job_id, 1u);
  EXPECT_FALSE(scheduler.HasEligible());
  EXPECT_FALSE(scheduler.PickNext(&out));
  scheduler.OnComplete("a", out.bytes);
  ASSERT_TRUE(scheduler.PickNext(&out));
  EXPECT_EQ(out.job_id, 2u);
}

TEST(FairScheduler, ByteQuotaGatesDispatchButNeverStrandsOversizedJobs) {
  FairSchedulerOptions options;
  options.default_quota.max_in_flight = 10;
  options.default_quota.max_bytes_in_flight = 100;
  FairScheduler scheduler(options);
  NEX_ASSERT_OK(scheduler.Enqueue(Job(1, "a", 0, /*bytes=*/60)));
  NEX_ASSERT_OK(scheduler.Enqueue(Job(2, "a", 0, /*bytes=*/60)));
  QueuedJob out;
  ASSERT_TRUE(scheduler.PickNext(&out));
  EXPECT_FALSE(scheduler.PickNext(&out)) << "60 + 60 > 100";
  scheduler.OnComplete("a", 60);
  ASSERT_TRUE(scheduler.PickNext(&out));
  scheduler.OnComplete("a", 60);

  // A job bigger than the whole quota still runs when the tenant is idle.
  NEX_ASSERT_OK(scheduler.Enqueue(Job(3, "a", 0, /*bytes=*/500)));
  ASSERT_TRUE(scheduler.PickNext(&out));
  EXPECT_EQ(out.job_id, 3u);
}

TEST(FairScheduler, RemoveDropsQueuedJobOnly) {
  FairScheduler scheduler({});
  NEX_ASSERT_OK(scheduler.Enqueue(Job(1, "a")));
  NEX_ASSERT_OK(scheduler.Enqueue(Job(2, "a")));
  EXPECT_TRUE(scheduler.Remove(1));
  EXPECT_FALSE(scheduler.Remove(1));  // already gone
  EXPECT_EQ(scheduler.depth(), 1u);
  QueuedJob out;
  ASSERT_TRUE(scheduler.PickNext(&out));
  EXPECT_EQ(out.job_id, 2u);
  EXPECT_FALSE(scheduler.Remove(2));  // dispatched, not queued
}

// ----------------------------------------------------------- admission --

TEST(AdmissionController, LedgerCapsConcurrentGrants) {
  MemoryBudget budget(64);
  AdmissionController admission(&budget, /*grant_blocks=*/10,
                                /*admissible_blocks=*/30);
  NEX_ASSERT_OK(admission.Admit(1));
  NEX_ASSERT_OK(admission.Admit(2));
  EXPECT_TRUE(admission.HasCapacity());
  NEX_ASSERT_OK(admission.Admit(3));
  EXPECT_FALSE(admission.HasCapacity());
  EXPECT_FALSE(admission.Admit(4).ok());
  EXPECT_EQ(admission.ledger_blocks(), 30u);
  admission.OnJobFinish(2);
  NEX_ASSERT_OK(admission.Admit(4));
}

TEST(AdmissionController, PhysicalHoldSpansAdmitToStart) {
  MemoryBudget budget(64);
  AdmissionController admission(&budget, /*grant_blocks=*/10,
                                /*admissible_blocks=*/30);
  NEX_ASSERT_OK(admission.Admit(1));
  EXPECT_EQ(budget.used_blocks(), 10u) << "grant physically reserved";
  admission.OnJobStart(1);
  EXPECT_EQ(budget.used_blocks(), 0u)
      << "job now acquires its own blocks; the hold is released";
  EXPECT_EQ(admission.ledger_blocks(), 10u) << "entitlement outlives start";
  admission.OnJobFinish(1);
  EXPECT_EQ(admission.ledger_blocks(), 0u);
  EXPECT_EQ(budget.used_blocks(), 0u);
}

// ------------------------------------------------------------- scratch --

TEST(ScratchNamespace, ScopedNamesAndRemoveAll) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "nexsort_scratch_names";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ScratchNamespace scratch(dir.string(), "svc", /*instance=*/7);
  std::string a = scratch.NewPath("env device");  // label sanitized
  std::string b = scratch.NewPath("out");
  EXPECT_NE(a, b);
  EXPECT_NE(a.find("svc.7.0."), std::string::npos) << a;
  EXPECT_EQ(a.find(' '), std::string::npos) << a;
  EXPECT_NE(a.rfind(".scratch"), std::string::npos);
  std::ofstream(a) << "x";
  std::ofstream(b) << "y";
  scratch.RemoveAll();
  EXPECT_FALSE(std::filesystem::exists(a));
  EXPECT_FALSE(std::filesystem::exists(b));
  std::filesystem::remove_all(dir);
}

TEST(ScratchNamespace, SweepReclaimsCrashedInstancesOnly) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "nexsort_scratch_sweep";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // A prior instance (pid 41) crashed mid-job: its scratch files survive
  // it verbatim — no destructor ran.
  for (const char* name :
       {"svc.41.0.device.scratch", "svc.41.1.out.scratch",
        "svc.41.2.stage.scratch"}) {
    std::ofstream(dir / name) << "orphan";
  }
  // Unrelated files in the same directory must never be touched.
  std::ofstream(dir / "keep.xml") << "keep";
  std::ofstream(dir / "other.41.0.x.scratch") << "different prefix";

  // The restarted daemon (pid 42) sweeps before creating its own scratch.
  auto swept = ScratchNamespace::SweepOrphans(dir.string(), "svc",
                                              /*exclude_instance=*/42);
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  EXPECT_EQ(swept.value(), 3u);
  EXPECT_FALSE(std::filesystem::exists(dir / "svc.41.0.device.scratch"));
  EXPECT_TRUE(std::filesystem::exists(dir / "keep.xml"));
  EXPECT_TRUE(std::filesystem::exists(dir / "other.41.0.x.scratch"));

  // The live instance's own files are excluded from its sweep.
  ScratchNamespace live(dir.string(), "svc", /*instance=*/42);
  std::string mine = live.NewPath("live");
  std::ofstream(mine) << "live";
  auto again = ScratchNamespace::SweepOrphans(dir.string(), "svc",
                                              /*exclude_instance=*/42);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0u);
  EXPECT_TRUE(std::filesystem::exists(mine));
  live.RemoveAll();
  std::filesystem::remove_all(dir);
}

TEST(ScratchNamespace, SweepOfMissingDirectoryIsZeroNotError) {
  auto swept = ScratchNamespace::SweepOrphans(
      (std::filesystem::temp_directory_path() / "nexsort_never_made")
          .string(),
      "svc", 1);
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(swept.value(), 0u);
}

// -------------------------------------------------------- cancellation --

std::string ManyElements(int count) {
  std::string xml = "<list>";
  for (int i = count; i > 0; --i) {
    xml += "<item id=\"" + std::to_string(i) +
           "\"><payload>abcdefghijklmnopqrstuvwxyz0123456789</payload>"
           "</item>";
  }
  xml += "</list>";
  return xml;
}

/// Flips a CancellationToken after delivering `trip_bytes` — a
/// deterministic way to cancel mid-run-formation with no second thread.
class CancellingSource final : public ByteSource {
 public:
  CancellingSource(std::string_view data, size_t trip_bytes,
                   std::shared_ptr<CancellationToken> token)
      : data_(data), trip_bytes_(trip_bytes), token_(std::move(token)) {}

  Status Read(char* buf, size_t n, size_t* out) override {
    size_t left = data_.size() - pos_;
    *out = std::min(n, left);
    std::memcpy(buf, data_.data() + pos_, *out);
    pos_ += *out;
    if (pos_ >= trip_bytes_) token_->Cancel();
    return Status::OK();
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  size_t trip_bytes_;
  std::shared_ptr<CancellationToken> token_;
};

TEST(SessionCancellation, MidRunFormationUnwindReleasesEverything) {
  // Small blocks + small pinned sort memory force the external path with
  // several spills over this input.
  SortEnvOptions options;
  options.block_size = 1024;
  options.memory_blocks = 24;
  options.sort_memory_blocks = 8;
  Env env(options);
  const uint64_t baseline_used = env.budget()->used_blocks();

  std::string xml = ManyElements(1200);
  SortEnv::Session session = env.get()->NewSession();
  auto token = session.cancellation_handle();
  NexSortOptions sort_options;
  sort_options.order = OrderSpec::ByAttribute("id", /*numeric=*/true);
  NexSorter sorter(std::move(session), sort_options);

  // Trip at half the document: run formation is mid-flight.
  CancellingSource source(xml, xml.size() / 2, token);
  std::string out;
  StringByteSink sink(&out);
  Status status = sorter.Sort(&source, &sink);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();

  // The RAII unwind must return every block — budget back to baseline
  // means stacks, sort buffers, and stream buffers were all released.
  EXPECT_EQ(env.budget()->used_blocks(), baseline_used);
  EXPECT_EQ(env.budget()->release_underflows(), 0u);
}

TEST(SessionCancellation, PreCancelledSessionFailsFastAndClean) {
  Env env(1024, 24);
  const uint64_t baseline_used = env.budget()->used_blocks();
  SortEnv::Session session = env.get()->NewSession();
  session.cancellation_handle()->Cancel();
  NexSortOptions sort_options;
  sort_options.order = OrderSpec::ByAttribute("id", /*numeric=*/false);
  NexSorter sorter(std::move(session), sort_options);
  std::string xml = ManyElements(200);
  StringByteSource source(xml);
  std::string out;
  StringByteSink sink(&out);
  Status status = sorter.Sort(&source, &sink);
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_EQ(env.budget()->used_blocks(), baseline_used);
}

// --------------------------------------------------------- sortservice --

ServiceOptions SmallServiceOptions() {
  ServiceOptions options;
  options.env.block_size = 1024;
  options.env.memory_blocks = 48;
  options.executors = 2;
  return options;
}

std::string DirectSort(const std::string& xml, const std::string& order,
                       const SortEnvOptions& service_env) {
  // A solo env configured exactly like the service's shared one: same
  // block size, budget, and (crucially) the same pinned
  // sort_memory_blocks — the byte-identity contract.
  SortEnvOptions options;
  options.block_size = service_env.block_size;
  options.memory_blocks = service_env.memory_blocks;
  options.sort_memory_blocks = service_env.sort_memory_blocks;
  Env env(options);
  auto spec = ParseOrderSpec(order);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  NexSortOptions sort_options;
  sort_options.order = *spec;
  NexSorter sorter(env.get(), sort_options);
  StringByteSource source(xml);
  std::string out;
  StringByteSink sink(&out);
  Status status = sorter.Sort(&source, &sink);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

TEST(SortService, SortJobMatchesDirectRunByteForByte) {
  auto service_or = SortService::Create(SmallServiceOptions());
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  auto& service = *service_or.value();

  std::string xml = ManyElements(400);
  JobRequest request;
  request.order_text = "item:attr(id)n";
  request.input_text = xml;
  request.return_output = true;
  uint64_t job_id = 0;
  NEX_ASSERT_OK(service.Submit(std::move(request), &job_id));
  auto done = service.Wait(job_id);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_EQ(done.value().state, JobStatus::State::kDone)
      << done.value().error;
  EXPECT_TRUE(done.value().has_session);
  EXPECT_GT(done.value().output_bytes, 0u);
  auto output = service.TakeOutput(job_id);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  EXPECT_EQ(output.value(),
            DirectSort(xml, "item:attr(id)n", service.env()->options()));
  EXPECT_FALSE(service.TakeOutput(job_id).ok()) << "output moves out once";
}

// A streamed sort job (pull-based SortedStream output path) must produce
// the same bytes as an eager one, while additionally reporting time to
// first byte. The two jobs run concurrently on the two executors.
TEST(SortService, StreamedSortJobMatchesEagerByteForByte) {
  auto service_or = SortService::Create(SmallServiceOptions());
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  auto& service = *service_or.value();

  std::string xml = ManyElements(400);
  JobRequest eager;
  eager.order_text = "item:attr(id)n";
  eager.input_text = xml;
  eager.return_output = true;
  JobRequest streamed = eager;
  streamed.stream = true;
  uint64_t eager_id = 0;
  uint64_t streamed_id = 0;
  NEX_ASSERT_OK(service.Submit(std::move(eager), &eager_id));
  NEX_ASSERT_OK(service.Submit(std::move(streamed), &streamed_id));

  auto eager_done = service.Wait(eager_id);
  auto streamed_done = service.Wait(streamed_id);
  ASSERT_TRUE(eager_done.ok()) << eager_done.status().ToString();
  ASSERT_TRUE(streamed_done.ok()) << streamed_done.status().ToString();
  ASSERT_EQ(eager_done.value().state, JobStatus::State::kDone)
      << eager_done.value().error;
  ASSERT_EQ(streamed_done.value().state, JobStatus::State::kDone)
      << streamed_done.value().error;

  EXPECT_FALSE(eager_done.value().streamed);
  EXPECT_TRUE(streamed_done.value().streamed);
  EXPECT_GE(streamed_done.value().time_to_first_byte_ms, 0.0)
      << "a completed streamed job must have seen its first byte";

  auto eager_out = service.TakeOutput(eager_id);
  auto streamed_out = service.TakeOutput(streamed_id);
  ASSERT_TRUE(eager_out.ok()) << eager_out.status().ToString();
  ASSERT_TRUE(streamed_out.ok()) << streamed_out.status().ToString();
  EXPECT_EQ(streamed_out.value(), eager_out.value());
  EXPECT_EQ(eager_out.value(),
            DirectSort(xml, "item:attr(id)n", service.env()->options()));
}

TEST(SortService, StreamedJobCancelIsTerminalAndClean) {
  ServiceOptions options = SmallServiceOptions();
  options.executors = 1;
  auto service_or = SortService::Create(std::move(options));
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  auto& service = *service_or.value();

  JobRequest request;
  request.order_text = "item:attr(id)n";
  request.input_text = ManyElements(3000);  // big enough to outlive Cancel
  request.return_output = true;
  request.stream = true;
  uint64_t job_id = 0;
  NEX_ASSERT_OK(service.Submit(std::move(request), &job_id));
  NEX_ASSERT_OK(service.Cancel(job_id));
  auto done = service.Wait(job_id);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done.value().terminal());
  EXPECT_TRUE(done.value().streamed);
  if (done.value().state == JobStatus::State::kCancelled) {
    EXPECT_FALSE(done.value().error.empty());
    EXPECT_FALSE(service.TakeOutput(job_id).ok());
  } else {
    EXPECT_EQ(done.value().state, JobStatus::State::kDone);
  }
}

// The job table outlives its jobs (status queries), but not their inputs:
// a daemon that ran N jobs must not hold N documents.
TEST(SortService, TerminalJobsReleaseTheirInputs) {
  ServiceOptions options = SmallServiceOptions();
  options.executors = 1;
  auto service_or = SortService::Create(std::move(options));
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  auto& service = *service_or.value();

  const std::string xml = ManyElements(200);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    JobRequest request;
    request.order_text = "item:attr(id)n";
    request.input_text = xml;
    request.return_output = i % 2 == 0;
    uint64_t job_id = 0;
    NEX_ASSERT_OK(service.Submit(std::move(request), &job_id));
    ids.push_back(job_id);
  }
  JobRequest merge;
  merge.kind = JobRequest::Kind::kMerge;
  merge.order_text = "*:attr(id)n";
  merge.input_texts = {"<l><e id=\"1\"/></l>", "<l><e id=\"2\"/></l>"};
  uint64_t merge_id = 0;
  NEX_ASSERT_OK(service.Submit(std::move(merge), &merge_id));
  ids.push_back(merge_id);
  // Queue one more behind the busy executor, then cancel it while queued.
  JobRequest queued;
  queued.input_text = xml;
  uint64_t queued_id = 0;
  NEX_ASSERT_OK(service.Submit(std::move(queued), &queued_id));
  NEX_ASSERT_OK(service.Cancel(queued_id));
  ids.push_back(queued_id);

  for (uint64_t id : ids) {
    auto done = service.Wait(id);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    EXPECT_NE(done.value().state, JobStatus::State::kFailed)
        << done.value().error;
    EXPECT_GT(done.value().input_bytes, 0u) << "the status keeps the size";
  }
  EXPECT_EQ(service.retained_input_bytes(), 0u);
  EXPECT_EQ(service.ListJobs().size(), ids.size());
  auto output = service.TakeOutput(ids[0]);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(output.value(),
            DirectSort(xml, "item:attr(id)n", service.env()->options()));
}

TEST(SortService, StreamRejectedForNonSortJobs) {
  auto service_or = SortService::Create(SmallServiceOptions());
  ASSERT_TRUE(service_or.ok());
  JobRequest request;
  request.kind = JobRequest::Kind::kMerge;
  request.order_text = "*:attr(id)n";
  request.input_texts = {"<l><e id=\"1\"/></l>", "<l><e id=\"2\"/></l>"};
  request.stream = true;
  uint64_t job_id = 0;
  EXPECT_FALSE(service_or.value()->Submit(std::move(request), &job_id).ok())
      << "stream mode applies to sort jobs only";
}

TEST(SortService, MergeAndBatchUpdateJobsMatchDirectRuns) {
  auto service_or = SortService::Create(SmallServiceOptions());
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  auto& service = *service_or.value();
  auto spec = ParseOrderSpec("*:attr(id)n");
  ASSERT_TRUE(spec.ok());

  const std::string left =
      "<l><e id=\"1\"/><e id=\"3\"/><e id=\"5\"/></l>";
  const std::string right =
      "<l><e id=\"2\"/><e id=\"4\"/><e id=\"6\"/></l>";
  JobRequest merge;
  merge.kind = JobRequest::Kind::kMerge;
  merge.order_text = "*:attr(id)n";
  merge.input_texts = {left, right};
  merge.return_output = true;
  uint64_t merge_id = 0;
  NEX_ASSERT_OK(service.Submit(std::move(merge), &merge_id));
  auto merge_done = service.Wait(merge_id);
  ASSERT_TRUE(merge_done.ok());
  ASSERT_EQ(merge_done.value().state, JobStatus::State::kDone)
      << merge_done.value().error;
  auto merged = service.TakeOutput(merge_id);
  ASSERT_TRUE(merged.ok());

  std::string direct_merged;
  {
    StringByteSource a(left), b(right);
    std::vector<ByteSource*> sources{&a, &b};
    StringByteSink sink(&direct_merged);
    MergeOptions merge_options;
    merge_options.order = *spec;
    NEX_ASSERT_OK(StructuralMergeMany(sources, &sink, merge_options));
  }
  EXPECT_EQ(merged.value(), direct_merged);

  const std::string base =
      "<l><e id=\"1\" v=\"a\"/><e id=\"3\" v=\"a\"/></l>";
  const std::string updates = "<l><e id=\"2\" v=\"new\"/></l>";
  JobRequest update;
  update.kind = JobRequest::Kind::kBatchUpdate;
  update.order_text = "*:attr(id)n";
  update.input_text = base;
  update.updates_text = updates;
  update.return_output = true;
  uint64_t update_id = 0;
  NEX_ASSERT_OK(service.Submit(std::move(update), &update_id));
  auto update_done = service.Wait(update_id);
  ASSERT_TRUE(update_done.ok());
  ASSERT_EQ(update_done.value().state, JobStatus::State::kDone)
      << update_done.value().error;
  auto updated = service.TakeOutput(update_id);
  ASSERT_TRUE(updated.ok());

  std::string direct_updated;
  {
    Env env(1024, 32);
    StringByteSource base_source(base);
    StringByteSink sink(&direct_updated);
    BatchUpdateOptions update_options;
    update_options.order = *spec;
    NEX_ASSERT_OK(ApplyBatchUpdates(&base_source, updates, env.get(), &sink,
                                    update_options));
  }
  EXPECT_EQ(updated.value(), direct_updated);
}

TEST(SortService, StagesOutputAtomicallyAndCleansScratch) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "nexsort_service_stage";
  std::filesystem::remove_all(dir);

  ServiceOptions options = SmallServiceOptions();
  options.scratch_dir = dir.string();
  options.instance = 77;
  std::filesystem::path out_path = dir / "result.xml";
  {
    auto service_or = SortService::Create(std::move(options));
    ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
    auto& service = *service_or.value();
    JobRequest request;
    request.order_text = "item:attr(id)n";
    request.input_text = ManyElements(50);
    request.output_path = out_path.string();
    uint64_t job_id = 0;
    NEX_ASSERT_OK(service.Submit(std::move(request), &job_id));
    auto done = service.Wait(job_id);
    ASSERT_TRUE(done.ok());
    ASSERT_EQ(done.value().state, JobStatus::State::kDone)
        << done.value().error;
    ASSERT_TRUE(std::filesystem::exists(out_path));
  }
  // After shutdown the only file left is the delivered output — every
  // *.scratch (env device, staging) is gone.
  size_t scratch_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().string().find(".scratch") != std::string::npos) {
      ++scratch_files;
    }
  }
  EXPECT_EQ(scratch_files, 0u);
  std::ifstream result(out_path);
  std::string content((std::istreambuf_iterator<char>(result)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("<item id=\"1\">"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(SortService, CancelDrivesJobTerminalWithoutOutput) {
  ServiceOptions options = SmallServiceOptions();
  options.executors = 1;
  auto service_or = SortService::Create(std::move(options));
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  auto& service = *service_or.value();

  JobRequest request;
  request.order_text = "item:attr(id)n";
  request.input_text = ManyElements(3000);  // big enough to outlive Cancel
  request.return_output = true;
  uint64_t job_id = 0;
  NEX_ASSERT_OK(service.Submit(std::move(request), &job_id));
  NEX_ASSERT_OK(service.Cancel(job_id));
  auto done = service.Wait(job_id);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done.value().terminal());
  // The cancel may race job completion; whichever way it lands the record
  // must be coherent.
  if (done.value().state == JobStatus::State::kCancelled) {
    EXPECT_FALSE(done.value().error.empty());
    EXPECT_FALSE(service.TakeOutput(job_id).ok());
  } else {
    EXPECT_EQ(done.value().state, JobStatus::State::kDone);
  }
  NEX_ASSERT_OK(service.Cancel(job_id));  // idempotent on terminal jobs
}

TEST(SortService, CancelUnknownJobFails) {
  auto service_or = SortService::Create(SmallServiceOptions());
  ASSERT_TRUE(service_or.ok());
  EXPECT_FALSE(service_or.value()->Cancel(999).ok());
}

TEST(SortService, GrantArithmeticAndDoubleBufferPinning) {
  ServiceOptions options;
  options.env.block_size = 1024;
  options.env.memory_blocks = 64;
  options.env.cache = {.frames = 16};
  options.executors = 3;
  auto service_or = SortService::Create(std::move(options));
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  auto& service = *service_or.value();
  // admissible = 64 - 16 cache frames = 48; grant = 48 / 3 = 16;
  // pinned sort memory = grant - 4 overhead blocks. The pin is what keeps
  // every job inside its grant.
  EXPECT_EQ(service.grant_blocks(), 16u);
  EXPECT_EQ(service.sort_memory_blocks(), 12u);
}

TEST(SortService, CreateRejectsBudgetTooSmallForExecutors) {
  ServiceOptions options;
  options.env.block_size = 1024;
  options.env.memory_blocks = 20;
  options.executors = 4;  // 5-block grants cannot host 8-block sorts
  EXPECT_FALSE(SortService::Create(std::move(options)).ok());
}

TEST(SortService, SessionStatsSumExactlyToEnvTotals) {
  auto service_or = SortService::Create(SmallServiceOptions());
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  auto& service = *service_or.value();
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    JobRequest request;
    request.order_text = "item:attr(id)n";
    request.input_text = ManyElements(300 + 30 * i);
    uint64_t job_id = 0;
    NEX_ASSERT_OK(service.Submit(std::move(request), &job_id));
    ids.push_back(job_id);
  }
  for (uint64_t id : ids) {
    auto done = service.Wait(id);
    ASSERT_TRUE(done.ok());
    ASSERT_EQ(done.value().state, JobStatus::State::kDone)
        << done.value().error;
  }
  uint64_t session_reads = 0;
  uint64_t session_writes = 0;
  for (const SessionStats& session : service.env()->session_stats()) {
    session_reads += session.io.reads.load();
    session_writes += session.io.writes.load();
  }
  const IoStats& env_io = service.env()->device()->stats();
  EXPECT_EQ(session_reads, env_io.reads.load());
  EXPECT_EQ(session_writes, env_io.writes.load());
  EXPECT_GT(session_writes, 0u) << "external sorts must have spilled";
}

TEST(SortService, StatsJsonIsWellFormedAndConsistent) {
  auto service_or = SortService::Create(SmallServiceOptions());
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  auto& service = *service_or.value();
  JobRequest request;
  request.order_text = "item:attr(id)n";
  request.input_text = ManyElements(100);
  uint64_t job_id = 0;
  NEX_ASSERT_OK(service.Submit(std::move(request), &job_id));
  auto done = service.Wait(job_id);
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done.value().state, JobStatus::State::kDone);

  auto stats = JsonValue::Parse(service.StatsJson());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const JsonValue& doc = stats.value();
  EXPECT_EQ(doc.GetString("schema"), "nexsortd-stats-v1");
  ASSERT_NE(doc.Find("env"), nullptr);
  ASSERT_NE(doc.Find("sessions"), nullptr);
  EXPECT_TRUE(doc.Find("sessions")->is_array());
  EXPECT_GE(doc.Find("sessions")->array_items().size(), 1u);
  const JsonValue* queue = doc.Find("queue");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->GetUint("dispatched"), 1u);
  EXPECT_EQ(queue->GetUint("depth"), 0u);
  const JsonValue* admission = doc.Find("admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_EQ(admission->GetUint("grant_blocks"), service.grant_blocks());
  EXPECT_EQ(admission->GetUint("ledger_blocks"), 0u);
  const JsonValue* jobs = doc.Find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_EQ(jobs->array_items().size(), 1u);
  EXPECT_EQ(jobs->array_items()[0].GetString("state"), "done");
  const JsonValue* tenants = doc.Find("tenants");
  ASSERT_NE(tenants, nullptr);
  ASSERT_EQ(tenants->array_items().size(), 1u);
  EXPECT_EQ(tenants->array_items()[0].GetString("tenant"), "default");
}

TEST(SortService, DrainShutdownFinishesQueuedJobs) {
  ServiceOptions options = SmallServiceOptions();
  options.executors = 1;
  auto service_or = SortService::Create(std::move(options));
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or.value();
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    JobRequest request;
    request.order_text = "item:attr(id)n";
    request.input_text = ManyElements(150);
    uint64_t job_id = 0;
    NEX_ASSERT_OK(service.Submit(std::move(request), &job_id));
    ids.push_back(job_id);
  }
  service.Shutdown(/*cancel_inflight=*/false);
  for (uint64_t id : ids) {
    auto done = service.GetJob(id);
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(done.value().state, JobStatus::State::kDone)
        << done.value().error;
  }
  uint64_t dummy = 0;
  EXPECT_FALSE(service.Submit(JobRequest{}, &dummy).ok())
      << "no submissions after shutdown";
}

TEST(SortService, CancelShutdownTerminatesEverything) {
  ServiceOptions options = SmallServiceOptions();
  options.executors = 1;
  auto service_or = SortService::Create(std::move(options));
  ASSERT_TRUE(service_or.ok());
  auto& service = *service_or.value();
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    JobRequest request;
    request.order_text = "item:attr(id)n";
    request.input_text = ManyElements(2000);
    uint64_t job_id = 0;
    NEX_ASSERT_OK(service.Submit(std::move(request), &job_id));
    ids.push_back(job_id);
  }
  service.Shutdown(/*cancel_inflight=*/true);
  for (uint64_t id : ids) {
    auto done = service.GetJob(id);
    ASSERT_TRUE(done.ok());
    EXPECT_TRUE(done.value().terminal());
  }
}

}  // namespace
}  // namespace nexsort
