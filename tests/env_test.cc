// SortEnv: option validation, stack composition (layers, cache, worker
// pool), session semantics, and the headline property the env layer
// exists for — several jobs sharing one budget/device/pool with exact
// accounting and byte-identical results.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/sort_env.h"
#include "obs/json_writer.h"
#include "obs/telemetry_hub.h"
#include "obs/tracer.h"
#include "tests/test_util.h"
#include "xml/generator.h"

namespace nexsort {
namespace testing {
namespace {

TEST(SortEnvCreate, RejectsInvalidOptions) {
  {
    SortEnvOptions options;
    options.block_size = 0;
    EXPECT_FALSE(SortEnv::Create(std::move(options)).ok());
  }
  {
    SortEnvOptions options;
    options.memory_blocks = 0;
    EXPECT_FALSE(SortEnv::Create(std::move(options)).ok());
  }
  {
    // Readahead is a cache feature; without frames it is a dead knob the
    // caller probably mis-set.
    SortEnvOptions options;
    options.cache = {.frames = 0, .readahead = 4};
    EXPECT_FALSE(SortEnv::Create(std::move(options)).ok());
  }
  {
    // Merge prefetching lands its blocks in cache frames; without any it
    // would silently do nothing.
    SortEnvOptions options;
    options.parallel.prefetch_depth = 4;
    EXPECT_FALSE(SortEnv::Create(std::move(options)).ok());
  }
  {
    // Cache frames are charged against the budget for the env's lifetime;
    // a cache as large as M would leave the sorts nothing to run on.
    SortEnvOptions options;
    options.memory_blocks = 16;
    options.cache = {.frames = 16, .readahead = 0};
    EXPECT_FALSE(SortEnv::Create(std::move(options)).ok());
  }
}

TEST(SortEnvCreate, DefaultStackIsBareMemoryDevice) {
  auto env_or = SortEnvBuilder().BlockSize(1024).MemoryBlocks(32).Build();
  ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
  std::unique_ptr<SortEnv> env = std::move(env_or).value();
  EXPECT_EQ(env->block_size(), 1024u);
  EXPECT_EQ(env->device(), env->physical_device());
  EXPECT_EQ(env->physical_device(), env->base_device());
  EXPECT_EQ(env->layer_device(0), nullptr);
  EXPECT_EQ(env->buffer_pool(), nullptr);
  EXPECT_EQ(env->worker_pool(), nullptr);
  EXPECT_EQ(env->budget()->total_blocks(), 32u);
  EXPECT_EQ(env->budget()->used_blocks(), 0u);
}

TEST(SortEnvCreate, ComposesLayersCacheAndWorkers) {
  auto env_or = SortEnvBuilder()
                    .BlockSize(512)
                    .MemoryBlocks(64)
                    .Throttle({.access_latency_us = 0,
                               .throughput_mb_per_s = 100000})
                    .FaultLayer()
                    .Cache(8, /*readahead=*/2)
                    .Threads(2)
                    .Build();
  ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
  std::unique_ptr<SortEnv> env = std::move(env_or).value();

  // Stack shape: base -> throttle -> fault -> cache; device() is the
  // cache, physical_device() the topmost wrapper.
  EXPECT_NE(env->device(), env->physical_device());
  EXPECT_EQ(env->layer_device(0 + 1), env->physical_device());
  EXPECT_NE(env->layer_device(0), env->base_device());
  EXPECT_EQ(env->layer_device(2), nullptr);
  ASSERT_NE(env->buffer_pool(), nullptr);
  ASSERT_NE(env->worker_pool(), nullptr);

  // The cache's 8 frames are charged to the budget up front.
  EXPECT_EQ(env->budget()->used_blocks(), 8u);
}

TEST(SortEnvCreate, FaultLayerArmsFailures) {
  auto env_or = SortEnvBuilder()
                    .BlockSize(512)
                    .MemoryBlocks(16)
                    .FaultLayer()
                    .Build();
  ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
  std::unique_ptr<SortEnv> env = std::move(env_or).value();
  BlockDevice* fault = env->layer_device(0);
  ASSERT_NE(fault, nullptr);
  EXPECT_EQ(fault, env->physical_device());

  uint64_t first = 0;
  NEX_ASSERT_OK(env->device()->Allocate(1, &first));
  std::vector<char> block(env->block_size(), 'x');
  NEX_ASSERT_OK(env->device()->Write(first, block.data()));
  fault->FailNextOps(1);
  EXPECT_FALSE(env->device()->Write(first, block.data()).ok());
  NEX_EXPECT_OK(env->device()->Write(first, block.data()));
}

TEST(SortEnvDescribe, JsonCarriesTheComposition) {
  auto env_or = SortEnvBuilder()
                    .BlockSize(2048)
                    .MemoryBlocks(64)
                    .Throttle()
                    .FaultLayer()
                    .Cache(8, /*readahead=*/2)
                    .Threads(3)
                    .PrefetchDepth(2)
                    .SortMemoryBlocks(4)
                    .Build();
  ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
  JsonWriter json;
  (*env_or)->DescribeJson(&json);
  std::string text = std::move(json).Take();
  EXPECT_NE(text.find("\"block_size\":2048"), std::string::npos) << text;
  EXPECT_NE(text.find("\"memory_blocks\":64"), std::string::npos) << text;
  EXPECT_NE(text.find("\"device\":\"memory\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"layers\":[\"throttle\",\"fault\"]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"cache_frames\":8"), std::string::npos) << text;
  EXPECT_NE(text.find("\"readahead\":2"), std::string::npos) << text;
  EXPECT_NE(text.find("\"threads\":3"), std::string::npos) << text;
  EXPECT_NE(text.find("\"prefetch_depth\":2"), std::string::npos) << text;
  EXPECT_NE(text.find("\"sort_memory_blocks\":4"), std::string::npos)
      << text;
}

TEST(SortEnvSession, OwnsJobStateAndInheritsTracer) {
  Tracer tracer;
  SortEnvOptions options;
  options.block_size = 1024;
  options.memory_blocks = 32;
  options.tracer = &tracer;
  auto env_or = SortEnv::Create(std::move(options));
  ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
  std::unique_ptr<SortEnv> env = std::move(env_or).value();

  SortEnv::Session a = env->NewSession();
  SortEnv::Session b = env->NewSession();
  EXPECT_EQ(a.tracer(), &tracer);
  EXPECT_EQ(b.tracer(), &tracer);
  // Job state is per session; the stack is shared. Each session fronts
  // the shared device with its own accounting wrapper (the basis of
  // per-session attribution), so the device pointers differ while the
  // budget stays shared.
  EXPECT_NE(a.run_store(), b.run_store());
  ASSERT_NE(a.device(), nullptr);
  ASSERT_NE(b.device(), nullptr);
  EXPECT_NE(a.device(), b.device());
  EXPECT_NE(a.device(), env->device());
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(a.budget(), b.budget());
  // Serial env: no parallel context.
  EXPECT_EQ(a.parallel(), nullptr);

  // Concurrent jobs must not share the single-threaded tracer; a session
  // can drop (or swap) its sink without touching the env's.
  b.set_tracer(nullptr);
  EXPECT_EQ(b.tracer(), nullptr);
  EXPECT_EQ(a.tracer(), &tracer);
  EXPECT_EQ(env->tracer(), &tracer);
}

// The reason the env layer exists: N jobs against one env share the
// budget, device, cache, and worker pool with exact accounting, and
// concurrency never changes bytes.
TEST(SortEnvSharedConcurrency, TwoJobsMatchSerialWithExactAccounting) {
  RandomTreeGenerator generator(/*height=*/5, /*max_fanout=*/6,
                                {.seed = 33, .element_bytes = 80});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  OrderSpec spec = OrderSpec::ByAttribute("id", /*numeric=*/true);

  auto sort_one = [&](SortEnv* env) {
    NexSortOptions options;
    options.order = spec;
    NexSorter sorter(env, options);
    StringByteSource source(*xml);
    std::string out;
    StringByteSink sink(&out);
    Status st = sorter.Sort(&source, &sink);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return out;
  };

  // Serial reference in its own env.
  std::string expected;
  {
    auto env_or = SortEnvBuilder().BlockSize(512).MemoryBlocks(96).Build();
    ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
    expected = sort_one(env_or->get());
  }
  ASSERT_FALSE(expected.empty());

  // Two concurrent jobs in ONE env: a pinned per-sort allowance gives both
  // jobs identical deterministic grants out of the shared budget.
  auto env_or = SortEnvBuilder()
                    .BlockSize(512)
                    .MemoryBlocks(96)
                    .SortMemoryBlocks(8)
                    .Build();
  ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
  std::unique_ptr<SortEnv> env = std::move(env_or).value();

  std::string out_a, out_b;
  {
    std::thread job_a([&] { out_a = sort_one(env.get()); });
    std::thread job_b([&] { out_b = sort_one(env.get()); });
    job_a.join();
    job_b.join();
  }
  EXPECT_EQ(out_a, expected);
  EXPECT_EQ(out_b, expected);

  // Exact accounting: everything both jobs acquired was returned, nothing
  // was returned twice, and the shared cap held throughout.
  EXPECT_EQ(env->budget()->used_blocks(), 0u);
  EXPECT_EQ(env->budget()->release_underflows(), 0u);
  EXPECT_LE(env->budget()->peak_blocks(), 96u);
  EXPECT_GT(env->budget()->peak_blocks(), 0u);
}

TEST(SortEnvSharedConcurrency, CachedEnvLeaksNoFrames) {
  RandomTreeGenerator generator(/*height=*/4, /*max_fanout=*/6,
                                {.seed = 34, .element_bytes = 80});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  OrderSpec spec = OrderSpec::ByAttribute("id", /*numeric=*/true);

  auto env_or = SortEnvBuilder()
                    .BlockSize(512)
                    .MemoryBlocks(96)
                    .SortMemoryBlocks(8)
                    .Cache(16)
                    .Build();
  ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
  std::unique_ptr<SortEnv> env = std::move(env_or).value();

  auto sort_one = [&](std::string* out) {
    NexSortOptions options;
    options.order = spec;
    NexSorter sorter(env.get(), options);
    StringByteSource source(*xml);
    StringByteSink sink(out);
    Status st = sorter.Sort(&source, &sink);
    EXPECT_TRUE(st.ok()) << st.ToString();
  };

  std::string out_a, out_b;
  {
    std::thread job_a([&] { sort_one(&out_a); });
    std::thread job_b([&] { sort_one(&out_b); });
    job_a.join();
    job_b.join();
  }
  EXPECT_EQ(out_a, out_b);
  EXPECT_FALSE(out_a.empty());

  // No pinned frames survive the jobs, and the budget holds exactly the
  // cache's resident frames — nothing leaked, nothing double-released.
  ASSERT_NE(env->buffer_pool(), nullptr);
  EXPECT_EQ(env->buffer_pool()->pinned_frames(), 0u);
  NEX_EXPECT_OK(env->Flush());
  EXPECT_EQ(env->budget()->used_blocks(), 16u);
  EXPECT_EQ(env->budget()->release_underflows(), 0u);
}

// Per-session attribution: every session fronts the shared stack with its
// own accounting wrapper, so summing session I/O across all sessions must
// reconstruct the shared device's totals *exactly* — reads, writes, and
// every category. (Sequential subsets and modeled seconds are per-device
// properties of the shared layer and are deliberately not compared: they
// depend on how the two sessions' accesses interleaved.)
TEST(SortEnvSessionStats, AttributionSumsMatchEnvTotalsExactly) {
  RandomTreeGenerator generator(/*height=*/5, /*max_fanout=*/6,
                                {.seed = 35, .element_bytes = 80});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  OrderSpec spec = OrderSpec::ByAttribute("id", /*numeric=*/true);

  auto env_or = SortEnvBuilder()
                    .BlockSize(512)
                    .MemoryBlocks(96)
                    .SortMemoryBlocks(8)
                    .Build();
  ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
  std::unique_ptr<SortEnv> env = std::move(env_or).value();

  auto sort_one = [&](std::string* out) {
    NexSortOptions options;
    options.order = spec;
    NexSorter sorter(env.get(), options);
    StringByteSource source(*xml);
    StringByteSink sink(out);
    Status st = sorter.Sort(&source, &sink);
    EXPECT_TRUE(st.ok()) << st.ToString();
  };

  std::string out_a, out_b;
  {
    std::thread job_a([&] { sort_one(&out_a); });
    std::thread job_b([&] { sort_one(&out_b); });
    job_a.join();
    job_b.join();
  }
  EXPECT_EQ(out_a, out_b);
  ASSERT_FALSE(out_a.empty());

  std::vector<SessionStats> sessions = env->session_stats();
  ASSERT_EQ(sessions.size(), 2u);
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t category_reads[kNumIoCategories] = {};
  uint64_t category_writes[kNumIoCategories] = {};
  for (const SessionStats& session : sessions) {
    EXPECT_FALSE(session.active);
    EXPECT_GE(session.wall_seconds, 0.0);
    EXPECT_GE(session.start_seconds, 0.0);
    EXPECT_GT(session.io.total(), 0u);
    reads += session.io.reads.load(std::memory_order_relaxed);
    writes += session.io.writes.load(std::memory_order_relaxed);
    for (int i = 0; i < kNumIoCategories; ++i) {
      category_reads[i] +=
          session.io.category_reads[i].load(std::memory_order_relaxed);
      category_writes[i] +=
          session.io.category_writes[i].load(std::memory_order_relaxed);
    }
  }
  EXPECT_NE(sessions[0].id, sessions[1].id);

  const IoStats& shared = env->device()->stats();
  EXPECT_EQ(reads, shared.reads.load(std::memory_order_relaxed));
  EXPECT_EQ(writes, shared.writes.load(std::memory_order_relaxed));
  for (int i = 0; i < kNumIoCategories; ++i) {
    EXPECT_EQ(category_reads[i],
              shared.category_reads[i].load(std::memory_order_relaxed))
        << IoCategoryName(static_cast<IoCategory>(i));
    EXPECT_EQ(category_writes[i],
              shared.category_writes[i].load(std::memory_order_relaxed))
        << IoCategoryName(static_cast<IoCategory>(i));
  }
}

// The sampler is pure observation: enabling it never changes sorted bytes,
// and by the time the env stops it has published at least the final sample
// with the headline gauges.
TEST(SortEnvTelemetry, SamplerIsObservationOnly) {
  RandomTreeGenerator generator(/*height=*/4, /*max_fanout=*/6,
                                {.seed = 36, .element_bytes = 80});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  OrderSpec spec = OrderSpec::ByAttribute("id", /*numeric=*/true);

  auto sort_in = [&](SortEnv* env, std::string* out) {
    NexSortOptions options;
    options.order = spec;
    NexSorter sorter(env, options);
    StringByteSource source(*xml);
    StringByteSink sink(out);
    Status st = sorter.Sort(&source, &sink);
    EXPECT_TRUE(st.ok()) << st.ToString();
  };

  std::string plain;
  {
    auto env_or = SortEnvBuilder().BlockSize(512).MemoryBlocks(96).Build();
    ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
    EXPECT_EQ((*env_or)->telemetry(), nullptr);
    sort_in(env_or->get(), &plain);
  }
  ASSERT_FALSE(plain.empty());

  std::string sampled;
  auto env_or = SortEnvBuilder()
                    .BlockSize(512)
                    .MemoryBlocks(96)
                    .SampleIntervalMs(1)
                    .Build();
  ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
  std::unique_ptr<SortEnv> env = std::move(env_or).value();
  ASSERT_NE(env->telemetry(), nullptr);
  sort_in(env.get(), &sampled);
  EXPECT_EQ(sampled, plain);

  env->telemetry()->StopSampler();
  std::vector<TelemetrySample> samples = env->telemetry()->samples();
  ASSERT_GE(samples.size(), 1u);
  const TelemetrySample& last = samples.back();
  EXPECT_EQ(last.GaugeOr("budget_total_blocks", -1.0), 96.0);
  EXPECT_GT(last.GaugeOr("io_logical_total", 0.0), 0.0);
  EXPECT_GT(last.GaugeOr("io_physical_total", 0.0), 0.0);
  EXPECT_EQ(last.GaugeOr("sessions_active", -1.0), 0.0);
  // No cache configured, zero cache accesses: the hit-rate gauge must be
  // absent rather than a fake 0 or 100.
  EXPECT_EQ(last.GaugeOr("cache_hit_rate_pct", -1.0), -1.0);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].t_seconds, samples[i - 1].t_seconds);
  }
}

// tsan smoke: a 1 ms sampler racing live parallel sorts plus rapid env
// teardown (which stops the sampler) must be free of data races. The
// assertions are minimal on purpose — the value of this test is running
// it under ThreadSanitizer.
TEST(SortEnvTelemetry, SamplerStartStopRaceSmoke) {
  RandomTreeGenerator generator(/*height=*/4, /*max_fanout=*/5,
                                {.seed = 37, .element_bytes = 64});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();
  OrderSpec spec = OrderSpec::ByAttribute("id", /*numeric=*/true);

  for (int round = 0; round < 4; ++round) {
    auto env_or = SortEnvBuilder()
                      .BlockSize(512)
                      .MemoryBlocks(96)
                      .SortMemoryBlocks(8)
                      .Cache(16)
                      .Threads(2)
                      .SampleIntervalMs(1)
                      .Build();
    ASSERT_TRUE(env_or.ok()) << env_or.status().ToString();
    std::unique_ptr<SortEnv> env = std::move(env_or).value();

    auto sort_one = [&](std::string* out) {
      NexSortOptions options;
      options.order = spec;
      NexSorter sorter(env.get(), options);
      StringByteSource source(*xml);
      StringByteSink sink(out);
      Status st = sorter.Sort(&source, &sink);
      EXPECT_TRUE(st.ok()) << st.ToString();
    };

    std::string out_a, out_b;
    {
      std::thread job_a([&] { sort_one(&out_a); });
      std::thread job_b([&] { sort_one(&out_b); });
      job_a.join();
      job_b.join();
    }
    EXPECT_EQ(out_a, out_b);
    // env destruction joins the sampler while its last probe may still be
    // reading gauges — exactly the shutdown race this smoke exercises.
  }
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
