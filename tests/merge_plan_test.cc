// Merge-planning tests (docs/MERGE_PLANNING.md): the MergePlanner's
// guarantees against a greedy oracle (passes and bytes never exceed the
// classic left-to-right loop, contiguous in-order steps, every input
// consumed exactly once, no copy steps), output of every sorting entry
// point checked against oracles that share no merge code (std::stable_sort
// for the raw ExternalMergeSorter, the in-memory DOM sort for NEXSORT eager
// + streamed and the key-path sort), wire compatibility of retired sort
// request fields, exact budget unwind on mid-merge cancellation, DFS-aware
// run placement (contiguous extents, tail return, free-list chunk reuse),
// and the buffer pool's advisory read-ahead.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/buffer_pool.h"
#include "core/keypath_xml_sort.h"
#include "core/nexsort.h"
#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "extmem/run_store.h"
#include "obs/json_writer.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"
#include "sort/external_merge_sort.h"
#include "sort/merge_plan.h"
#include "sort/sorted_stream.h"
#include "tests/test_util.h"
#include "util/cancellation.h"
#include "util/random.h"

namespace nexsort {
namespace {

using nexsort::testing::Env;

using Record = std::pair<std::string, std::string>;

// ---------------------------------------------------------- planner -----

// The classic merge loop the planner must beat, kept only as a test oracle:
// left-to-right groups of `fan_in` runs every pass; a trailing group of one
// run becomes a fan-in-1 copy step.
MergePlan GreedyPlan(const std::vector<uint64_t>& run_bytes,
                     uint64_t fan_in) {
  MergePlan plan;
  plan.num_inputs = static_cast<uint32_t>(run_bytes.size());
  plan.node_bytes = run_bytes;
  std::vector<uint32_t> level(run_bytes.size());
  std::iota(level.begin(), level.end(), 0u);
  while (level.size() > 1) {
    std::vector<uint32_t> next;
    for (size_t i = 0; i < level.size(); i += fan_in) {
      const size_t end = std::min<size_t>(i + fan_in, level.size());
      MergeStep step;
      step.pass = plan.passes;
      step.inputs.assign(level.begin() + static_cast<long>(i),
                         level.begin() + static_cast<long>(end));
      uint64_t bytes = 0;
      for (uint32_t node : step.inputs) bytes += plan.node_bytes[node];
      step.output = plan.node_count();
      plan.node_bytes.push_back(bytes);
      next.push_back(step.output);
      plan.steps.push_back(std::move(step));
    }
    level = std::move(next);
    ++plan.passes;
  }
  if (!plan.steps.empty()) plan.steps.back().final = true;
  return plan;
}

// Replay a plan over the logical run sequence: every step must consume a
// contiguous, in-order span of the current sequence (the stability
// requirement) using only ready nodes, each node exactly once; the last
// survivor must be the plan's root.
void CheckPlanShape(const MergePlan& plan, size_t num_inputs,
                    uint64_t fan_in) {
  ASSERT_EQ(plan.num_inputs, num_inputs);
  if (num_inputs <= 1) {
    EXPECT_TRUE(plan.steps.empty());
    EXPECT_EQ(plan.passes, 0u);
    return;
  }
  std::vector<uint32_t> sequence(num_inputs);
  for (uint32_t i = 0; i < num_inputs; ++i) sequence[i] = i;
  std::vector<int> consumed(plan.node_count(), 0);
  uint32_t last_pass = 0;
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const MergeStep& step = plan.steps[s];
    ASSERT_GE(step.inputs.size(), 1u);
    ASSERT_LE(step.inputs.size(), fan_in);
    ASSERT_GE(step.pass, last_pass) << "steps not emitted pass by pass";
    last_pass = step.pass;
    // Locate the step's first input in the current sequence; the rest must
    // follow it immediately, in order (contiguity).
    auto at = std::find(sequence.begin(), sequence.end(), step.inputs[0]);
    ASSERT_NE(at, sequence.end()) << "step consumes an unavailable node";
    size_t pos = static_cast<size_t>(at - sequence.begin());
    ASSERT_LE(pos + step.inputs.size(), sequence.size());
    uint64_t expected_bytes = 0;
    for (size_t i = 0; i < step.inputs.size(); ++i) {
      ASSERT_EQ(sequence[pos + i], step.inputs[i])
          << "step " << s << " is not a contiguous in-order span";
      ASSERT_EQ(consumed[step.inputs[i]], 0);
      consumed[step.inputs[i]] = 1;
      expected_bytes += plan.node_bytes[step.inputs[i]];
    }
    EXPECT_EQ(plan.node_bytes[step.output], expected_bytes);
    EXPECT_EQ(step.final, s + 1 == plan.steps.size());
    sequence.erase(sequence.begin() + static_cast<long>(pos),
                   sequence.begin() + static_cast<long>(pos) +
                       static_cast<long>(step.inputs.size()));
    sequence.insert(sequence.begin() + static_cast<long>(pos), step.output);
  }
  ASSERT_EQ(sequence.size(), 1u);
  EXPECT_EQ(sequence.front(), plan.root());
  for (uint32_t i = 0; i < num_inputs; ++i) {
    EXPECT_EQ(consumed[i], 1) << "input run " << i << " never merged";
  }
}

std::vector<uint64_t> RandomRunBytes(uint64_t seed, size_t count) {
  Random rng(seed);
  std::vector<uint64_t> bytes;
  bytes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Skewed sizes: mostly small runs with occasional giants, the shape
    // replacement selection + graceful degeneration actually produce.
    uint64_t base = 1 + rng.Uniform(64);
    if (rng.Uniform(8) == 0) base *= 1 + rng.Uniform(100);
    bytes.push_back(base * 512);
  }
  return bytes;
}

TEST(MergePlanner, SingleRunYieldsEmptyPlan) {
  MergePlan plan = MergePlanner::Plan({4096}, 4);
  EXPECT_TRUE(plan.steps.empty());
  EXPECT_EQ(plan.passes, 0u);
  EXPECT_EQ(plan.predicted_bytes_moved(), 0u);
}

TEST(MergePlanner, GreedyReproducesHistoricalPassStructure) {
  // 10 runs at fan-in 4: pass 0 = [0..3][4..7][8..9], pass 1 = the three
  // outputs — the oracle is the old left-to-right loop, including the
  // trailing narrow group, and pays exactly GreedyPassCount passes (the
  // planner's ceiling).
  std::vector<uint64_t> bytes(10, 1024);
  MergePlan plan = GreedyPlan(bytes, 4);
  EXPECT_EQ(plan.passes, 2u);
  ASSERT_EQ(plan.steps.size(), 4u);
  EXPECT_EQ(plan.steps[0].inputs, (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(plan.steps[1].inputs, (std::vector<uint32_t>{4, 5, 6, 7}));
  EXPECT_EQ(plan.steps[2].inputs, (std::vector<uint32_t>{8, 9}));
  EXPECT_EQ(plan.steps[3].inputs, (std::vector<uint32_t>{10, 11, 12}));
  EXPECT_EQ(plan.passes, MergePlanner::GreedyPassCount(10, 4));
  CheckPlanShape(plan, 10, 4);
}

TEST(MergePlanner, GracefulDegradationMergesOnlyTheCheapestWindow) {
  // One run over the fan-in: instead of greedy's full pass over everything
  // plus a second pass, the planner merges one two-run window (the
  // cheapest) and finishes at full fan-in.
  std::vector<uint64_t> bytes = {8192, 1024, 1024, 8192, 8192};
  MergePlan greedy = GreedyPlan(bytes, 4);
  MergePlan planned = MergePlanner::Plan(bytes, 4);
  ASSERT_EQ(planned.steps.size(), 2u);
  EXPECT_EQ(planned.steps[0].inputs, (std::vector<uint32_t>{1, 2}));
  EXPECT_LE(planned.passes, greedy.passes);
  EXPECT_LT(planned.predicted_bytes_moved(), greedy.predicted_bytes_moved());
  CheckPlanShape(planned, 5, 4);
}

// The planner's contract, property-tested: for random skewed run sizes
// across fan-ins, the planned schedule is well-formed, never runs more
// passes than the greedy oracle, never moves more bytes, and never emits
// copy steps.
TEST(MergePlanner, PlannedNeverWorseThanGreedyProperty) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Random rng(seed * 977);
    size_t count = 2 + rng.Uniform(199);
    std::vector<uint64_t> bytes = RandomRunBytes(seed, count);
    for (uint64_t fan_in : {2u, 3u, 5u, 8u}) {
      MergePlan greedy = GreedyPlan(bytes, fan_in);
      MergePlan planned = MergePlanner::Plan(bytes, fan_in);
      CheckPlanShape(greedy, count, fan_in);
      CheckPlanShape(planned, count, fan_in);
      EXPECT_EQ(greedy.passes, MergePlanner::GreedyPassCount(count, fan_in));
      EXPECT_LE(planned.passes, greedy.passes)
          << "seed=" << seed << " n=" << count << " F=" << fan_in;
      EXPECT_LE(planned.predicted_bytes_moved(),
                greedy.predicted_bytes_moved())
          << "seed=" << seed << " n=" << count << " F=" << fan_in;
      for (const MergeStep& step : planned.steps) {
        EXPECT_GE(step.inputs.size(), 2u) << "planned copy step";
      }
    }
  }
}

// ------------------------------------------------- sorters vs. oracles ---

std::vector<Record> RandomRecords(uint64_t seed, size_t count) {
  Random rng(seed);
  std::vector<Record> records;
  records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Heavy duplication: 25 distinct keys, so any regrouping that breaks
    // merge stability reorders values and the byte comparison catches it.
    records.emplace_back("k" + std::to_string(rng.Uniform(25)),
                         rng.Identifier(80 + rng.Uniform(120)));
  }
  return records;
}

std::vector<Record> SortExternally(const std::vector<Record>& records,
                                   uint64_t memory_blocks,
                                   ExtSortStats* stats = nullptr) {
  Env env;
  RunStore store(env.device(), env.budget());
  ExternalMergeSorter sorter(&store, {.memory_blocks = memory_blocks});
  NEX_EXPECT_OK(sorter.init_status());
  for (const Record& record : records) {
    NEX_EXPECT_OK(sorter.Add(record.first, record.second));
  }
  NEX_EXPECT_OK(sorter.Finish());
  std::vector<Record> out;
  std::string key;
  std::string value;
  while (true) {
    auto more = sorter.Next(&key, &value);
    NEX_EXPECT_OK(more.status());
    if (!more.ok() || !more.value()) break;
    out.emplace_back(key, value);
  }
  if (stats != nullptr) *stats = sorter.stats();
  return out;
}

// An oracle that shares no merge code with the sorter: equal keys keep
// arrival order, which is what the sorter promises.
std::vector<Record> StableSortOracle(std::vector<Record> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) {
                     return a.first < b.first;
                   });
  return records;
}

TEST(MergePolicyIdentity, ExternalSorterByteIdenticalAcrossFanIns) {
  for (uint64_t seed : {2u, 11u}) {
    std::vector<Record> records = RandomRecords(seed, 700);
    const std::vector<Record> expected = StableSortOracle(records);
    for (uint64_t memory_blocks : {3u, 4u, 8u}) {
      ExtSortStats stats;
      std::vector<Record> sorted =
          SortExternally(records, memory_blocks, &stats);
      ASSERT_GT(stats.merge_passes, 0u) << "M=" << memory_blocks;
      EXPECT_EQ(sorted, expected)
          << "seed=" << seed << " M=" << memory_blocks;
      EXPECT_LE(stats.merge_passes,
                MergePlanner::GreedyPassCount(stats.initial_runs,
                                              memory_blocks - 1));
    }
  }
}

// The merge_plan stats block must satisfy its consumed-exactly-once
// invariant after a real multi-pass job, and the planner's size
// predictions must match what the writers actually produced.
TEST(MergePolicyIdentity, PlanStatsInvariantsHold) {
  ExtSortStats stats;
  SortExternally(RandomRecords(/*seed=*/5, 900), /*memory_blocks=*/3, &stats);
  const MergePlanStats& plan = stats.plan;
  ASSERT_EQ(plan.plans, 1u);
  EXPECT_GT(plan.steps, 0u);
  EXPECT_EQ(plan.fanin_total, plan.input_runs + plan.steps - plan.plans);
  EXPECT_EQ(plan.predicted_bytes, plan.actual_bytes);
  EXPECT_GE(plan.fanin_min, 2u);
  EXPECT_LE(plan.fanin_max, 2u);  // fan-in is memory_blocks - 1
}

std::string ManyElements(size_t count, uint64_t seed = 17) {
  Random rng(seed);
  std::string xml = "<root>";
  for (size_t i = 0; i < count; ++i) {
    xml += "<item id=\"" + std::to_string(rng.Uniform(500)) + "\"><payload>" +
           rng.Identifier(60) + "</payload></item>";
  }
  xml += "</root>";
  return xml;
}

OrderSpec NumericIdOrder() {
  OrderSpec order;
  OrderRule rule;
  rule.element = "*";
  rule.source = KeySource::kAttribute;
  rule.argument = "id";
  rule.numeric = true;
  order.AddRule(rule);
  return order;
}

NexSortOptions ExternalNexOptions() {
  NexSortOptions options;
  options.order = NumericIdOrder();
  options.sort_threshold = 2 * 1024;  // force the external subtree path
  return options;
}

TEST(MergePolicyIdentity, NexSortEagerAndStreamedMatchDomSort) {
  std::string xml = ManyElements(1500);
  const std::string expected =
      nexsort::testing::OracleSort(xml, NumericIdOrder());
  NexSortStats stats;
  std::string eager = nexsort::testing::NexSortString(
      xml, ExternalNexOptions(), 1024, 32, &stats);
  ASSERT_GT(stats.sorts.external_sorts, 0u)
      << "threshold failed to force external subtree sorts";
  ASSERT_GT(stats.sorts.merge_passes, 0u);
  EXPECT_EQ(eager, expected);

  Env env(1024, 32);
  NexSorter sorter(env.get(), ExternalNexOptions());
  StringByteSource source(xml);
  auto stream_or = sorter.SortStream(&source);
  ASSERT_TRUE(stream_or.ok()) << stream_or.status().ToString();
  std::string streamed;
  std::string_view chunk;
  while (true) {
    auto more = stream_or.value()->Next(&chunk);
    NEX_ASSERT_OK(more.status());
    if (!more.value()) break;
    streamed.append(chunk);
  }
  EXPECT_EQ(streamed, expected);
}

TEST(MergePolicyIdentity, KeyPathSorterByteIdentical) {
  std::string xml = ManyElements(1200, /*seed=*/23);
  KeyPathSortOptions options;
  options.order = NumericIdOrder();
  EXPECT_EQ(nexsort::testing::KeyPathSortString(xml, options),
            nexsort::testing::OracleSort(xml, options.order));
}

// Wire compatibility: a submit that still carries the retired
// "merge_policy" / "dfs_placement" / "stream" fields (older clients sent
// them) is accepted — the daemon ignores request fields it does not read —
// and sorted with the one merge schedule, byte-identical to a plain
// request; both report their time to first byte, as every sort job does.
TEST(MergePolicyIdentity, ServiceJobsByteIdenticalAcrossPolicies) {
  ServiceOptions options;
  options.env.block_size = 1024;
  options.env.memory_blocks = 48;
  options.executors = 2;
  auto service = SortService::Create(std::move(options));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       ("nexsort_merge_plan_test_" + std::to_string(::getpid()) + ".sock"))
          .string();
  auto server = SocketServer::Start(service.value().get(), socket_path);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const std::string xml = ManyElements(800, /*seed=*/31);
  auto submit = [&](bool retired_fields) -> std::string {
    JsonWriter writer;
    writer.BeginObject();
    writer.Key("op");
    writer.String("submit");
    writer.Key("kind");
    writer.String("sort");
    writer.Key("order");
    writer.String("item:attr(id)n");
    writer.Key("input_text");
    writer.String(xml);
    writer.Key("wait");
    writer.Bool(true);
    writer.Key("return_output");
    writer.Bool(true);
    if (retired_fields) {
      writer.Key("merge_policy");
      writer.String("greedy");
      writer.Key("dfs_placement");
      writer.Bool(false);
      writer.Key("stream");
      writer.Bool(true);
    }
    writer.EndObject();
    auto client = ServiceClient::Connect(socket_path);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    if (!client.ok()) return "";
    auto response = client.value()->Call(std::move(writer).Take());
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    if (!response.ok()) return "";
    EXPECT_TRUE(response.value().GetBool("ok"))
        << response.value().GetString("error");
    const JsonValue* job = response.value().Find("job");
    EXPECT_TRUE(job != nullptr && job->GetString("state") == "done");
    EXPECT_TRUE(job != nullptr && job->Find("time_to_first_byte_ms") &&
                job->GetDouble("time_to_first_byte_ms") >= 0)
        << "every sort job reports its time to first byte";
    return response.value().GetString("output");
  };
  const std::string plain = submit(/*retired_fields=*/false);
  const std::string retired = submit(/*retired_fields=*/true);
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(retired, plain);
  EXPECT_EQ(plain, nexsort::testing::OracleSort(xml, NumericIdOrder()));

  server.value().reset();
  service.value().reset();
}

// ------------------------------------------------------- cancellation ---

// Cancelling between run formation and the merge unwinds through the plan
// executor: the step's writer, its sources, and the leftover runs all
// release; the budget returns to exactly zero.
TEST(MergePlanCancellation, MidMergeCancelUnwindsBudgetExactly) {
  Env env;
  CancellationToken cancel;
  {
    RunStore store(env.device(), env.budget());
    ExternalMergeSorter sorter(&store,
                               {.memory_blocks = 4, .cancel = &cancel});
    NEX_ASSERT_OK(sorter.init_status());
    for (const Record& record : RandomRecords(/*seed=*/9, 600)) {
      NEX_ASSERT_OK(sorter.Add(record.first, record.second));
    }
    // Finish spills the final partial buffer inline (no poll) and then
    // enters the plan executor, whose per-record poll observes the flag
    // with a live step writer and open sources — genuinely mid-merge.
    cancel.Cancel();
    Status finished = sorter.Finish();
    EXPECT_TRUE(finished.IsCancelled()) << finished.ToString();
    EXPECT_GT(sorter.stats().initial_runs, 1u);
    EXPECT_EQ(sorter.stats().plan.plans, 1u)
        << "cancellation fired before the merge phase began";
  }
  EXPECT_EQ(env.budget()->used_blocks(), 0u) << "leaked budget";
  EXPECT_EQ(env.budget()->release_underflows(), 0u);
}

// --------------------------------------------------------- placement ----

std::string BlockOfBytes(size_t block_size, char fill) {
  return std::string(block_size, fill);
}

TEST(RunPlacement, SequentialHintYieldsContiguousAscendingBlocks) {
  Env env;
  const size_t block_size = env.device()->block_size();
  RunStore store(env.device(), env.budget());

  RunWriter writer = store.NewRun(IoCategory::kRunWrite,
                                  PlacementHint::kSequentialOutput);
  NEX_ASSERT_OK(writer.init_status());
  for (int i = 0; i < 5; ++i) {
    NEX_ASSERT_OK(writer.Append(BlockOfBytes(block_size, 'a' + i)));
  }
  RunHandle placed;
  NEX_ASSERT_OK(writer.Finish(&placed));

  std::vector<uint64_t> blocks;
  NEX_ASSERT_OK(store.SnapshotBlocks(placed, &blocks));
  ASSERT_EQ(blocks.size(), 5u);
  for (size_t i = 1; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i], blocks[i - 1] + 1) << "placed run not contiguous";
  }

  // Freeing the run reunites its blocks with the extent's returned tail,
  // leaving one full free extent — the next placed run must reuse it
  // (contiguously) instead of growing the device.
  NEX_ASSERT_OK(store.FreeRun(placed));
  RunWriter second = store.NewRun(IoCategory::kRunWrite,
                                  PlacementHint::kSequentialOutput);
  NEX_ASSERT_OK(second.init_status());
  for (int i = 0; i < 4; ++i) {
    NEX_ASSERT_OK(second.Append(BlockOfBytes(block_size, 'z')));
  }
  RunHandle reused;
  NEX_ASSERT_OK(second.Finish(&reused));
  std::vector<uint64_t> reused_blocks;
  NEX_ASSERT_OK(store.SnapshotBlocks(reused, &reused_blocks));
  ASSERT_EQ(reused_blocks.size(), 4u);
  for (size_t i = 1; i < reused_blocks.size(); ++i) {
    EXPECT_EQ(reused_blocks[i], reused_blocks[i - 1] + 1);
  }
  for (uint64_t id : reused_blocks) {
    EXPECT_LT(id, RunStore::kPlacementExtentBlocks)
        << "second placed run grew the device instead of reusing the "
           "recycled extent";
  }
  NEX_ASSERT_OK(store.FreeRun(reused));
  EXPECT_EQ(store.live_blocks(), 0u);
}

// An external sort writes its final merged run in placed extents: the
// blocks ascend contiguously inside every kPlacementExtentBlocks extent, so
// draining the result seeks at most once per extent — even after merge
// passes have churned the scratch free list.
TEST(RunPlacement, ExternalSortFinalRunIsContiguous) {
  Env env;
  RunStore store(env.device(), env.budget());
  ExternalMergeSorter sorter(&store, {.memory_blocks = 4});
  NEX_ASSERT_OK(sorter.init_status());
  for (const Record& record : RandomRecords(/*seed=*/41, 900)) {
    NEX_ASSERT_OK(sorter.Add(record.first, record.second));
  }
  NEX_ASSERT_OK(sorter.Finish());
  ASSERT_GT(sorter.stats().merge_passes, 1u);
  // The merge freed every input; the survivor is the last run finished.
  ASSERT_EQ(store.live_runs(), 1u);
  RunHandle final_run;
  final_run.id = static_cast<uint32_t>(store.runs_created() - 1);
  std::vector<uint64_t> blocks;
  NEX_ASSERT_OK(store.SnapshotBlocks(final_run, &blocks));
  ASSERT_GT(blocks.size(), RunStore::kPlacementExtentBlocks);
  for (size_t i = 1; i < blocks.size(); ++i) {
    if (i % RunStore::kPlacementExtentBlocks == 0) continue;  // extent seam
    EXPECT_EQ(blocks[i], blocks[i - 1] + 1)
        << "final run not contiguous inside its extent at block " << i;
  }
}

// ------------------------------------------------- advisory read-ahead --

TEST(AdvisoryReadAhead, PrefetchesFollowAdvisedOrderAcrossSeams) {
  auto device = NewMemoryBlockDevice(256);
  uint64_t first = 0;
  NEX_ASSERT_OK(device->Allocate(16, &first));
  MemoryBudget budget(16);
  BufferPool pool(device.get(), &budget, {.frames = 8, .readahead = 3});
  NEX_ASSERT_OK(pool.init_status());

  // A deliberately non-adjacent traversal order: the id+1 detector can
  // never fire, so every prefetch observed comes from the advice.
  std::vector<uint64_t> order = {0, 5, 2, 9, 7, 12};
  pool.AdviseReadSequence(order);
  std::vector<char> buf(256);
  for (uint64_t id : order) {
    NEX_ASSERT_OK(pool.ReadBlock(id, buf.data(), IoCategory::kRunRead));
  }
  CacheStats stats = pool.stats();
  EXPECT_GT(stats.prefetches, 0u) << "advice triggered no prefetch";
  EXPECT_GT(stats.hits, 0u) << "advised prefetches never became hits";

  // Cleared advice: the same scattered order triggers nothing further.
  pool.ClearReadAdvice();
  const uint64_t prefetches_before = stats.prefetches;
  for (uint64_t id : {1u, 6u, 3u, 10u}) {
    NEX_ASSERT_OK(pool.ReadBlock(id, buf.data(), IoCategory::kRunRead));
  }
  EXPECT_EQ(pool.stats().prefetches, prefetches_before)
      << "stale advice outlived ClearReadAdvice";
}

TEST(AdvisoryReadAhead, StaleIdsAndDisabledReadaheadAreHarmless) {
  auto device = NewMemoryBlockDevice(256);
  uint64_t first = 0;
  NEX_ASSERT_OK(device->Allocate(4, &first));
  MemoryBudget budget(16);
  {
    // readahead == 0: advice must be a no-op, not a crash.
    BufferPool pool(device.get(), &budget, {.frames = 4});
    NEX_ASSERT_OK(pool.init_status());
    pool.AdviseReadSequence({0, 1, 2});
    std::vector<char> buf(256);
    NEX_ASSERT_OK(pool.ReadBlock(0, buf.data(), IoCategory::kRunRead));
    EXPECT_EQ(pool.stats().prefetches, 0u);
  }
  {
    // Advice naming blocks past the device's end skips them best-effort.
    BufferPool pool(device.get(), &budget, {.frames = 4, .readahead = 2});
    NEX_ASSERT_OK(pool.init_status());
    pool.AdviseReadSequence({0, 999, 1});
    std::vector<char> buf(256);
    NEX_ASSERT_OK(pool.ReadBlock(0, buf.data(), IoCategory::kRunRead));
    NEX_ASSERT_OK(pool.ReadBlock(1, buf.data(), IoCategory::kRunRead));
    EXPECT_GE(pool.stats().hits, 1u);
  }
}

}  // namespace
}  // namespace nexsort
