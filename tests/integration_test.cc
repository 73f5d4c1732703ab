// End-to-end integration: the full pipeline over a real file-backed block
// device (generate -> store -> NEXSORT -> verify), the sort -> merge ->
// check chain, and cross-feature compositions.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/sorted_check.h"
#include "merge/structural_merge.h"
#include "tests/test_util.h"
#include "xml/generator.h"

namespace nexsort {
namespace testing {
namespace {

TEST(Integration, FileBackedSortEndToEnd) {
  std::string path = ::testing::TempDir() + "/nexsort_integration.work";
  SortEnvOptions env_options;
  env_options.block_size = 4096;
  env_options.memory_blocks = 16;
  env_options.file_path = path;
  Env env(std::move(env_options));
  BlockDevice* device = env.device();
  MemoryBudget* budget = env.budget();

  // Generate straight onto the device, then sort from and to the device —
  // no in-memory copies of the document anywhere.
  RandomTreeGenerator generator(5, 7, {.seed = 500, .element_bytes = 120});
  ByteRange input_range;
  {
    BlockStreamWriter writer(device, budget, IoCategory::kOther);
    NEX_ASSERT_OK(writer.init_status());
    NEX_ASSERT_OK(generator.Generate(&writer));
    NEX_ASSERT_OK(writer.Finish(&input_range));
  }

  NexSortOptions options;
  options.order = OrderSpec::ByAttribute("id", /*numeric=*/true);
  NexSorter sorter(env.get(), options);
  ByteRange output_range;
  {
    BlockStreamReader reader(device, budget, input_range, IoCategory::kInput);
    NEX_ASSERT_OK(reader.init_status());
    BlockStreamWriter writer(device, budget, IoCategory::kOutput);
    NEX_ASSERT_OK(writer.init_status());
    NEX_ASSERT_OK(sorter.Sort(&reader, &writer));
    NEX_ASSERT_OK(writer.Finish(&output_range));
  }
  EXPECT_EQ(sorter.stats().scan.elements, generator.stats().elements);

  // Verify sortedness streaming from the file, and against the oracle.
  {
    BlockStreamReader reader(device, budget, output_range,
                             IoCategory::kInput);
    NEX_ASSERT_OK(reader.init_status());
    auto report = CheckSorted(&reader, options.order);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->sorted) << report->violation;
  }
  auto input_text = LoadBytes(device, budget, input_range);
  auto output_text = LoadBytes(device, budget, output_range);
  ASSERT_TRUE(input_text.ok() && output_text.ok());
  EXPECT_EQ(*output_text, OracleSort(*input_text, options.order));
  std::remove(path.c_str());
}

TEST(Integration, SortMergeCheckChain) {
  // Two generated documents -> sort both -> merge -> result must pass the
  // sortedness check and contain every element of both inputs.
  OrderSpec spec = OrderSpec::ByAttribute("id", /*numeric=*/true);
  RandomTreeGenerator left_generator(4, 5,
                                     {.seed = 501, .element_bytes = 60,
                                      .leaf_text = false});
  RandomTreeGenerator right_generator(4, 5,
                                      {.seed = 502, .element_bytes = 60,
                                       .leaf_text = false});
  auto left_xml = left_generator.GenerateString();
  auto right_xml = right_generator.GenerateString();
  ASSERT_TRUE(left_xml.ok() && right_xml.ok());

  NexSortOptions options;
  options.order = spec;
  std::string left_sorted = NexSortString(*left_xml, options);
  NexSortOptions options2;
  options2.order = spec;
  std::string right_sorted = NexSortString(*right_xml, options2);

  MergeOptions merge_options;
  merge_options.order = spec;
  StringByteSource left(left_sorted);
  StringByteSource right(right_sorted);
  std::string merged;
  StringByteSink sink(&merged);
  MergeStats stats;
  NEX_ASSERT_OK(
      StructuralMerge({&left, &right}, &sink, merge_options, &stats));

  auto report = CheckSorted(merged, spec);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->sorted) << report->violation;
  // Random ids rarely coincide: nearly everything flows through the
  // one-sided copy paths, and nothing may be dropped.
  EXPECT_GT(stats.left_only, 0u);
  EXPECT_GT(stats.right_only, 0u);
}

TEST(Integration, OrderRecordingComposesWithDepthLimit) {
  RandomTreeGenerator generator(4, 5, {.seed = 503, .element_bytes = 60,
                                       .leaf_text = false});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok());

  NexSortOptions options;
  options.order = OrderSpec::ByAttribute("id", /*numeric=*/true);
  options.depth_limit = 2;
  options.record_order_attribute = "nx_seq";
  std::string sorted = NexSortString(*xml, options);

  // Restore and compare: round trip through a depth-limited sort still
  // recovers the original document exactly.
  NexSortOptions restore;
  restore.order = OrderSpec::ByAttribute("nx_seq", /*numeric=*/true);
  restore.strip_attribute = "nx_seq";
  EXPECT_EQ(NexSortString(sorted, restore), *xml);
}

TEST(Integration, RepeatedSortsOnOneDeviceReuseSpace) {
  // Many sorts against the same device must not grow it unboundedly
  // within a run (each NexSorter frees nothing itself, but stacks and
  // sort temps recycle; runs are per-sorter). Verify budget hygiene: all
  // blocks returned after each sort.
  Env env(512, 16);
  for (int round = 0; round < 5; ++round) {
    RandomTreeGenerator generator(
        4, 5, {.seed = 600u + round, .element_bytes = 60});
    auto xml = generator.GenerateString();
    ASSERT_TRUE(xml.ok());
    NexSortOptions options;
    options.order = OrderSpec::ByAttribute("id", true);
    NexSorter sorter(env.get(), options);
    StringByteSource source(*xml);
    std::string out;
    StringByteSink sink(&out);
    NEX_ASSERT_OK(sorter.Sort(&source, &sink));
    EXPECT_EQ(env.budget()->used_blocks(), 0u) << "round " << round;
  }
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
