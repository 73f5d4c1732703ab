// Parameterized property sweeps: across document shapes, memory budgets,
// block sizes, thresholds, and option combinations, NEXSORT and the
// key-path baseline must (a) equal the in-memory recursive-sort oracle,
// (b) be a structure-preserving permutation of the input, and (c) stay
// inside the memory budget.
#include <gtest/gtest.h>

#include <map>

#include "tests/test_util.h"
#include "xml/dom.h"
#include "xml/generator.h"

namespace nexsort {
namespace testing {
namespace {

// gtest lists each case with a byte dump of its SweepParam. height is 8
// bytes wide so no padding follows it: as an int it left four bytes of
// garbage near the front of the dump, which changed the listed test names
// from run to run.
struct SweepParam {
  uint64_t height;
  uint64_t max_fanout;
  size_t block_size;
  uint64_t memory_blocks;
  uint64_t threshold;  // 0 = default 2B
  bool graceful;
  uint64_t seed;
};

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  const SweepParam& p = info.param;
  return "h" + std::to_string(p.height) + "f" + std::to_string(p.max_fanout) +
         "B" + std::to_string(p.block_size) + "M" +
         std::to_string(p.memory_blocks) + "t" + std::to_string(p.threshold) +
         (p.graceful ? "g1" : "g0") + "s" + std::to_string(p.seed);
}

class NexSortSweep : public ::testing::TestWithParam<SweepParam> {};

// Multiset of (element name, attrs, text) signatures plus every
// parent->child edge signature: a sorted document must preserve both.
void CollectSignatures(const XmlNode& node, const std::string& parent_sig,
                       std::map<std::string, int>* counts) {
  std::string sig = node.is_text ? "T:" + node.text : "E:" + node.name;
  for (const auto& attr : node.attributes) {
    sig += ";" + attr.name + "=" + attr.value;
  }
  ++(*counts)["node|" + sig];
  ++(*counts)["edge|" + parent_sig + ">" + sig];
  for (const auto& child : node.children) {
    CollectSignatures(*child, sig, counts);
  }
}

TEST_P(NexSortSweep, MatchesOracleAndPreservesStructure) {
  const SweepParam& p = GetParam();
  RandomTreeGenerator generator(
      static_cast<int>(p.height), p.max_fanout,
      {.seed = p.seed, .element_bytes = 60, .key_space = 50});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();

  NexSortOptions options;
  options.order = OrderSpec::ByAttribute("id", /*numeric=*/true);
  options.sort_threshold = p.threshold;
  options.graceful_degeneration = p.graceful;

  Env env(p.block_size, p.memory_blocks);
  NexSorter sorter(env.get(), options);
  StringByteSource source(*xml);
  std::string sorted;
  StringByteSink sink(&sorted);
  NEX_ASSERT_OK(sorter.Sort(&source, &sink));

  // (a) Oracle equivalence.
  EXPECT_EQ(sorted, OracleSort(*xml, options.order));

  // (b) Permutation + edge preservation.
  auto input_dom = ParseDom(*xml);
  auto output_dom = ParseDom(sorted);
  ASSERT_TRUE(input_dom.ok() && output_dom.ok());
  std::map<std::string, int> input_sigs, output_sigs;
  CollectSignatures(**input_dom, "", &input_sigs);
  CollectSignatures(**output_dom, "", &output_sigs);
  EXPECT_EQ(input_sigs, output_sigs);

  // (c) Budget respected.
  EXPECT_LE(env.budget()->peak_blocks(), env.budget()->total_blocks());

  // Sanity on the stats the benchmarks rely on.
  const NexSortStats& stats = sorter.stats();
  EXPECT_EQ(stats.scan.max_depth, p.height);
  EXPECT_GE(stats.subtree_sorts, 1u);
  EXPECT_EQ(stats.input_bytes, xml->size());
  EXPECT_EQ(stats.output_bytes, sorted.size());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NexSortSweep,
    ::testing::Values(
        // Shallow and wide through tall and narrow.
        SweepParam{2, 40, 512, 16, 0, false, 1},
        SweepParam{3, 10, 512, 16, 0, false, 2},
        SweepParam{4, 6, 512, 16, 0, false, 3},
        SweepParam{5, 4, 512, 16, 0, false, 4},
        SweepParam{7, 2, 512, 16, 0, false, 5},
        SweepParam{10, 1, 512, 16, 0, false, 6}),  // a pure chain
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    Memory, NexSortSweep,
    ::testing::Values(
        // Same document, shrinking memory: exercises the internal/external
        // subtree sort crossover.
        SweepParam{5, 5, 256, 64, 0, false, 7},
        SweepParam{5, 5, 256, 16, 0, false, 7},
        SweepParam{5, 5, 256, 10, 0, false, 7},
        SweepParam{5, 5, 256, 8, 0, false, 7}),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    Threshold, NexSortSweep,
    ::testing::Values(
        // Sort-threshold ablation: t from half a block to far above memory.
        SweepParam{4, 8, 256, 16, 128, false, 8},
        SweepParam{4, 8, 256, 16, 512, false, 8},
        SweepParam{4, 8, 256, 16, 2048, false, 8},
        SweepParam{4, 8, 256, 16, 16384, false, 8}),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    Graceful, NexSortSweep,
    ::testing::Values(
        SweepParam{2, 60, 256, 8, 0, true, 9},
        SweepParam{3, 12, 256, 8, 0, true, 10},
        SweepParam{5, 5, 256, 8, 0, true, 11},
        SweepParam{6, 3, 512, 10, 0, true, 12}),
    ParamName);

INSTANTIATE_TEST_SUITE_P(
    Seeds, NexSortSweep,
    ::testing::Values(
        SweepParam{4, 7, 512, 12, 0, false, 100},
        SweepParam{4, 7, 512, 12, 0, false, 101},
        SweepParam{4, 7, 512, 12, 0, true, 102},
        SweepParam{4, 7, 512, 12, 0, true, 103},
        SweepParam{4, 7, 512, 12, 0, false, 104}),
    ParamName);

// The baseline must agree with the oracle under the same sweep axes.
class KeyPathSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(KeyPathSweep, MatchesOracle) {
  const SweepParam& p = GetParam();
  RandomTreeGenerator generator(
      static_cast<int>(p.height), p.max_fanout,
      {.seed = p.seed, .element_bytes = 60, .key_space = 50});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok()) << xml.status().ToString();

  KeyPathSortOptions options;
  options.order = OrderSpec::ByAttribute("id", /*numeric=*/true);
  Env env(p.block_size, p.memory_blocks);
  KeyPathXmlSorter sorter(env.get(), options);
  StringByteSource source(*xml);
  std::string sorted;
  StringByteSink sink(&sorted);
  NEX_ASSERT_OK(sorter.Sort(&source, &sink));
  EXPECT_EQ(sorted, OracleSort(*xml, options.order));
  EXPECT_LE(env.budget()->peak_blocks(), env.budget()->total_blocks());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KeyPathSweep,
    ::testing::Values(
        SweepParam{2, 40, 512, 8, 0, false, 1},
        SweepParam{4, 6, 512, 8, 0, false, 3},
        SweepParam{5, 4, 256, 4, 0, false, 4},
        SweepParam{7, 2, 256, 4, 0, false, 5},
        SweepParam{5, 5, 256, 16, 0, false, 7}),
    ParamName);

// NEXSORT and the baseline must agree with each other bit-for-bit too.
TEST(CrossAlgorithm, NexSortEqualsKeyPathBaseline) {
  for (uint64_t seed : {200u, 201u, 202u}) {
    RandomTreeGenerator generator(5, 5, {.seed = seed, .element_bytes = 60});
    auto xml = generator.GenerateString();
    ASSERT_TRUE(xml.ok());
    NexSortOptions nex_options;
    nex_options.order = OrderSpec::ByAttribute("id", /*numeric=*/true);
    KeyPathSortOptions kp_options;
    kp_options.order = OrderSpec::ByAttribute("id", /*numeric=*/true);
    EXPECT_EQ(NexSortString(*xml, nex_options, 512, 10),
              KeyPathSortString(*xml, kp_options, 512, 10))
        << "seed " << seed;
  }
}

// Already-sorted input: output identical, and every sibling list ordered.
TEST(CrossAlgorithm, SortedInputIsFixedPoint) {
  RandomTreeGenerator generator(4, 8, {.seed = 300, .element_bytes = 50});
  auto xml = generator.GenerateString();
  ASSERT_TRUE(xml.ok());
  OrderSpec spec = OrderSpec::ByAttribute("id", /*numeric=*/true);
  std::string sorted = OracleSort(*xml, spec);
  NexSortOptions options;
  options.order = spec;
  EXPECT_EQ(NexSortString(sorted, options), sorted);
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
