// Structural merge (the paper's Example 1.1, reproduced literally), batch
// updates, and the nested-loop baseline.
#include <gtest/gtest.h>

#include "merge/batch_update.h"
#include "util/random.h"
#include "merge/nested_loop_merge.h"
#include "merge/structural_merge.h"
#include "tests/test_util.h"
#include "xml/dom.h"

namespace nexsort {
namespace testing {
namespace {

// The two documents of the paper's Figure 1.
const char kPersonnelD1[] =
    "<company>"
    "<region name=\"NE\"></region>"
    "<region name=\"AC\">"
    "<branch name=\"Durham\">"
    "<employee ID=\"454\"></employee>"
    "<employee ID=\"323\"><name>Smith</name><phone>5552345</phone>"
    "</employee>"
    "</branch>"
    "<branch name=\"Atlanta\"></branch>"
    "</region>"
    "</company>";

const char kPayrollD2[] =
    "<company>"
    "<region name=\"NW\"></region>"
    "<region name=\"AC\">"
    "<branch name=\"Durham\">"
    "<employee ID=\"844\"></employee>"
    "<employee ID=\"323\"><salary>45000</salary><bonus>5000</bonus>"
    "</employee>"
    "</branch>"
    "<branch name=\"Miami\"></branch>"
    "</region>"
    "</company>";

// Figure 1's ordering: region by name, branch by name, employee by ID.
OrderSpec Figure1Spec() {
  OrderSpec spec;
  OrderRule employee;
  employee.element = "employee";
  employee.source = KeySource::kAttribute;
  employee.argument = "ID";
  spec.AddRule(employee);
  OrderRule by_name;
  by_name.element = "*";
  by_name.source = KeySource::kAttribute;
  by_name.argument = "name";
  spec.AddRule(by_name);
  return spec;
}

std::string SortThen(std::string_view xml, const OrderSpec& spec) {
  NexSortOptions options;
  options.order = spec;
  return NexSortString(xml, options);
}

TEST(StructuralMerge, ReproducesFigure1) {
  OrderSpec spec = Figure1Spec();
  std::string d1 = SortThen(kPersonnelD1, spec);
  std::string d2 = SortThen(kPayrollD2, spec);

  MergeOptions options;
  options.order = spec;
  StringByteSource left(d1);
  StringByteSource right(d2);
  std::string merged;
  StringByteSink sink(&merged);
  MergeStats stats;
  NEX_ASSERT_OK(StructuralMerge({&left, &right}, &sink, options, &stats));

  // The merged document at the bottom of Figure 1: regions AC, NE, NW in
  // name order; inside AC the branches Atlanta, Durham, Miami; inside
  // Durham employees 323 (merged: personal + salary), 454, 844.
  EXPECT_EQ(merged,
            "<company>"
            "<region name=\"AC\">"
            "<branch name=\"Atlanta\"></branch>"
            "<branch name=\"Durham\">"
            "<employee ID=\"323\"><name>Smith</name><phone>5552345</phone>"
            "<salary>45000</salary><bonus>5000</bonus></employee>"
            "<employee ID=\"454\"></employee>"
            "<employee ID=\"844\"></employee>"
            "</branch>"
            "<branch name=\"Miami\"></branch>"
            "</region>"
            "<region name=\"NE\"></region>"
            "<region name=\"NW\"></region>"
            "</company>");
  // AC, Durham, employee 323 (the root is merged before child matching).
  EXPECT_EQ(stats.matched_elements, 3u);
}

TEST(StructuralMerge, OutputStaysSorted) {
  OrderSpec spec = Figure1Spec();
  std::string d1 = SortThen(kPersonnelD1, spec);
  std::string d2 = SortThen(kPayrollD2, spec);
  MergeOptions options;
  options.order = spec;
  StringByteSource left(d1);
  StringByteSource right(d2);
  std::string merged;
  StringByteSink sink(&merged);
  NEX_ASSERT_OK(StructuralMerge({&left, &right}, &sink, options));
  EXPECT_EQ(merged, OracleSort(merged, spec));
}

TEST(StructuralMerge, AttributeUnionLeftWins) {
  OrderSpec spec = OrderSpec::ByAttribute("k");
  MergeOptions options;
  options.order = spec;
  StringByteSource left("<r><x k=\"1\" a=\"L\" c=\"only\"/></r>");
  StringByteSource right("<r><x k=\"1\" a=\"R\" b=\"extra\"/></r>");
  std::string merged;
  StringByteSink sink(&merged);
  NEX_ASSERT_OK(StructuralMerge({&left, &right}, &sink, options));
  EXPECT_EQ(merged,
            "<r><x k=\"1\" a=\"L\" c=\"only\" b=\"extra\"></x></r>");
}

TEST(StructuralMerge, TextPolicies) {
  OrderSpec spec = OrderSpec::ByAttribute("k");
  {
    MergeOptions options;
    options.order = spec;  // default kPreferLeft
    StringByteSource left("<r><x k=\"1\">L</x></r>");
    StringByteSource right("<r><x k=\"1\">R</x></r>");
    std::string merged;
    StringByteSink sink(&merged);
    NEX_ASSERT_OK(StructuralMerge({&left, &right}, &sink, options));
    EXPECT_EQ(merged, "<r><x k=\"1\">L</x></r>");
  }
  {
    MergeOptions options;
    options.order = spec;
    options.text_policy = MergeOptions::TextPolicy::kConcat;
    StringByteSource left("<r><x k=\"1\">L</x></r>");
    StringByteSource right("<r><x k=\"1\">R</x></r>");
    std::string merged;
    StringByteSink sink(&merged);
    NEX_ASSERT_OK(StructuralMerge({&left, &right}, &sink, options));
    EXPECT_EQ(merged, "<r><x k=\"1\">LR</x></r>");
  }
}

TEST(StructuralMerge, RightTextKeptWhenLeftHasNone) {
  OrderSpec spec = OrderSpec::ByAttribute("k");
  MergeOptions options;
  options.order = spec;
  StringByteSource left("<r><x k=\"1\"></x></r>");
  StringByteSource right("<r><x k=\"1\">R</x></r>");
  std::string merged;
  StringByteSink sink(&merged);
  NEX_ASSERT_OK(StructuralMerge({&left, &right}, &sink, options));
  EXPECT_EQ(merged, "<r><x k=\"1\">R</x></r>");
}

TEST(StructuralMerge, MismatchedRootsRejected) {
  MergeOptions options;
  options.order = OrderSpec::ByAttribute("k");
  StringByteSource left("<a/>");
  StringByteSource right("<b/>");
  std::string merged;
  StringByteSink sink(&merged);
  EXPECT_TRUE(StructuralMerge({&left, &right}, &sink, options)
                  .IsInvalidArgument());
}

TEST(StructuralMerge, MergeOfSortedHalvesEqualsSortOfUnion) {
  // Property: splitting a document's children into two halves, sorting
  // each, and merging gives the sorted whole (keys are unique here).
  std::string left_xml = "<r>";
  std::string right_xml = "<r>";
  std::string union_xml = "<r>";
  nexsort::Random rng(55);
  for (int i = 0; i < 60; ++i) {
    std::string element =
        "<item id=\"" + std::to_string(i) + "\"><v>" + rng.Identifier(5) +
        "</v></item>";
    union_xml += element;
    (i % 2 == 0 ? left_xml : right_xml) += element;
  }
  left_xml += "</r>";
  right_xml += "</r>";
  union_xml += "</r>";

  OrderSpec spec = OrderSpec::ByAttribute("id", /*numeric=*/true);
  std::string left_sorted = SortThen(left_xml, spec);
  std::string right_sorted = SortThen(right_xml, spec);
  MergeOptions options;
  options.order = spec;
  StringByteSource left(left_sorted);
  StringByteSource right(right_sorted);
  std::string merged;
  StringByteSink sink(&merged);
  NEX_ASSERT_OK(StructuralMerge({&left, &right}, &sink, options));
  EXPECT_EQ(merged, OracleSort(union_xml, spec));
}

TEST(BatchUpdate, InsertReplaceDelete) {
  OrderSpec spec = OrderSpec::ByAttribute("id", /*numeric=*/true);
  std::string base = SortThen(
      "<db>"
      "<rec id=\"1\"><v>one</v></rec>"
      "<rec id=\"2\"><v>two</v></rec>"
      "<rec id=\"3\"><v>three</v></rec>"
      "</db>",
      spec);
  const std::string updates =
      "<db>"
      "<rec id=\"4\"><v>four</v></rec>"                       // insert
      "<rec id=\"2\" op=\"replace\"><v>TWO</v></rec>"         // replace
      "<rec id=\"3\" op=\"delete\"></rec>"                    // delete
      "</db>";

  Env env;
  BatchUpdateOptions options;
  options.order = spec;
  StringByteSource base_source(base);
  std::string result;
  StringByteSink sink(&result);
  MergeStats stats;
  NEX_ASSERT_OK(ApplyBatchUpdates(&base_source, updates, env.get(), &sink, options, &stats));
  EXPECT_EQ(result,
            "<db>"
            "<rec id=\"1\"><v>one</v></rec>"
            "<rec id=\"2\"><v>TWO</v></rec>"
            "<rec id=\"4\"><v>four</v></rec>"
            "</db>");
  EXPECT_EQ(stats.replaced, 1u);
  EXPECT_EQ(stats.deleted, 1u);
  EXPECT_EQ(stats.right_only, 1u);
  // Result remains sorted: applying an empty update keeps it identical.
  EXPECT_EQ(result, OracleSort(result, spec));
}

TEST(BatchUpdate, DeleteOfMissingElementIsSilent) {
  OrderSpec spec = OrderSpec::ByAttribute("id", /*numeric=*/true);
  std::string base = SortThen("<db><rec id=\"1\"></rec></db>", spec);
  Env env;
  BatchUpdateOptions options;
  options.order = spec;
  StringByteSource base_source(base);
  std::string result;
  StringByteSink sink(&result);
  NEX_ASSERT_OK(ApplyBatchUpdates(
      &base_source, "<db><rec id=\"9\" op=\"delete\"></rec></db>",
      env.get(), &sink, options));
  EXPECT_EQ(result, "<db><rec id=\"1\"></rec></db>");
}

TEST(NestedLoopMerge, EnrichesMatchesAndCountsRescans) {
  Env env(256, 16);
  // Right document on a counted device.
  const std::string right_xml =
      "<company>"
      "<region name=\"AC\">"
      "<branch name=\"Durham\">"
      "<employee ID=\"323\" salary=\"45000\"></employee>"
      "<employee ID=\"844\" salary=\"61000\"></employee>"
      "</branch>"
      "</region>"
      "</company>";
  auto range = StoreBytes(env.device(), env.budget(), right_xml);
  ASSERT_TRUE(range.ok());

  NestedLoopMergeOptions options;
  options.order = Figure1Spec();
  options.match_level = 4;  // employees
  NestedLoopMergeStats stats;
  StringByteSource left(kPersonnelD1);
  std::string merged;
  StringByteSink sink(&merged);
  NEX_ASSERT_OK(NestedLoopMerge(&left, env.device(), env.budget(), *range,
                                &sink, options, &stats));
  EXPECT_EQ(stats.probes, 2u);   // two employees in D1
  EXPECT_EQ(stats.matches, 1u);  // only 323 exists in the right doc
  EXPECT_GT(stats.right_bytes_scanned, 0u);
  // The matched employee gained the salary attribute.
  EXPECT_NE(merged.find("<employee ID=\"323\" salary=\"45000\">"),
            std::string::npos);
  // The unmatched one is unchanged.
  EXPECT_NE(merged.find("<employee ID=\"454\"></employee>"),
            std::string::npos);
}

TEST(NestedLoopMerge, RescanIoGrowsWithProbes) {
  // 20 probes against a right document => ~20 partial scans; the counted
  // device must show rescan reads well above a single pass.
  Env env(128, 16);
  std::string left_xml = "<r>";
  std::string right_xml = "<r>";
  for (int i = 0; i < 20; ++i) {
    left_xml += "<x id=\"" + std::to_string(i) + "\"></x>";
    right_xml += "<x id=\"" + std::to_string(i) + "\" extra=\"e" +
                 std::to_string(i) + "\"></x>";
  }
  left_xml += "</r>";
  right_xml += "</r>";
  auto range = StoreBytes(env.device(), env.budget(), right_xml);
  ASSERT_TRUE(range.ok());
  uint64_t single_pass_blocks =
      (range->byte_size + 127) / 128;

  NestedLoopMergeOptions options;
  options.order = OrderSpec::ByAttribute("id", /*numeric=*/true);
  options.match_level = 2;
  NestedLoopMergeStats stats;
  uint64_t reads_before = env.device()->stats().reads;
  StringByteSource left(left_xml);
  std::string merged;
  StringByteSink sink(&merged);
  NEX_ASSERT_OK(NestedLoopMerge(&left, env.device(), env.budget(), *range,
                                &sink, options, &stats));
  uint64_t reads = env.device()->stats().reads - reads_before;
  EXPECT_EQ(stats.probes, 20u);
  EXPECT_EQ(stats.matches, 20u);
  EXPECT_GT(reads, 3 * single_pass_blocks);
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
