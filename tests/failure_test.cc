// Failure injection and misuse: device errors must propagate as Status (no
// crashes, no silent corruption), malformed XML is rejected, API misuse is
// reported, and budget exhaustion is a clean error.
#include <gtest/gtest.h>

#include "merge/structural_merge.h"
#include "tests/test_util.h"
#include "xml/generator.h"

namespace nexsort {
namespace testing {
namespace {

std::string TestDocument() {
  RandomTreeGenerator generator(4, 6, {.seed = 60, .element_bytes = 100});
  auto xml = generator.GenerateString();
  EXPECT_TRUE(xml.ok());
  return xml.ok() ? std::move(xml).value() : std::string();
}

TEST(Failure, DeviceErrorAtEveryStagePropagates) {
  // Run clean once to learn the total I/O count, then re-run failing at a
  // spread of points across the sort (early scan, subtree sorts, run
  // writes, output phase). Every run must fail with IOError — never crash,
  // never report success.
  std::string xml = TestDocument();
  uint64_t total_ops = 0;
  {
    Env env(512, 8);
    NexSortOptions options;
    options.order = OrderSpec::ByAttribute("id", true);
    NexSorter sorter(env.get(), options);
    StringByteSource source(xml);
    std::string out;
    StringByteSink sink(&out);
    NEX_ASSERT_OK(sorter.Sort(&source, &sink));
    total_ops = env.device()->stats().total();
  }
  ASSERT_GT(total_ops, 8u);

  for (uint64_t point :
       {uint64_t{0}, total_ops / 4, total_ops / 2, 3 * total_ops / 4,
        total_ops - 1}) {
    Env env(512, 8);
    NexSortOptions options;
    options.order = OrderSpec::ByAttribute("id", true);
    NexSorter sorter(env.get(), options);
    env.device()->FailAfterOps(point, 1);
    StringByteSource source(xml);
    std::string out;
    StringByteSink sink(&out);
    Status st = sorter.Sort(&source, &sink);
    EXPECT_TRUE(st.IsIOError())
        << "failure at op " << point << ": " << st.ToString();
  }
}

TEST(Failure, MalformedXmlRejectedCleanly) {
  for (const char* bad :
       {"<a><b></a>", "<a", "", "<a>&nope;</a>", "text", "<a/><b/>",
        "<a x=1></a>", "<a><![CDATA[open</a>"}) {
    Env env;
    NexSortOptions options;
    options.order = OrderSpec::ByAttribute("id", true);
    NexSorter sorter(env.get(), options);
    StringByteSource source(bad);
    std::string out;
    StringByteSink sink(&out);
    Status st = sorter.Sort(&source, &sink);
    EXPECT_TRUE(st.IsParseError()) << "input: " << bad << " -> "
                                   << st.ToString();
  }
}

TEST(Failure, TinyBudgetRejected) {
  Env env(512, 4);
  NexSortOptions options;
  options.order = OrderSpec::ByAttribute("id", true);
  NexSorter sorter(env.get(), options);
  StringByteSource source("<a/>");
  std::string out;
  StringByteSink sink(&out);
  EXPECT_TRUE(sorter.Sort(&source, &sink).IsInvalidArgument());
}

TEST(Failure, SorterIsSingleUse) {
  Env env;
  NexSortOptions options;
  options.order = OrderSpec::ByAttribute("id", true);
  NexSorter sorter(env.get(), options);
  StringByteSource source("<a><b id=\"1\"/></a>");
  std::string out;
  StringByteSink sink(&out);
  NEX_ASSERT_OK(sorter.Sort(&source, &sink));
  StringByteSource again("<a/>");
  EXPECT_TRUE(sorter.Sort(&again, &sink).IsInvalidArgument());
}

TEST(Failure, KeyPathBaselineRejectsComplexRules) {
  Env env;
  KeyPathSortOptions options;
  OrderRule rule;
  rule.source = KeySource::kChildText;
  rule.argument = "a/b";
  options.order.AddRule(rule);
  KeyPathXmlSorter sorter(env.get(), options);
  StringByteSource source("<a/>");
  std::string out;
  StringByteSink sink(&out);
  EXPECT_TRUE(sorter.Sort(&source, &sink).IsNotSupported());
}

TEST(Failure, StructuralMergeRejectsComplexRules) {
  MergeOptions options;
  OrderRule rule;
  rule.source = KeySource::kChildText;
  rule.argument = "k";
  options.order.AddRule(rule);
  StringByteSource left("<a/>");
  StringByteSource right("<a/>");
  std::string out;
  StringByteSink sink(&out);
  EXPECT_TRUE(
      StructuralMerge({&left, &right}, &sink, options).IsNotSupported());
}

TEST(Failure, MergeRejectsMalformedInput) {
  MergeOptions options;
  options.order = OrderSpec::ByAttribute("id");
  StringByteSource left("<a><broken</a>");
  StringByteSource right("<a/>");
  std::string out;
  StringByteSink sink(&out);
  EXPECT_FALSE(StructuralMerge({&left, &right}, &sink, options).ok());
}

TEST(Failure, HugeSingleElementDocument) {
  // One element whose attribute dwarfs the block size: must still sort.
  std::string xml =
      "<r><x id=\"2\" blob=\"" + std::string(5000, 'b') + "\"/>"
      "<x id=\"1\"/></r>";
  NexSortOptions options;
  options.order = OrderSpec::ByAttribute("id", true);
  std::string sorted = NexSortString(xml, options, 512, 16);
  EXPECT_EQ(sorted, OracleSort(xml, options.order));
}

TEST(Failure, DocumentWithOnlyRoot) {
  NexSortOptions options;
  options.order = OrderSpec::ByAttribute("id", true);
  EXPECT_EQ(NexSortString("<solo/>", options), "<solo></solo>");
}

TEST(Failure, DuplicateKeysKeepDocumentOrder) {
  const std::string xml =
      "<r><x id=\"5\" tag=\"first\"/><x id=\"5\" tag=\"second\"/>"
      "<x id=\"5\" tag=\"third\"/></r>";
  NexSortOptions options;
  options.order = OrderSpec::ByAttribute("id", true);
  std::string sorted = NexSortString(xml, options);
  EXPECT_LT(sorted.find("first"), sorted.find("second"));
  EXPECT_LT(sorted.find("second"), sorted.find("third"));
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
