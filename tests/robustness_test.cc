// Robustness sweeps: randomly mutated inputs must never crash or corrupt —
// every run ends in either a clean Status error or a successful sort whose
// output passes independent verification.
#include <gtest/gtest.h>

#include "core/sorted_check.h"
#include "nested/json.h"
#include "service/wire.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "xml/generator.h"

namespace nexsort {
namespace testing {
namespace {

TEST(Robustness, MutatedXmlNeverCrashesTheSorter) {
  RandomTreeGenerator generator(4, 5, {.seed = 700, .element_bytes = 40});
  auto base = generator.GenerateString();
  ASSERT_TRUE(base.ok());

  Random rng(701);
  int successes = 0;
  int failures = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string xml = *base;
    // 1-4 random byte mutations: overwrite, delete, or insert.
    int mutations = 1 + rng.Uniform(4);
    for (int m = 0; m < mutations && !xml.empty(); ++m) {
      size_t at = rng.Uniform(xml.size());
      switch (rng.Uniform(3)) {
        case 0: xml[at] = static_cast<char>(rng.Uniform(256)); break;
        case 1: xml.erase(at, 1); break;
        case 2: xml.insert(at, 1, static_cast<char>(rng.Uniform(256))); break;
      }
    }

    Env env(512, 10);
    NexSortOptions options;
    options.order = OrderSpec::ByAttribute("id", true);
    NexSorter sorter(env.get(), options);
    StringByteSource source(xml);
    std::string out;
    StringByteSink sink(&out);
    Status st = sorter.Sort(&source, &sink);
    if (st.ok()) {
      ++successes;
      // If the mutation left well-formed XML, the output must be sorted.
      auto report = CheckSorted(out, options.order);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_TRUE(report->sorted) << report->violation;
    } else {
      ++failures;
      EXPECT_TRUE(st.IsParseError() || st.IsCorruption())
          << "trial " << trial << ": " << st.ToString();
    }
    // Budget hygiene regardless of outcome.
    EXPECT_EQ(env.budget()->used_blocks(), 0u);
  }
  // Sanity: the sweep exercised both paths.
  EXPECT_GT(failures, 10);
  EXPECT_GT(successes + failures, 0);
}

TEST(Robustness, MutatedJsonNeverCrashesTheSorter) {
  const std::string base =
      "{\"users\":[{\"id\":3,\"name\":\"ann\"},{\"id\":1,\"name\":\"bob\"}],"
      "\"total\":2,\"tags\":[\"x\",\"y\"],\"meta\":{\"v\":1.5,\"ok\":true}}";
  Random rng(702);
  int failures = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::string json = base;
    size_t at = rng.Uniform(json.size());
    switch (rng.Uniform(3)) {
      case 0: json[at] = static_cast<char>(rng.Uniform(128)); break;
      case 1: json.erase(at, 1); break;
      case 2: json.insert(at, 1, static_cast<char>(rng.Uniform(128))); break;
    }
    Env env(512, 12);
    JsonSortOptions options;
    options.sort_arrays_by = "id";
    options.numeric_array_keys = true;
    JsonSorter sorter(env.get(), options);
    StringByteSource source(json);
    std::string out;
    StringByteSink sink(&out);
    Status st = sorter.Sort(&source, &sink);
    if (!st.ok()) ++failures;
    EXPECT_EQ(env.budget()->used_blocks(), 0u);
  }
  EXPECT_GT(failures, 20);
}

TEST(Robustness, WireAndSorterAcceptTheSameMutatedJson) {
  // One JSON reader behind both front ends: a mutated document is either
  // accepted by both or rejected by both. The wire alone bounds nesting at
  // 64 levels and rejects numbers that overflow a double.
  std::string base =
      "{\"users\":[{\"id\":3,\"name\":\"a\\u00e9\\n\"},{\"id\":-1.5e2}],"
      "\"big\":1e308,\"ok\":[true,false,null],\"s\":\"q\\\"\\ud83d\\ude00\","
      "\"deep\":";
  for (int i = 0; i < 63; ++i) base += "[";  // innermost value at depth 64
  base += "0";
  for (int i = 0; i < 63; ++i) base += "]";
  base += "}";
  const std::string alphabet = "{}[],:\"\\ \t\n0123456789eE.-+tfnu";

  Random rng(703);
  int accepted = 0;
  int rejected = 0;
  int wire_only = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string json = base;
    int mutations = 1 + rng.Uniform(2);
    for (int m = 0; m < mutations; ++m) {
      size_t at = rng.Uniform(json.size());
      char c = rng.OneIn(4) ? static_cast<char>(rng.Uniform(256))
                            : alphabet[rng.Uniform(alphabet.size())];
      switch (rng.Uniform(4)) {
        case 0: json[at] = c; break;
        case 1: json.erase(at, 1); break;
        case 2: json.insert(at, 1, c); break;
        case 3: json = "[" + json + "]"; break;  // one level deeper
      }
    }

    auto wire = JsonValue::Parse(json);
    Env env(512, 12);
    JsonSortOptions options;
    options.sort_arrays_by = "id";
    options.numeric_array_keys = true;
    JsonSorter sorter(env.get(), options);
    StringByteSource source(json);
    std::string out;
    StringByteSink sink(&out);
    Status st = sorter.Sort(&source, &sink);
    EXPECT_EQ(env.budget()->used_blocks(), 0u);

    if (st.ok() && !wire.ok()) {
      const std::string message = wire.status().ToString();
      EXPECT_TRUE(message.find("nesting too deep") != std::string::npos ||
                  message.find("malformed number") != std::string::npos)
          << "trial " << trial << ": only the wire rejected: " << message;
      ++wire_only;
      continue;
    }
    EXPECT_EQ(st.ok(), wire.ok())
        << "trial " << trial << ": sorter " << st.ToString() << ", wire "
        << (wire.ok() ? "OK" : wire.status().ToString());
    if (st.ok()) {
      ++accepted;
    } else {
      ++rejected;
      EXPECT_TRUE(st.IsParseError()) << st.ToString();
    }
  }
  EXPECT_GT(accepted, 30);
  EXPECT_GT(rejected, 30);
  EXPECT_GT(wire_only, 0);
}

TEST(Robustness, PathologicalDocumentShapes) {
  NexSortOptions base_options;
  base_options.order = OrderSpec::ByAttribute("id", true);

  // A 3000-deep chain: stacks must page without recursion blowups.
  {
    std::string xml;
    const int depth = 3000;
    for (int i = 0; i < depth; ++i) {
      xml += "<c id=\"" + std::to_string(depth - i) + "\">";
    }
    for (int i = 0; i < depth; ++i) xml += "</c>";
    NexSortOptions options = base_options;
    std::string sorted = NexSortString(xml, options, 512, 10);
    EXPECT_EQ(sorted, OracleSort(xml, base_options.order));
  }

  // A 5000-wide star with tiny memory.
  {
    std::string xml = "<r>";
    Random rng(703);
    for (int i = 0; i < 5000; ++i) {
      xml += "<x id=\"" + std::to_string(rng.Uniform(100000)) + "\"/>";
    }
    xml += "</r>";
    NexSortOptions options = base_options;
    std::string sorted = NexSortString(xml, options, 512, 8);
    EXPECT_EQ(sorted, OracleSort(xml, base_options.order));
  }

  // Attribute values hostile to escaping and to the key encodings.
  {
    const std::string xml =
        "<r><a id=\"&lt;&amp;&quot;\"/><a id=\"\"/><a id=\"  spaces  \"/>"
        "<a id=\"&#9;tab\"/></r>";
    NexSortOptions options = base_options;
    options.order = OrderSpec::ByAttribute("id");  // lexicographic
    std::string sorted = NexSortString(xml, options);
    EXPECT_EQ(sorted, OracleSort(xml, options.order));
  }
}

TEST(Robustness, ManyDistinctTagNamesStressTheDictionary) {
  std::string xml = "<r>";
  Random rng(704);
  for (int i = 0; i < 2000; ++i) {
    std::string tag = "t" + std::to_string(i);
    xml += "<" + tag + " id=\"" + std::to_string(rng.Uniform(100)) + "\"></" +
           tag + ">";
  }
  xml += "</r>";
  NexSortOptions options;
  options.order = OrderSpec::ByAttribute("id", true);
  std::string sorted = NexSortString(xml, options, 512, 10);
  EXPECT_EQ(sorted, OracleSort(xml, options.order));
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
