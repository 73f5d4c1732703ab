// Structural diff: the batch-update inverse. The headline property:
// ApplyBatchUpdates(base, StructuralDiff(base, target)) == target.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "merge/batch_update.h"
#include "merge/event_stream.h"
#include "merge/structural_diff.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "xml/generator.h"

namespace nexsort {
namespace testing {
namespace {

std::string Sort(std::string_view xml, const OrderSpec& spec) {
  NexSortOptions options;
  options.order = spec;
  return NexSortString(xml, options);
}

std::string Diff(const std::string& base, const std::string& target,
                 const OrderSpec& spec, DiffStats* stats = nullptr,
                 size_t buffer_limit = 64 * 1024) {
  DiffOptions options;
  options.order = spec;
  options.buffer_limit = buffer_limit;
  StringByteSource base_source(base);
  StringByteSource target_source(target);
  std::string out;
  StringByteSink sink(&out);
  Status st =
      StructuralDiff(&base_source, &target_source, &sink, options, stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

std::string Apply(const std::string& base, const std::string& batch,
                  const OrderSpec& spec) {
  Env env;
  BatchUpdateOptions options;
  options.order = spec;
  StringByteSource base_source(base);
  std::string out;
  StringByteSink sink(&out);
  Status st = ApplyBatchUpdates(&base_source, batch, env.get(), &sink, options);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out;
}

TEST(StructuralDiff, IdenticalDocumentsGiveEmptyBatch) {
  OrderSpec spec = OrderSpec::ByAttribute("id", true);
  std::string doc = Sort(
      "<db><rec id=\"1\"><v>x</v></rec><rec id=\"2\"><v>y</v></rec></db>",
      spec);
  DiffStats stats;
  std::string batch = Diff(doc, doc, spec, &stats);
  EXPECT_EQ(batch, "<db></db>");
  EXPECT_EQ(stats.unchanged, 2u);
  EXPECT_EQ(stats.inserted + stats.deleted + stats.replaced, 0u);
  EXPECT_EQ(Apply(doc, batch, spec), doc);
}

TEST(StructuralDiff, DetectsInsertDeleteReplace) {
  OrderSpec spec = OrderSpec::ByAttribute("id", true);
  std::string base = Sort(
      "<db>"
      "<rec id=\"1\"><v>one</v></rec>"
      "<rec id=\"2\"><v>two</v></rec>"
      "<rec id=\"3\"><v>three</v></rec>"
      "</db>",
      spec);
  std::string target = Sort(
      "<db>"
      "<rec id=\"1\"><v>one</v></rec>"       // unchanged
      "<rec id=\"2\"><v>TWO</v></rec>"       // changed
      "<rec id=\"4\"><v>four</v></rec>"      // inserted (3 deleted)
      "</db>",
      spec);
  DiffStats stats;
  std::string batch = Diff(base, target, spec, &stats);
  EXPECT_EQ(stats.unchanged, 1u);
  EXPECT_EQ(stats.replaced, 1u);
  EXPECT_EQ(stats.deleted, 1u);
  EXPECT_EQ(stats.inserted, 1u);
  EXPECT_NE(batch.find("op=\"replace\""), std::string::npos);
  EXPECT_NE(batch.find("op=\"delete\""), std::string::npos);
  EXPECT_EQ(Apply(base, batch, spec), target);
}

TEST(StructuralDiff, NestedChangesGetLazyWrappers) {
  OrderSpec spec = OrderSpec::ByAttribute("name");
  std::string base = Sort(
      "<cfg>"
      "<svc name=\"cache\"><opt name=\"size\" v=\"1G\"></opt></svc>"
      "<svc name=\"db\"><opt name=\"port\" v=\"5432\"></opt>"
      "<opt name=\"tls\" v=\"off\"></opt></svc>"
      "</cfg>",
      spec);
  std::string target = Sort(
      "<cfg>"
      "<svc name=\"cache\"><opt name=\"size\" v=\"1G\"></opt></svc>"
      "<svc name=\"db\"><opt name=\"port\" v=\"5432\"></opt>"
      "<opt name=\"tls\" v=\"on\"></opt></svc>"
      "</cfg>",
      spec);
  DiffStats stats;
  std::string batch = Diff(base, target, spec, &stats, /*buffer_limit=*/16);
  // The unchanged cache service must NOT appear in the batch; the db
  // wrapper must (its tls option changed).
  EXPECT_EQ(batch.find("cache"), std::string::npos);
  EXPECT_NE(batch.find("<svc name=\"db\">"), std::string::npos);
  EXPECT_EQ(Apply(base, batch, spec), target);
}

TEST(StructuralDiff, RoundTripOnRandomDocumentPairs) {
  // Random mutations of a generated document: the diff applied to the base
  // must always reproduce the target exactly.
  OrderSpec spec = OrderSpec::ByAttribute("id", true);
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    nexsort::Random rng(seed);
    // Base: records with unique ids and nested payloads.
    std::string base_xml = "<r>";
    std::string target_xml = "<r>";
    for (int i = 0; i < 60; ++i) {
      std::string payload = "<p><q>" + rng.Identifier(6) + "</q></p>";
      std::string element =
          "<x id=\"" + std::to_string(i) + "\">" + payload + "</x>";
      uint64_t fate = rng.Uniform(4);
      if (fate != 0) base_xml += element;  // 0 => insert-only in target
      if (fate == 1) {
        // mutate for the target
        target_xml += "<x id=\"" + std::to_string(i) + "\"><p><q>CHANGED" +
                      rng.Identifier(3) + "</q></p></x>";
      } else if (fate != 2) {  // 2 => deleted from target
        target_xml += element;
      }
    }
    base_xml += "</r>";
    target_xml += "</r>";

    std::string base = Sort(base_xml, spec);
    std::string target = Sort(target_xml, spec);
    std::string batch = Diff(base, target, spec);
    EXPECT_EQ(Apply(base, batch, spec), target) << "seed " << seed;
  }
}

TEST(StructuralDiff, OversizedSubtreesRecurseStructurally) {
  // A tiny buffer limit forces the unread/recursion path everywhere.
  OrderSpec spec = OrderSpec::ByAttribute("id", true);
  std::string base = Sort(
      "<r><g id=\"1\"><x id=\"1\"/><x id=\"2\"/><x id=\"3\"/></g>"
      "<g id=\"2\"><x id=\"9\"/></g></r>",
      spec);
  std::string target = Sort(
      "<r><g id=\"1\"><x id=\"1\"/><x id=\"3\"/><x id=\"4\"/></g>"
      "<g id=\"2\"><x id=\"9\"/></g></r>",
      spec);
  DiffStats stats;
  std::string batch = Diff(base, target, spec, &stats, /*buffer_limit=*/8);
  EXPECT_GT(stats.descended, 0u);
  EXPECT_EQ(Apply(base, batch, spec), target);
}

TEST(StructuralDiff, NestedOversizedSubtreesRoundTrip) {
  // Three levels of matched elements over a small buffer: every level
  // unreads its probed prefix in front of a prefix unread by the level
  // above, and the diff must still apply back to the target.
  OrderSpec spec = OrderSpec::ByAttribute("id", true);
  nexsort::Random rng(99);
  for (int round = 0; round < 20; ++round) {
    std::string base_xml = "<r>";
    std::string target_xml = "<r>";
    for (int g = 0; g < 3; ++g) {
      std::string open_g = "<g id=\"" + std::to_string(g) + "\">";
      base_xml += open_g;
      target_xml += open_g;
      for (int h = 0; h < 3; ++h) {
        std::string open_h = "<h id=\"" + std::to_string(h) + "\">";
        base_xml += open_h;
        target_xml += open_h;
        for (int x = 0; x < 4; ++x) {
          std::string leaf = "<x id=\"" + std::to_string(x) + "\" v=\"" +
                             rng.Identifier(2) + "\"/>";
          uint64_t fate = rng.Uniform(5);
          if (fate != 0) base_xml += leaf;  // 0 => inserted
          if (fate == 1) {
            target_xml += "<x id=\"" + std::to_string(x) + "\" v=\"new\"/>";
          } else if (fate != 2) {  // 2 => deleted
            target_xml += leaf;
          }
        }
        base_xml += "</h>";
        target_xml += "</h>";
      }
      base_xml += "</g>";
      target_xml += "</g>";
    }
    base_xml += "</r>";
    target_xml += "</r>";
    std::string base = Sort(base_xml, spec);
    std::string target = Sort(target_xml, spec);
    for (size_t limit : {8u, 40u, 200u}) {
      DiffStats stats;
      std::string batch = Diff(base, target, spec, &stats, limit);
      EXPECT_EQ(Apply(base, batch, spec), target)
          << "round " << round << ", buffer " << limit;
      if (limit == 8) {
        EXPECT_GE(stats.descended, 12u);  // every g and h
      }
    }
  }
}

TEST(StructuralDiff, EventStreamUnreadsNest) {
  // Unread events replay in stream order before the parser resumes; an
  // unread issued while earlier unread events are pending goes in front
  // of them.
  const std::string doc = "<r><a>t</a><b/><c><d/></c></r>";
  auto trace = [](merge_internal::EventStream* stream,
                  std::vector<XmlEvent>* events) {
    while (true) {
      NEX_ASSERT_OK(stream->Advance());
      if (stream->done()) return;
      events->push_back(stream->current());
    }
  };
  std::vector<XmlEvent> expected;
  {
    StringByteSource source(doc);
    merge_internal::EventStream stream(&source);
    trace(&stream, &expected);
  }
  ASSERT_EQ(expected.size(), 11u);

  auto same = [](const std::vector<XmlEvent>& a,
                 const std::vector<XmlEvent>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].type != b[i].type || a[i].name != b[i].name ||
          a[i].text != b[i].text) {
        return false;
      }
    }
    return true;
  };
  StringByteSource source(doc);
  merge_internal::EventStream stream(&source);
  std::vector<XmlEvent> outer;  // <r> <a> t </a> <b>
  for (int i = 0; i < 5; ++i) {
    NEX_ASSERT_OK(stream.Advance());
    outer.push_back(stream.current());
  }
  NEX_ASSERT_OK(stream.Advance());  // </b>, then push <r>..<b> back
  stream.Unread(outer);
  std::vector<XmlEvent> inner;  // <r> <a> t, read back from the unread
  for (int i = 0; i < 3; ++i) {
    inner.push_back(stream.current());
    NEX_ASSERT_OK(stream.Advance());
  }
  stream.Unread(inner);
  std::vector<XmlEvent> replayed = {stream.current()};
  trace(&stream, &replayed);
  EXPECT_TRUE(same(replayed, expected));

  // Unreading at the end of the document makes the stream live again.
  std::vector<XmlEvent> tail(expected.end() - 2, expected.end());
  stream.Unread(tail);
  EXPECT_FALSE(stream.done());
  std::vector<XmlEvent> replayed_tail = {stream.current()};
  trace(&stream, &replayed_tail);
  EXPECT_TRUE(same(replayed_tail, tail));
}

TEST(StructuralDiff, BatchIsItselfSorted) {
  OrderSpec spec = OrderSpec::ByAttribute("id", true);
  std::string base = Sort("<r><x id=\"2\"/><x id=\"5\"/></r>", spec);
  std::string target =
      Sort("<r><x id=\"1\"/><x id=\"3\"/><x id=\"9\"/></r>", spec);
  std::string batch = Diff(base, target, spec);
  // inserts 1,3,9 and deletes 2,5 interleaved in key order.
  EXPECT_LT(batch.find("id=\"1\""), batch.find("id=\"2\""));
  EXPECT_LT(batch.find("id=\"2\""), batch.find("id=\"3\""));
  EXPECT_LT(batch.find("id=\"3\""), batch.find("id=\"5\""));
  EXPECT_LT(batch.find("id=\"5\""), batch.find("id=\"9\""));
}

TEST(StructuralDiff, RootMismatchRejected) {
  DiffOptions options;
  options.order = OrderSpec::ByAttribute("id");
  StringByteSource base("<a/>");
  StringByteSource target("<b/>");
  std::string out;
  StringByteSink sink(&out);
  EXPECT_TRUE(StructuralDiff(&base, &target, &sink, options)
                  .IsInvalidArgument());

  StringByteSource base2("<a v=\"1\"/>");
  StringByteSource target2("<a v=\"2\"/>");
  EXPECT_TRUE(StructuralDiff(&base2, &target2, &sink, options)
                  .IsNotSupported());
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
