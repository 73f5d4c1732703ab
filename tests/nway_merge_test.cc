// N-way structural merge: the archiving use case (merge many sorted
// versions in one simultaneous pass), and the text rule shared by every
// input count.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/sorted_check.h"
#include "merge/structural_merge.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace nexsort {
namespace testing {
namespace {

std::string Sort(std::string_view xml, const OrderSpec& spec) {
  NexSortOptions options;
  options.order = spec;
  return NexSortString(xml, options);
}

Status MergeMany(const std::vector<std::string>& docs, const OrderSpec& spec,
                 std::string* out, MergeStats* stats = nullptr,
                 MergeOptions::TextPolicy text_policy =
                     MergeOptions::TextPolicy::kPreferLeft) {
  std::vector<std::unique_ptr<StringByteSource>> owned;
  std::vector<ByteSource*> sources;
  for (const std::string& doc : docs) {
    owned.push_back(std::make_unique<StringByteSource>(doc));
    sources.push_back(owned.back().get());
  }
  MergeOptions options;
  options.order = spec;
  options.text_policy = text_policy;
  StringByteSink sink(out);
  return StructuralMerge(sources, &sink, options, stats);
}

// Random sorted mixed-content children: text before, between and after
// child elements, unique keys per sibling list (drawn in ascending order
// from [0, 40)), every text node a distinct token "[<doc>.<n>]" so it can
// be found in a merged output.
void MixedChildren(nexsort::Random& rng, int doc, int depth, int* texts,
                   std::string* out) {
  auto text = [&] {
    if (rng.OneIn(2)) {
      *out += "[" + std::to_string(doc) + "." + std::to_string((*texts)++) +
              "]";
    }
  };
  text();
  for (int key = 0; key < 40; ++key) {
    if (!rng.OneIn(8)) continue;
    std::string tag = rng.OneIn(2) ? "x" : "y";
    char padded[8];
    std::snprintf(padded, sizeof(padded), "%02d", key);
    *out += "<" + tag + " k=\"" + padded + "\">";
    if (depth < 3) MixedChildren(rng, doc, depth + 1, texts, out);
    *out += "</" + tag + ">";
    text();
  }
}

std::string MixedDocument(nexsort::Random& rng, int doc) {
  int texts = 0;
  std::string xml = "<r>";
  MixedChildren(rng, doc, 0, &texts, &xml);
  return xml + "</r>";
}

TEST(NWayMerge, ThreeWayBasic) {
  OrderSpec spec = OrderSpec::ByAttribute("k");
  std::vector<std::string> docs = {
      Sort("<r><x k=\"b\" from=\"1\"/></r>", spec),
      Sort("<r><x k=\"a\" from=\"2\"/></r>", spec),
      Sort("<r><x k=\"c\" from=\"3\"/><x k=\"a\" extra=\"e\"/></r>", spec),
  };
  std::string merged;
  MergeStats stats;
  NEX_ASSERT_OK(MergeMany(docs, spec, &merged, &stats));
  EXPECT_EQ(merged,
            "<r><x k=\"a\" from=\"2\" extra=\"e\"></x>"
            "<x k=\"b\" from=\"1\"></x>"
            "<x k=\"c\" from=\"3\"></x></r>");
  EXPECT_EQ(stats.matched_elements, 1u);  // the k="a" pair
  EXPECT_EQ(stats.left_only, 1u);         // b, only in input 0
  EXPECT_EQ(stats.right_only, 1u);        // c, only in input 2
}

TEST(NWayMerge, SingleInputIsIdentity) {
  OrderSpec spec = OrderSpec::ByAttribute("k");
  std::string doc = Sort("<r><x k=\"1\">text</x><x k=\"2\"/></r>", spec);
  std::string merged;
  NEX_ASSERT_OK(MergeMany({doc}, spec, &merged));
  EXPECT_EQ(merged, doc);
}

TEST(NWayMerge, TwoWayAgreesWithPairwiseMerger) {
  // Two-input mixed-content merges, byte-compared with the output of the
  // former dedicated two-input merger (pinned): two inputs follow exactly
  // the pairwise rules, text and stats included.
  struct Case {
    const char* left;
    const char* right;
    const char* prefer_left;
    const char* concat;
    uint64_t matched, left_only, right_only;
  };
  const Case cases[] = {
      {"<r>lead<x k=\"1\">a<y k=\"2\"></y>b</x>mid<x k=\"3\">c</x>tail</r>",
       "<r>R<x k=\"1\">p<y k=\"2\">q</y>s<y k=\"4\"></y>u</x>"
       "<x k=\"2\">v</x>end</r>",
       "<r>lead<x k=\"1\">a<y k=\"2\">q</y>b<y k=\"4\"></y></x>mid"
       "<x k=\"2\">v</x><x k=\"3\">c</x>tail</r>",
       "<r>leadR<x k=\"1\">ap<y k=\"2\">q</y>bs<y k=\"4\"></y>u</x>mid"
       "<x k=\"2\">v</x>end<x k=\"3\">c</x>tail</r>",
       2, 1, 2},
      {"<r><x k=\"1\"><y k=\"1\">t1</y>after</x></r>",
       "<r>only-right<x k=\"1\">before<y k=\"0\">z</y><y k=\"1\">t2</y>"
       "</x></r>",
       "<r>only-right<x k=\"1\">before<y k=\"0\">z</y><y k=\"1\">t1</y>"
       "after</x></r>",
       "<r>only-right<x k=\"1\">before<y k=\"0\">z</y><y k=\"1\">t1t2</y>"
       "after</x></r>",
       2, 0, 1},
      {"<r><x k=\"1\" a=\"l\"></x><x k=\"2\">left<z></z></x></r>",
       "<r>x<x k=\"1\" a=\"r\" b=\"r\">only<z></z>right</x>"
       "<x k=\"2\"><z>in</z>more</x></r>",
       "<r>x<x k=\"1\" a=\"l\" b=\"r\">only<z></z>right</x>"
       "<x k=\"2\">left<z>in</z></x></r>",
       "<r>x<x k=\"1\" a=\"l\" b=\"r\">only<z></z>right</x>"
       "<x k=\"2\">left<z>in</z>more</x></r>",
       3, 0, 1},
  };
  OrderSpec spec = OrderSpec::ByAttribute("k");
  for (const Case& c : cases) {
    for (auto policy : {MergeOptions::TextPolicy::kPreferLeft,
                        MergeOptions::TextPolicy::kConcat}) {
      std::string merged;
      MergeStats stats;
      NEX_ASSERT_OK(
          MergeMany({c.left, c.right}, spec, &merged, &stats, policy));
      EXPECT_EQ(merged, policy == MergeOptions::TextPolicy::kConcat
                            ? c.concat
                            : c.prefer_left);
      EXPECT_EQ(stats.matched_elements, c.matched);
      EXPECT_EQ(stats.left_only, c.left_only);
      EXPECT_EQ(stats.right_only, c.right_only);
    }
  }
}

TEST(NWayMerge, SelfMergeKeepsAllText) {
  // Merging a mixed-content document with copies of itself is the
  // identity: the first input keeps every text node, including text after
  // a matched child.
  OrderSpec spec = OrderSpec::ByAttribute("k");
  nexsort::Random rng(2026);
  for (int round = 0; round < 40; ++round) {
    std::string doc = MixedDocument(rng, 0);
    for (size_t copies = 1; copies <= 3; ++copies) {
      std::string merged;
      NEX_ASSERT_OK(MergeMany(std::vector<std::string>(copies, doc), spec,
                              &merged));
      ASSERT_EQ(merged, doc) << copies << " copies, round " << round;
    }
  }
}

TEST(NWayMerge, ConcatKeepsEveryTextNode) {
  OrderSpec spec = OrderSpec::ByAttribute("k");
  nexsort::Random rng(4711);
  for (int round = 0; round < 30; ++round) {
    std::vector<std::string> docs;
    for (int d = 0; d < 3; ++d) docs.push_back(MixedDocument(rng, d));
    for (size_t n = 2; n <= docs.size(); ++n) {
      std::vector<std::string> inputs(docs.begin(), docs.begin() + n);
      std::string merged;
      NEX_ASSERT_OK(MergeMany(inputs, spec, &merged, nullptr,
                              MergeOptions::TextPolicy::kConcat));
      for (const std::string& doc : inputs) {
        for (size_t open = doc.find('['); open != std::string::npos;
             open = doc.find('[', open + 1)) {
          std::string token = doc.substr(open, doc.find(']', open) - open + 1);
          EXPECT_NE(merged.find(token), std::string::npos)
              << token << " lost merging " << n << " inputs, round " << round;
        }
      }
    }
  }
}

TEST(NWayMerge, ManyWayEqualsIteratedTwoWay) {
  // Merging 5 documents at once == folding them pairwise (for unique keys
  // and kPreferLeft text, both equal the sorted union).
  OrderSpec spec = OrderSpec::ByAttribute("id", /*numeric=*/true);
  nexsort::Random rng(77);
  std::vector<std::string> docs;
  std::string union_xml = "<r>";
  for (int d = 0; d < 5; ++d) {
    std::string doc = "<r>";
    for (int i = 0; i < 12; ++i) {
      int id = d * 100 + i;
      std::string element = "<item id=\"" + std::to_string(id) + "\"><v>" +
                            rng.Identifier(6) + "</v></item>";
      doc += element;
      union_xml += element;
    }
    doc += "</r>";
    docs.push_back(Sort(doc, spec));
  }
  union_xml += "</r>";

  std::string nway;
  NEX_ASSERT_OK(MergeMany(docs, spec, &nway));
  EXPECT_EQ(nway, OracleSort(union_xml, spec));

  auto report = CheckSorted(nway, spec);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->sorted);
}

TEST(NWayMerge, DeepVersionedArchive) {
  // Three "versions" of a nested document; later versions add elements and
  // attributes. The archive carries the union, leftmost (oldest input
  // listed first) attribute values winning.
  OrderSpec spec = OrderSpec::ByAttribute("name");
  std::vector<std::string> versions = {
      Sort("<cfg><svc name=\"db\"><opt name=\"port\" v=\"5432\"/></svc>"
           "</cfg>",
           spec),
      Sort("<cfg><svc name=\"db\"><opt name=\"port\" v=\"9999\"/>"
           "<opt name=\"tls\" v=\"on\"/></svc></cfg>",
           spec),
      Sort("<cfg><svc name=\"cache\"><opt name=\"size\" v=\"1G\"/></svc>"
           "</cfg>",
           spec),
  };
  std::string merged;
  NEX_ASSERT_OK(MergeMany(versions, spec, &merged));
  EXPECT_EQ(merged,
            "<cfg>"
            "<svc name=\"cache\"><opt name=\"size\" v=\"1G\"></opt></svc>"
            "<svc name=\"db\">"
            "<opt name=\"port\" v=\"5432\"></opt>"
            "<opt name=\"tls\" v=\"on\"></opt>"
            "</svc>"
            "</cfg>");
}

TEST(NWayMerge, RejectsUpdateOpsAndEmptyInput) {
  MergeOptions options;
  options.order = OrderSpec::ByAttribute("k");
  options.apply_update_ops = true;
  StringByteSource a("<r/>");
  std::vector<ByteSource*> one = {&a};
  std::string out;
  StringByteSink sink(&out);
  EXPECT_TRUE(StructuralMerge(one, &sink, options).IsNotSupported());

  MergeOptions plain;
  plain.order = OrderSpec::ByAttribute("k");
  EXPECT_TRUE(StructuralMerge({}, &sink, plain).IsInvalidArgument());
}

TEST(NWayMerge, MismatchedRootsRejected) {
  MergeOptions options;
  options.order = OrderSpec::ByAttribute("k");
  StringByteSource a("<r/>");
  StringByteSource b("<other/>");
  std::vector<ByteSource*> inputs = {&a, &b};
  std::string out;
  StringByteSink sink(&out);
  EXPECT_TRUE(StructuralMerge(inputs, &sink, options).IsInvalidArgument());
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
