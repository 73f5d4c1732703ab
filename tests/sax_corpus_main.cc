// Writes the golden SAX corpus (format in sax_corpus.h):
//
//   sax_corpus OUT.txt
//
// The documents are seeded and deterministic: the SaxParser conformance
// documents, edge cases of the accepted grammar, and ~500 byte mutations of
// generator documents spliced with entities, character references, a DOCTYPE
// internal subset, CDATA, comments, PIs, self-closing tags and single quotes.
// The traces are whatever the linked parser produces, so regenerate only for
// an intended behaviour change, and review the diff of the traces.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "tests/sax_corpus.h"
#include "util/random.h"
#include "xml/generator.h"

namespace nexsort {
namespace testing {
namespace {

constexpr uint64_t kSeed = 1301;
constexpr int kMutants = 500;

std::vector<CorpusEntry> Conformance() {
  SaxOptions keep_ws;
  keep_ws.skip_whitespace_text = false;
  SaxOptions no_names;
  no_names.check_tag_names = false;
  std::string deep;
  for (int i = 0; i < 300; ++i) deep += "<d>";
  deep += "x";
  for (int i = 0; i < 300; ++i) deep += "</d>";
  std::string blocks = "<root>";
  for (int i = 0; i < 50; ++i) {
    blocks += "<item key=\"" + std::string(40, 'k') + std::to_string(i) +
              "\">value text " + std::to_string(i) + "</item>";
  }
  blocks += "</root>";
  return {
      {"SimpleDocument", {}, "<a><b>hi</b></a>", ""},
      {"Attributes", {}, "<a x=\"1\" y='two'/>", ""},
      {"AttributeWhitespaceAroundEquals", {}, "<a x = \"1\"></a>", ""},
      {"SelfClosingTag", {}, "<a><b/><c/></a>", ""},
      {"EntityDecoding", {}, "<a>x &lt;&gt;&amp;&quot;&apos; y</a>", ""},
      {"NumericCharacterReferences", {}, "<a>&#65;&#x42;</a>", ""},
      {"EntityInAttributeValue", {}, "<a k=\"&lt;&amp;&gt;\"/>", ""},
      {"CommentsSkipped", {}, "<a><!-- no -->x<!-- - -- -->y</a>", ""},
      {"ProcessingInstructionAndDeclarationSkipped", {},
       "<?xml version=\"1.0\"?><a><?php echo ?>t</a>", ""},
      {"DoctypeSkipped", {}, "<!DOCTYPE a [ <!ELEMENT a (#PCDATA)> ]><a>x</a>",
       ""},
      {"CdataIsText", {}, "<a><![CDATA[<raw> & stuff]]></a>", ""},
      {"WhitespaceTextSkippedByDefault", {}, "<a>\n  <b/>\n</a>", ""},
      {"WhitespaceTextKeptWhenRequested", keep_ws, "<a> <b/></a>", ""},
      {"MismatchedEndTagRejected", {}, "<a><b></a></b>", ""},
      {"MismatchAllowedInDepthOnlyMode", no_names, "<a><b></wrong></a>", ""},
      {"TruncatedDocumentRejected", {}, "<a><b>", ""},
      {"MultipleRootsRejected", {}, "<a/><b/>", ""},
      {"TextOutsideRootRejected", {}, "hello<a/>", ""},
      {"EmptyInputRejected", {}, "", ""},
      {"UnknownEntityRejected", {}, "<a>&bogus;</a>", ""},
      {"UnterminatedCommentRejected", {}, "<a><!-- open</a>", ""},
      {"CustomEntitiesFromInternalSubset", {},
       "<!DOCTYPE a [ <!ENTITY co \"ACME &amp; Sons\"> ]>"
       "<a t=\"&co;\">&co;</a>",
       ""},
      {"EntityDefinedViaCharacterReference", {},
       "<!DOCTYPE a [ <!ENTITY e \"&#65;\"> ]><a>&e;</a>", ""},
      {"UndefinedCustomEntityStillRejected", {},
       "<!DOCTYPE a [ <!ENTITY x \"v\"> ]><a>&y;</a>", ""},
      {"ParameterEntitiesSkippedGracefully", {},
       "<!DOCTYPE a [ <!ENTITY % p SYSTEM \"x.dtd\"> "
       "<!ENTITY ok \"fine\"> ]><a>&ok;</a>",
       ""},
      {"DeepNesting", {}, deep, ""},
      {"StreamsAcrossBlockBoundaries", {}, blocks, ""},
  };
}

// Corners of the accepted grammar that the conformance tests leave open.
std::vector<std::string> EdgeCases() {
  return {
      "<![CDATA[outside]]><a/>",
      "<a><!DOCTYPE b [<!ENTITY e \"late\">]>&e;</a>",
      "<!x]>y>z><a/>",
      "<!DOCTYPE a [<!ENTITY e 'v'>]]>]><a>&e;</a>",
      "<!DOCTYPE a [<!ENTITY e \"unterminated>]><a/>",
      "<!DOCTYPE a [<!ENTITY  sp  'x' ><!ENTITY sp 'y'>]><a>&sp;</a>",
      "<a x=\"1\"y='2'/>",
      "<a x='1' x='2'/>",
      "<a>&#x0x41;&# 65;&#+66;</a>",
      "<a>&#0;</a>",
      "<a>&#x110000;</a>",
      "<a>&#1114111;&#x7F;&#x80;&#x800;&#x10000;</a>",
      "<a>]]></a>",
      "<a x='<>'/>",
      "<a x=\"'\" y='\"'/>",
      "<a\n\tx\r=\n'v'\n/>",
      "<a></a >",
      "<a></a\n\t>",
      "</a>",
      "<a></ a>",
      "<a><b/ ></a>",
      "<a/ >",
      "<?xml?>\n<!-- c -->\n<a/>\n<!-- after -->\n<?pi?>\n",
      "<a>&amp</a>",
      "<a>&;</a>",
      "<a>a & b;</a>",
      "<a x='&#0;'/>",
      "<a x='&bogus;'/>",
      "<a><![CDATA[]]></a>",
      "<a><![CDATA[ ]]> </a>",
      "<a/>x",
      "<a/> \n\t\r ",
      "<a>x",
      "<",
      "<a",
      "<a x",
      "<a x=",
      "<a x='",
      "<a x='v",
      "<a x='v'",
      "<a/",
      "<!--",
      "<!-->-->",
      "<!---->",
      "<?",
      "<?>",
      "<![CDATA[",
      "<![CDATA",
      "<!DOCTYPE",
      "<!",
      "<1a/>",
      "<a></1a>",
      "<_:x-y.z/>",
      "<a:b c:d='e'></a:b>",
      "<\xC3\xA9/>",
      std::string("<a>\xC3\xA9\x00\xFF</a>", 11),
      "\xEF\xBB\xBF<a/>",
      "<a>\r\n</a>",
      "<a> x </a>",
      "<a>\t<!-- c --> </a>",
      "<a><b>t</b>tail<c/>more</a>",
      "<a x=v/>",
      "<a =\"v\"/>",
      "<a x\"v\"/>",
      "<a x='v'z/>",
      "<a><b></c></a>",
      "<a></a></a>",
      "  <a/>  ",
      "<a>" + std::string(300, 'y') + "</a>",
      "<" + std::string(200, 'n') + "/>",
  };
}

// The generator documents before mutation, with every construct the parser
// supports spliced in between their elements.
std::vector<std::string> Bases() {
  std::vector<std::string> bases = {
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!DOCTYPE catalog [\n"
      "  <!ENTITY co \"ACME &amp; Sons\">\n"
      "  <!ENTITY e '&#65;&#x42;'>\n"
      "  <!ENTITY % p SYSTEM \"x.dtd\">\n"
      "]>\n"
      "<!-- catalog -->\n"
      "<catalog version='2'>\n"
      "  <item id=\"3\" note='it&apos;s &co;'>Widget &lt;3&gt; &#169; "
      "&e;</item>\n"
      "  <item id=\"1\"/>\n"
      "  <?render mode=\"fast\"?>\n"
      "  <item id='2' k = \"v\">\n"
      "    <![CDATA[<raw> & ]]>\n"
      "    <name>b&#x2603;</name>\n"
      "  </item>\n"
      "</catalog>\n"};
  std::vector<std::string> generated;
  auto a = RandomTreeGenerator(3, 3, {.seed = kSeed, .element_bytes = 40})
               .GenerateString();
  auto b = ShapeGenerator({2, 3}, {.seed = kSeed + 1, .element_bytes = 40})
               .GenerateString();
  auto c = RandomTreeGenerator(4, 2, {.seed = kSeed + 2, .element_bytes = 36})
               .GenerateString();
  auto d = ShapeGenerator({3, 2}, {.seed = kSeed + 3, .element_bytes = 36})
               .GenerateString();
  for (auto* doc : {&a, &b, &c, &d}) {
    if (!doc->ok()) return {};
    generated.push_back(**doc);
  }
  const std::vector<std::string> snippets = {
      "<!-- note -->", "<?pi data?>", "<![CDATA[a<b&c]]>", "&amp;",
      "&#x41;",        "&#66;",       "&co;",              "<e/>",
      "<f k='v&lt;' j=\"&quot;\"/>", " ", "\n\t",          "&lt;&gt;"};
  Random rng(kSeed);
  for (size_t i = 0; i < generated.size(); ++i) {
    std::string doc = generated[i];
    if (i % 2 == 0) {
      // Splice 6 snippets right after '>'s other than the last.
      std::vector<size_t> cuts;
      for (size_t at = 0; at + 1 < doc.size(); ++at) {
        if (doc[at] == '>') cuts.push_back(at + 1);
      }
      for (int k = 0; k < 6 && !cuts.empty(); ++k) {
        size_t at = cuts[rng.Uniform(cuts.size())];
        const std::string& snippet = snippets[rng.Uniform(snippets.size())];
        doc.insert(at, snippet);
        for (size_t& cut : cuts) {
          if (cut > at) cut += snippet.size();
        }
      }
      doc = "<!DOCTYPE n1 [<!ENTITY co \"C&amp;O\">]>\n" + doc;
    }
    bases.push_back(std::move(doc));
  }
  return bases;
}

std::string Mutate(std::string doc, Random* rng) {
  static const std::string kInteresting = "<>/!?-[]&;#x'\"= \t\nAz0";
  int mutations = 1 + static_cast<int>(rng->Uniform(3));
  for (int m = 0; m < mutations && !doc.empty(); ++m) {
    size_t at = rng->Uniform(doc.size());
    char byte = rng->OneIn(2)
                    ? kInteresting[rng->Uniform(kInteresting.size())]
                    : static_cast<char>(rng->Uniform(256));
    switch (rng->Uniform(3)) {
      case 0: doc[at] = byte; break;
      case 1: doc.erase(at, 1); break;
      default: doc.insert(at, 1, byte); break;
    }
  }
  return doc;
}

std::vector<CorpusEntry> BuildCorpus() {
  std::vector<CorpusEntry> entries;
  for (CorpusEntry& entry : Conformance()) {
    entry.name = "conf/" + entry.name;
    entries.push_back(std::move(entry));
  }
  std::vector<std::string> edges = EdgeCases();
  for (size_t i = 0; i < edges.size(); ++i) {
    entries.push_back({"edge/" + std::to_string(i), {}, edges[i], ""});
  }
  std::vector<std::string> bases = Bases();
  if (bases.size() < 2) return {};
  for (size_t i = 0; i < bases.size(); ++i) {
    for (const char* options : {"default", "keep-ws"}) {
      entries.push_back({"base/" + std::to_string(i),
                         OptionsFromName(options), bases[i], ""});
    }
  }
  const char* kOptionCycle[] = {"default", "default", "keep-ws", "no-names"};
  Random rng(kSeed + 100);
  for (int i = 0; i < kMutants; ++i) {
    size_t base = static_cast<size_t>(i) % bases.size();
    entries.push_back({"mut/" + std::to_string(i) + "-of-" +
                           std::to_string(base),
                       OptionsFromName(kOptionCycle[i % 4]),
                       Mutate(bases[base], &rng), ""});
  }
  for (CorpusEntry& entry : entries) {
    entry.trace = TraceDocument(entry.doc, entry.options);
  }
  return entries;
}

}  // namespace
}  // namespace testing
}  // namespace nexsort

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: sax_corpus OUT.txt\n";
    return 2;
  }
  std::vector<nexsort::testing::CorpusEntry> entries =
      nexsort::testing::BuildCorpus();
  if (entries.empty()) {
    std::cerr << "sax_corpus: generating the base documents failed\n";
    return 1;
  }
  std::ofstream out(argv[1]);
  out << "# Golden SAX corpus: documents and the exact event traces the\n"
         "# parser must reproduce. Format: tests/sax_corpus.h. Generator:\n"
         "# tests/sax_corpus_main.cc. Do not edit by hand.\n";
  nexsort::testing::WriteCorpus(out, entries);
  out.close();
  if (!out) {
    std::cerr << "sax_corpus: cannot write " << argv[1] << "\n";
    return 1;
  }
  std::cout << entries.size() << " documents\n";
  return 0;
}
