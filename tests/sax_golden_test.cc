// The SAX parser against its golden corpus (tests/data/sax_corpus.txt):
// every document must reproduce its recorded event trace, bytes consumed
// and status code exactly, whatever size of chunk the source hands over per
// Read, and the parser must never read ahead more than one refill chunk past
// the token it is parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <utility>

#include "extmem/stream.h"
#include "tests/sax_corpus.h"
#include "xml/sax_parser.h"

namespace nexsort {
namespace testing {
namespace {

const std::vector<CorpusEntry>& Corpus() {
  static const std::vector<CorpusEntry> corpus =
      ReadCorpus(std::string(NEXSORT_TEST_DATA_DIR) + "/sax_corpus.txt");
  return corpus;
}

/// Hands out at most `chunk` bytes per Read and records how far the parser
/// has read ahead of what it consumed.
class ChunkedSource final : public ByteSource {
 public:
  ChunkedSource(std::string_view data, size_t chunk)
      : data_(data), chunk_(chunk) {}

  void Watch(const SaxParser* parser) { parser_ = parser; }

  Status Read(char* buf, size_t n, size_t* out) override {
    requests_.insert(n);
    size_t got = std::min({n, chunk_, data_.size() - given_});
    std::memcpy(buf, data_.data() + given_, got);
    given_ += got;
    *out = got;
    if (parser_ != nullptr) {
      peak_ahead_ = std::max(peak_ahead_, given_ - parser_->bytes_consumed());
    }
    return Status::OK();
  }

  /// Largest read-ahead since the last reset.
  uint64_t TakePeakAhead() { return std::exchange(peak_ahead_, 0); }
  const std::set<size_t>& requests() const { return requests_; }

 private:
  std::string_view data_;
  const size_t chunk_;
  const SaxParser* parser_ = nullptr;
  size_t given_ = 0;
  uint64_t peak_ahead_ = 0;
  std::set<size_t> requests_;
};

constexpr size_t kChunks[] = {1, 2, 7, 4096, 1 << 20};

// Documents whose single largest token is bigger than a refill chunk.
std::vector<CorpusEntry> LargeTokenDocuments() {
  const std::string big(40000, 'x');
  std::string items = "<r>";
  for (int i = 0; i < 5000; ++i) {
    items += "<i id=\"" + std::to_string(i) + "\">t" + std::to_string(i) +
             "</i>\n";
  }
  items += "</r>";
  std::string entities = "<r>";
  for (int i = 0; i < 8000; ++i) entities += "a&amp;&#66;";
  entities += "</r>";
  return {
      {"text", {}, "<r><t>" + big + "</t></r>", ""},
      {"attribute", {}, "<r><t v='" + big + "'/></r>", ""},
      {"name", {}, "<r><" + big + "/></r>", ""},
      {"comment", {}, "<r><!--" + big + "-->x</r>", ""},
      {"pi", {}, "<?" + big + "?><r/>", ""},
      {"cdata", {}, "<r><![CDATA[" + big + "]]></r>", ""},
      {"doctype", {},
       "<!DOCTYPE r [<!ENTITY e '" + big + "'>]><r>&e;</r>", ""},
      {"whitespace", {}, std::string(40000, ' ') + "<r/>", ""},
      {"entities", {}, entities, ""},
      {"items", {}, items, ""},
  };
}

TEST(SaxGolden, CorpusReproducesRecordedTraces) {
  const std::vector<CorpusEntry>& corpus = Corpus();
  ASSERT_GE(corpus.size(), 600u) << "tests/data/sax_corpus.txt unreadable";
  int mismatches = 0;
  for (const CorpusEntry& entry : corpus) {
    std::string trace = TraceDocument(entry.doc, entry.options);
    if (trace != entry.trace && ++mismatches <= 10) {
      ADD_FAILURE() << entry.name << " (" << OptionsName(entry.options)
                    << "): " << EscapeBytes(entry.doc) << "\n  recorded: "
                    << entry.trace << "\n  got:      " << trace;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(SaxGolden, TracesAreIndependentOfReadChunking) {
  std::vector<CorpusEntry> documents = Corpus();
  ASSERT_FALSE(documents.empty());
  for (CorpusEntry& entry : LargeTokenDocuments()) {
    entry.trace = TraceDocument(entry.doc, entry.options);
    ASSERT_EQ(entry.trace.find("ERR"), std::string::npos) << entry.name;
    documents.push_back(std::move(entry));
  }
  for (const CorpusEntry& entry : documents) {
    for (size_t chunk : kChunks) {
      ChunkedSource source(entry.doc, chunk);
      SaxParser parser(&source, entry.options);
      ASSERT_EQ(TraceParse(&parser), entry.trace)
          << entry.name << " with " << chunk << "-byte reads";
    }
  }
}

TEST(SaxGolden, ReadAheadIsBoundedByOneChunkPastTheToken) {
  std::vector<CorpusEntry> documents = Corpus();
  for (CorpusEntry& entry : LargeTokenDocuments()) {
    documents.push_back(std::move(entry));
  }
  std::set<size_t> requests;
  for (const CorpusEntry& entry : documents) {
    for (size_t chunk : kChunks) {
      ChunkedSource source(entry.doc, chunk);
      SaxParser parser(&source, entry.options);
      source.Watch(&parser);
      XmlEvent event;
      while (true) {
        uint64_t before = parser.bytes_consumed();
        StatusOr<bool> more = parser.Next(&event);
        if (!more.ok() || !*more) break;
        // Everything this call consumed bounds the token it had to buffer.
        uint64_t token = parser.bytes_consumed() - before;
        uint64_t refill = *source.requests().rbegin();
        ASSERT_LE(source.TakePeakAhead(), refill + token)
            << entry.name << " with " << chunk << "-byte reads, at byte "
            << before;
      }
      requests.insert(source.requests().begin(), source.requests().end());
    }
  }
  // One fixed refill chunk, whatever the token sizes.
  EXPECT_EQ(requests.size(), 1u);
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
