// Byte-identity oracle: SHA-256 digests of NexSorter, KeyPathXmlSorter and
// JsonSorter output over seeded generated documents, across the option
// matrix (dictionary on/off, end units kept, complex text-content keys,
// #text order rules, depth limits, scoped sorts, graceful degeneration,
// pretty output, strip/record-order attributes) and across memory sizes
// that put regions both under and over the internal sort capacity. The
// digests are pinned: a change that alters any of them alters output
// bytes, which no performance or refactoring change may do.
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/order_spec_parse.h"
#include "nested/json.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace nexsort {
namespace testing {
namespace {

// ---------------------------------------------------------------------
// SHA-256 (FIPS 180-4), hex digest.
// ---------------------------------------------------------------------

std::string Sha256Hex(std::string_view data) {
  static constexpr std::array<uint32_t, 64> kRound = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
      0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
      0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
      0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
      0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
      0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
      0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
      0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
      0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
      0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
  std::array<uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                               0x1f83d9ab, 0x5be0cd19};
  auto rotr = [](uint32_t x, int n) { return (x >> n) | (x << (32 - n)); };

  std::string message(data);
  uint64_t bit_length = static_cast<uint64_t>(data.size()) * 8;
  message.push_back(static_cast<char>(0x80));
  while (message.size() % 64 != 56) message.push_back('\0');
  for (int i = 7; i >= 0; --i) {
    message.push_back(static_cast<char>(bit_length >> (8 * i)));
  }
  for (size_t chunk = 0; chunk < message.size(); chunk += 64) {
    std::array<uint32_t, 64> w{};
    for (int i = 0; i < 16; ++i) {
      const auto* p =
          reinterpret_cast<const unsigned char*>(message.data() + chunk + 4 * i);
      w[i] = (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
             (uint32_t{p[2]} << 8) | uint32_t{p[3]};
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::array<uint32_t, 8> v = h;
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = rotr(v[4], 6) ^ rotr(v[4], 11) ^ rotr(v[4], 25);
      uint32_t ch = (v[4] & v[5]) ^ (~v[4] & v[6]);
      uint32_t t1 = v[7] + s1 + ch + kRound[i] + w[i];
      uint32_t s0 = rotr(v[0], 2) ^ rotr(v[0], 13) ^ rotr(v[0], 22);
      uint32_t maj = (v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]);
      uint32_t t2 = s0 + maj;
      v = {t1 + t2, v[0], v[1], v[2], v[3] + t1, v[4], v[5], v[6]};
    }
    for (int i = 0; i < 8; ++i) h[i] += v[i];
  }
  static constexpr char kHex[] = "0123456789abcdef";
  std::string hex;
  for (uint32_t word : h) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      hex.push_back(kHex[(word >> shift) & 0xF]);
    }
  }
  return hex;
}

TEST(GoldenDigest, Sha256KnownAnswers) {
  EXPECT_EQ(Sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(Sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(Sha256Hex(std::string(1000, 'a')),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3");
}

// ---------------------------------------------------------------------
// Seeded documents.
// ---------------------------------------------------------------------

// Mixed-content XML: tags a-d, numeric ids with many ties, escaped specials
// in text and attribute values, an optional "tmp" attribute to strip, and
// text nodes interleaved with element children.
class MixedXmlGenerator {
 public:
  MixedXmlGenerator(uint64_t seed, size_t max_bytes)
      : rng_(seed), max_bytes_(max_bytes) {}

  // A root holding subtrees of `depth` levels until the document reaches
  // max_bytes.
  std::string Generate(int depth, uint64_t fanout) {
    std::string out = "<r>";
    while (out.size() < max_bytes_) Element(&out, depth, fanout);
    out += "</r>";
    return out;
  }

 private:
  void Text(std::string* out) {
    static const char* const kSpecials[] = {"&amp;", "&lt;", "&gt;",
                                            "&quot;", "'"};
    out->append(rng_.Identifier(1 + rng_.Uniform(12)));
    if (rng_.OneIn(3)) out->append(kSpecials[rng_.Uniform(5)]);
    if (rng_.OneIn(4)) out->append(std::to_string(rng_.Uniform(100)));
  }

  void Element(std::string* out, int depth, uint64_t fanout) {
    static const char* const kTags[] = {"a", "b", "c", "d"};
    const char* tag = kTags[rng_.Uniform(4)];
    *out += "<";
    *out += tag;
    *out += " id=\"" + std::to_string(rng_.Uniform(40)) + "\"";
    if (rng_.OneIn(3)) *out += " tmp=\"x&amp;&lt;&quot;y\"";
    if (rng_.OneIn(2)) {
      *out += " note=\"";
      Text(out);
      *out += "\"";
    }
    *out += ">";
    uint64_t children = depth > 1 ? rng_.UniformRange(1, fanout) : 0;
    for (uint64_t i = 0; i < children; ++i) {
      if (rng_.OneIn(4)) {
        Text(out);
      } else {
        Element(out, depth - 1, fanout);
      }
    }
    if (children == 0 && rng_.OneIn(2)) Text(out);
    *out += "</";
    *out += tag;
    *out += ">";
  }

  Random rng_;
  const size_t max_bytes_;
};

// Nested JSON: objects of records and scalar arrays, member names from a
// small vocabulary so keys tie, strings with characters that need escapes.
class JsonDocGenerator {
 public:
  explicit JsonDocGenerator(uint64_t seed) : rng_(seed) {}

  std::string Generate(int records) {
    std::string out = "{\"meta\":{\"c\":1,\"a\":\"x\\\"y\",\"b\":[3,1,2]},";
    out += "\"records\":[";
    for (int i = 0; i < records; ++i) {
      if (i) out.push_back(',');
      out += "{\"pad\":\"" + rng_.Identifier(8) + "\",\"id\":";
      Scalar(&out);
      out += ",\"tags\":[";
      int tags = static_cast<int>(rng_.Uniform(4));
      for (int t = 0; t < tags; ++t) {
        if (t) out.push_back(',');
        Scalar(&out);
      }
      out += "],\"meta\":{\"rank\":";
      Scalar(&out);
      out += ",\"note\":\"a\\\\b\\n" + rng_.Identifier(3) + "\"}}";
    }
    out += "],\"z\":null,\"flag\":true}";
    return out;
  }

 private:
  void Scalar(std::string* out) {
    switch (rng_.Uniform(4)) {
      case 0:
        *out += "\"" + rng_.Identifier(1 + rng_.Uniform(3)) + "\"";
        break;
      case 1:
        *out += rng_.OneIn(2) ? "true" : "null";
        break;
      default:
        *out += std::to_string(static_cast<int>(rng_.Uniform(60)) - 20);
        break;
    }
  }

  Random rng_;
};

struct Memory {
  size_t block_size;
  uint64_t blocks;
};

// Large enough that every region sorts in memory; small enough that the
// big regions go to the external (key-path merge) subtree sort.
constexpr Memory kRoomy{1024, 256};
constexpr Memory kTight{256, 12};

struct Documents {
  std::string deep = MixedXmlGenerator(2501, 48 * 1024).Generate(5, 5);
  std::string flat = MixedXmlGenerator(2502, 32 * 1024).Generate(1, 1);
};

const Documents& Docs() {
  static const Documents* docs = new Documents();
  return *docs;
}

OrderSpec NumericIds() { return OrderSpec::ByAttribute("id", true); }

// Elements b order by their first text child; everything else by id.
OrderSpec TextContentKeys() {
  OrderSpec spec;
  OrderRule text;
  text.element = "b";
  text.source = KeySource::kTextContent;
  spec.AddRule(text);
  OrderRule id;
  id.argument = "id";
  id.numeric = true;
  spec.AddRule(id);
  return spec;
}

// Text nodes order by content among their element siblings; elements by
// numeric id.
OrderSpec TextOrder() {
  StatusOr<OrderSpec> spec = ParseOrderSpec("#text:tag;*:attr(id)n");
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.ok() ? *spec : OrderSpec();
}

// Captured when text units began carrying their #text keys (before that,
// NexSorter sorted every text node first, in document order), and checked
// against the in-memory DOM sort. The flat document has no text among
// element siblings, so it keeps kFlatById.
constexpr char kDeepTextOrder[] =
    "af3fe448912e9191ce0ccd5128eddae11a2fcee32b4511ae5924690ced574c48";

struct NexCase {
  const char* name;
  Memory memory;
  std::function<void(NexSortOptions*)> configure;
  const char* deep_digest;
  const char* flat_digest;
};

std::string RunNex(const std::string& xml, const NexCase& c,
                   NexSortStats* stats) {
  NexSortOptions options;
  options.order = NumericIds();
  c.configure(&options);
  return NexSortString(xml, options, c.memory.block_size, c.memory.blocks,
                       stats);
}

// Digests shared by every configuration that only changes how the same
// order is reached (dictionary, end units, memory, graceful degeneration).
constexpr char kDeepById[] =
    "0bfa6b304eac17ca949d7f03ab5308441290bdf1896994910f6d370b0abfabf5";
constexpr char kFlatById[] =
    "f7f8448f9af9cf4413eb76582e104f89e33e4b8719fb3218a200ad2ca8a56502";
constexpr char kDeepDepth2[] =
    "d2d09a5dbba3e4b1c0ef0b9f1328b9feaac0c07ef6b9da1fbbf9f5b9d2851126";

TEST(GoldenDigest, NexSorterOutputIsPinned) {
  auto none = [](NexSortOptions*) {};
  auto verbatim = [](NexSortOptions* o) { o->use_dictionary = false; };
  auto end_units = [](NexSortOptions* o) { o->keep_end_units = true; };
  auto text_key = [](NexSortOptions* o) { o->order = TextContentKeys(); };
  auto text_order = [](NexSortOptions* o) { o->order = TextOrder(); };
  auto depth_2 = [](NexSortOptions* o) { o->depth_limit = 2; };
  auto scope = [](NexSortOptions* o) { o->sort_scope_tags = {"a", "c"}; };
  auto graceful = [](NexSortOptions* o) { o->graceful_degeneration = true; };
  auto strip_record = [](NexSortOptions* o) {
    o->strip_attribute = "tmp";
    o->record_order_attribute = "ord";
  };
  constexpr char kDeepTextKey[] =
      "990f505c033e4dcfd60c5c822a23157bc820ac14bd8593ec39c8d25f1e40abe1";
  constexpr char kFlatTextKey[] =
      "0d8433fd78f63c32835e9d89a1e71e50be90237eb7766648a962976b2f76491f";
  constexpr char kDeepScope[] =
      "9e9778fa8a6823f34b5f02a0f9df894e09010095068cb0a5c328d8a9ddd010b7";
  constexpr char kFlatScope[] =
      "2384a50aa52bca812d9e73bd9143be2af8910a6673089b780ff4c42b2b29f197";
  constexpr char kDeepStripRecord[] =
      "a0fcfbc2f956494681a79c35ef7927eb687e3c37d33cfaa87034a22f5e099b21";
  constexpr char kFlatStripRecord[] =
      "781caa007f9adb8537d198242f542ab4f8e0ecc0bc6e72ef00e591e6fd2221b9";
  const std::vector<NexCase> cases = {
      {"base-roomy", kRoomy, none, kDeepById, kFlatById},
      {"base-tight", kTight, none, kDeepById, kFlatById},
      {"verbatim-roomy", kRoomy, verbatim, kDeepById, kFlatById},
      {"verbatim-tight", kTight, verbatim, kDeepById, kFlatById},
      {"end-units-roomy", kRoomy, end_units, kDeepById, kFlatById},
      {"end-units-tight", kTight, end_units, kDeepById, kFlatById},
      {"text-key-roomy", kRoomy, text_key, kDeepTextKey, kFlatTextKey},
      {"text-key-tight", kTight, text_key, kDeepTextKey, kFlatTextKey},
      {"depth-2-roomy", kRoomy, depth_2, kDeepDepth2, kFlatById},
      {"depth-2-tight", kTight, depth_2, kDeepDepth2, kFlatById},
      {"scope-roomy", kRoomy, scope, kDeepScope, kFlatScope},
      {"scope-tight", kTight, scope, kDeepScope, kFlatScope},
      {"graceful-tight", kTight, graceful, kDeepById, kFlatById},
      {"graceful-verbatim-tight", kTight,
       [](NexSortOptions* o) {
         o->graceful_degeneration = true;
         o->use_dictionary = false;
       },
       kDeepById, kFlatById},
      {"pretty-tight", kTight,
       [](NexSortOptions* o) { o->pretty_output = true; },
       "82add85ca22f881bb95023464db27064611daa171d59979a0ae007d71ad12de2",
       "9de7fa05617e1bdf9ab78644d1aaef0d3965cd0e38d82a55e5e96bc785449abf"},
      {"strip-record-roomy", kRoomy, strip_record, kDeepStripRecord,
       kFlatStripRecord},
      {"strip-record-tight", kTight, strip_record, kDeepStripRecord,
       kFlatStripRecord},
      {"text-order-roomy", kRoomy, text_order, kDeepTextOrder, kFlatById},
      {"text-order-tight", kTight, text_order, kDeepTextOrder, kFlatById},
  };
  uint64_t tight_internal = 0;
  uint64_t tight_external = 0;
  uint64_t fragments = 0;
  for (const NexCase& c : cases) {
    for (bool deep : {true, false}) {
      SCOPED_TRACE(std::string(deep ? "deep/" : "flat/") + c.name);
      NexSortStats stats;
      std::string out =
          RunNex(deep ? Docs().deep : Docs().flat, c, &stats);
      EXPECT_EQ(Sha256Hex(out), deep ? c.deep_digest : c.flat_digest);
      if (c.memory.blocks == kRoomy.blocks) {
        EXPECT_EQ(stats.sorts.external_sorts, 0u);  // every region fits
      } else {
        tight_internal += stats.sorts.internal_sorts;
        tight_external += stats.sorts.external_sorts;
      }
      fragments += stats.fragment_runs;
    }
  }
  // The tight memory puts some regions over the sort capacity and keeps
  // others under it; graceful degeneration and complex keys fragment.
  EXPECT_GT(tight_internal, 0u);
  EXPECT_GT(tight_external, 0u);
  EXPECT_GT(fragments, 0u);
}

TEST(GoldenDigest, KeyPathSorterOutputIsPinned) {
  struct Case {
    const char* name;
    Memory memory;
    bool use_dictionary;
    int depth_limit;
    const char* deep_digest;
    OrderSpec order = NumericIds();
  };
  const std::vector<Case> cases = {
      {"roomy", kRoomy, true, 0, kDeepById},
      {"tight", kTight, true, 0, kDeepById},
      {"verbatim-tight", kTight, false, 0, kDeepById},
      {"depth-2-tight", kTight, true, 2, kDeepDepth2},
      {"text-order-tight", kTight, true, 0, kDeepTextOrder, TextOrder()}};
  for (const Case& c : cases) {
    for (bool deep : {true, false}) {
      SCOPED_TRACE(std::string(deep ? "deep/" : "flat/") + c.name);
      KeyPathSortOptions options;
      options.order = c.order;
      options.use_dictionary = c.use_dictionary;
      options.depth_limit = c.depth_limit;
      std::string out = KeyPathSortString(deep ? Docs().deep : Docs().flat,
                                          options, c.memory.block_size,
                                          c.memory.blocks);
      EXPECT_EQ(Sha256Hex(out), deep ? c.deep_digest : kFlatById);
    }
  }
}

TEST(GoldenDigest, JsonSorterOutputIsPinned) {
  struct Case {
    const char* name;
    Memory memory;
    JsonSortOptions options;
    const char* digest;
  };
  JsonSortOptions members;
  JsonSortOptions by_id;
  by_id.sort_arrays_by = "id";
  by_id.numeric_array_keys = true;
  JsonSortOptions by_rank;
  by_rank.sort_arrays_by = "meta/rank";
  JsonSortOptions by_value;
  by_value.sort_object_members = false;
  by_value.sort_arrays_by_value = true;
  constexpr char kMembers[] =
      "b4ebf7bfc68498565c78352430ae9f8b8ace914b665ee33ba7361254ead15faa";
  const std::vector<Case> cases = {
      {"members-roomy", kRoomy, members, kMembers},
      {"members-tight", kTight, members, kMembers},
      {"by-id-tight", kTight, by_id,
       "7835ddbc7f578325e6ef65b8a25da28b19be1556dac976532acb1eda7fe6a85e"},
      {"by-rank-roomy", kRoomy, by_rank,
       "598e27fb564a63fc1c163de7a19ddc1ee97993ac70e1dd969f2d0f85324d56b6"},
      {"by-value-tight", kTight, by_value,
       "c9b94f11950a36ef0352aaa845ccb94f832c1bc380ca8f474baacc328de8713c"}};
  const std::string json = JsonDocGenerator(2503).Generate(400);
  uint64_t external = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Env env(c.memory.block_size, c.memory.blocks);
    JsonSorter sorter(env.get(), c.options);
    StringByteSource source(json);
    std::string out;
    StringByteSink sink(&out);
    NEX_ASSERT_OK(sorter.Sort(&source, &sink));
    EXPECT_EQ(Sha256Hex(out), c.digest);
    external += sorter.stats().sort.sorts.external_sorts;
  }
  EXPECT_GT(external, 0u);
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
