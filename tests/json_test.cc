// The nested-data generalization (paper Section 6): sorting JSON in
// external memory as NEXSORT units.
#include <gtest/gtest.h>

#include "nested/json.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace nexsort {
namespace testing {
namespace {

std::string SortJson(std::string_view json, JsonSortOptions options,
                     size_t block_size = 1024, uint64_t memory_blocks = 32,
                     Status* status_out = nullptr) {
  Env env(block_size, memory_blocks);
  JsonSorter sorter(env.get(), std::move(options));
  StringByteSource source(json);
  std::string out;
  StringByteSink sink(&out);
  Status st = sorter.Sort(&source, &sink);
  if (status_out != nullptr) {
    *status_out = st;
  } else {
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return out;
}

std::string RoundTrip(std::string_view json) {
  JsonSortOptions options;
  options.sort_object_members = false;  // pure translation round trip
  return SortJson(json, options);
}

TEST(Json, RoundTripPreservesEverything) {
  EXPECT_EQ(RoundTrip("{}"), "{}");
  EXPECT_EQ(RoundTrip("[]"), "[]");
  EXPECT_EQ(RoundTrip("null"), "null");
  EXPECT_EQ(RoundTrip("true"), "true");
  EXPECT_EQ(RoundTrip("-1.5e3"), "-1.5e3");  // lexeme preserved verbatim
  EXPECT_EQ(RoundTrip("[0,-0,1.25,-0.5e-3,7E+2,10]"),
            "[0,-0,1.25,-0.5e-3,7E+2,10]");
  EXPECT_EQ(RoundTrip("\"hi\""), "\"hi\"");
  EXPECT_EQ(RoundTrip("{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}"),
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\"}");
  EXPECT_EQ(RoundTrip("[[],{},\"\",0]"), "[[],{},\"\",0]");
}

TEST(Json, RoundTripEscapesAndUnicode) {
  EXPECT_EQ(RoundTrip("\"line\\nbreak\\t\\\"q\\\"\""),
            "\"line\\nbreak\\t\\\"q\\\"\"");
  // \u sequences decode to UTF-8 and re-encode as raw UTF-8.
  EXPECT_EQ(RoundTrip("\"\\u20AC\""), "\"\xE2\x82\xAC\"");
  // Surrogate pair.
  EXPECT_EQ(RoundTrip("\"\\uD83D\\uDE00\""), "\"\xF0\x9F\x98\x80\"");
  // Whitespace-only strings survive.
  EXPECT_EQ(RoundTrip("\" \""), "\" \"");
  EXPECT_EQ(RoundTrip("{\"k\":\"  \"}"), "{\"k\":\"  \"}");
}

TEST(Json, RoundTripIgnoresInputWhitespace) {
  EXPECT_EQ(RoundTrip("  {  \"a\" :\n[ 1 , 2 ]\t}  "), "{\"a\":[1,2]}");
}

TEST(Json, SortsObjectMembers) {
  JsonSortOptions options;
  EXPECT_EQ(SortJson("{\"z\":1,\"a\":2,\"m\":{\"y\":0,\"b\":9}}", options),
            "{\"a\":2,\"m\":{\"b\":9,\"y\":0},\"z\":1}");
}

TEST(Json, MemberSortKeepsArraysInOrder) {
  JsonSortOptions options;
  EXPECT_EQ(SortJson("{\"b\":[3,1,2],\"a\":0}", options),
            "{\"a\":0,\"b\":[3,1,2]}");
}

TEST(Json, SortsArraysByMemberPath) {
  JsonSortOptions options;
  options.sort_object_members = false;
  options.sort_arrays_by = "id";
  options.numeric_array_keys = true;
  EXPECT_EQ(SortJson("[{\"id\":30,\"v\":\"c\"},{\"id\":4,\"v\":\"a\"},"
                     "{\"id\":11,\"v\":\"b\"}]",
                     options),
            "[{\"id\":4,\"v\":\"a\"},{\"id\":11,\"v\":\"b\"},"
            "{\"id\":30,\"v\":\"c\"}]");
}

TEST(Json, SortsArraysByNestedPath) {
  JsonSortOptions options;
  options.sort_object_members = false;
  options.sort_arrays_by = "meta/rank";
  options.numeric_array_keys = true;
  EXPECT_EQ(
      SortJson("[{\"meta\":{\"rank\":2}},{\"meta\":{\"rank\":1}}]", options),
      "[{\"meta\":{\"rank\":1}},{\"meta\":{\"rank\":2}}]");
}

TEST(Json, SortsScalarArraysByValue) {
  JsonSortOptions options;
  options.sort_object_members = false;
  options.sort_arrays_by_value = true;
  EXPECT_EQ(SortJson("[\"pear\",\"apple\",\"fig\"]", options),
            "[\"apple\",\"fig\",\"pear\"]");
  options.numeric_array_keys = true;
  EXPECT_EQ(SortJson("[30,4,11]", options), "[4,11,30]");
}

TEST(Json, ItemsWithoutKeyKeepDocumentOrderFirst) {
  JsonSortOptions options;
  options.sort_object_members = false;
  options.sort_arrays_by = "id";
  EXPECT_EQ(SortJson("[{\"id\":\"b\"},{\"x\":1},{\"id\":\"a\"},null]",
                     options),
            "[{\"x\":1},null,{\"id\":\"a\"},{\"id\":\"b\"}]");
}

TEST(Json, LargeDocumentUnderTightMemoryMatchesReference) {
  // Build a large object of shuffled members, each holding an array of
  // keyed records; compare against an order computed independently.
  Random rng(91);
  std::vector<int> member_ids(500);
  for (int i = 0; i < 500; ++i) member_ids[i] = i;
  for (int i = 499; i > 0; --i) {
    std::swap(member_ids[i], member_ids[rng.Uniform(i + 1)]);
  }
  std::string json = "{";
  for (int i = 0; i < 500; ++i) {
    if (i) json += ",";
    json += "\"k" + std::to_string(1000 + member_ids[i]) + "\":{\"payload\":\"" +
            rng.Identifier(40) + "\"}";
  }
  json += "}";

  JsonSortOptions options;
  // 12 blocks: 2 for the pipeline's stream buffers + the sorter's minimum 8.
  std::string sorted = SortJson(json, options, /*block_size=*/512,
                                /*memory_blocks=*/12);
  // Keys k1000..k1499 must appear in ascending (lexicographic) order.
  size_t prev = 0;
  for (int i = 0; i < 500; ++i) {
    std::string needle = "\"k" + std::to_string(1000 + i) + "\":";
    size_t at = sorted.find(needle);
    ASSERT_NE(at, std::string::npos) << needle;
    EXPECT_GT(at, prev);
    prev = at;
  }
}

TEST(Json, SortIsIdempotent) {
  const std::string json =
      "{\"b\":[{\"id\":2},{\"id\":1}],\"a\":{\"z\":0,\"y\":1}}";
  JsonSortOptions options;
  options.sort_arrays_by = "id";
  options.numeric_array_keys = true;
  std::string once = SortJson(json, options);
  JsonSortOptions options2 = options;
  std::string twice = SortJson(once, options2);
  EXPECT_EQ(once, twice);
}

TEST(Json, MalformedInputRejected) {
  // The last eight are what RFC 8259 rejects and a lenient reader might
  // not: a raw control character in a string, lone surrogates, leading
  // zeros, a bare fraction, signs and exponents without digits.
  for (const char* bad :
       {"{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "\"open", "01x", "[1 2]",
        "{\"a\":1,}", "\"\\u12\"", "[\"a\tb\"]", "[\"\\udc00\"]",
        "\"\\ud800x\"", "[01]", "[-01]", "[1.]", "{\"a\":-}", "[1e+]"}) {
    JsonSortOptions options;
    Status status;
    SortJson(bad, options, 1024, 32, &status);
    EXPECT_TRUE(status.IsParseError()) << "input: " << bad;
  }
}

TEST(Json, TrailingGarbageRejected) {
  JsonSortOptions options;
  Status status;
  SortJson("{} extra", options, 1024, 32, &status);
  EXPECT_TRUE(status.IsParseError());
}

TEST(Json, StatsReported) {
  Env env;
  JsonSorter sorter(env.get(), {});
  StringByteSource source("{\"a\":[1,2],\"b\":{}}");
  std::string out;
  StringByteSink sink(&out);
  NEX_ASSERT_OK(sorter.Sort(&source, &sink));
  EXPECT_EQ(sorter.stats().objects, 2u);
  EXPECT_EQ(sorter.stats().arrays, 1u);
  EXPECT_GE(sorter.stats().values, 5u);
}

// bench_json's workload: a JSON array of records and the same records as
// XML elements with attributes.
void MakeRecordWorkload(int records, std::string* json, std::string* xml) {
  Random rng(7);
  *json = "[";
  *xml = "<all>";
  for (int i = 0; i < records; ++i) {
    std::string id = std::to_string(rng.Uniform(1000000));
    std::string name = rng.Identifier(12);
    std::string city = rng.Identifier(8);
    if (i) *json += ",";
    *json += "{\"id\":" + id + ",\"name\":\"" + name + "\",\"city\":\"" +
             city + "\"}";
    *xml += "<rec id=\"" + id + "\" name=\"" + name + "\" city=\"" + city +
            "\"></rec>";
  }
  *json += "]";
  *xml += "</all>";
}

TEST(Json, IoStaysWithinAConstantOfNativeXml) {
  // Four units per record against XML's one: the JSON sort may cost a
  // constant factor more I/O than the native-XML sort at equal M and B.
  for (int records : {5000, 20000}) {
    std::string json;
    std::string xml;
    MakeRecordWorkload(records, &json, &xml);

    Env json_env(4096, 24);
    JsonSortOptions options;
    options.sort_object_members = false;
    options.sort_arrays_by = "id";
    options.numeric_array_keys = true;
    JsonSorter json_sorter(json_env.get(), options);
    StringByteSource json_source(json);
    std::string json_out;
    StringByteSink json_sink(&json_out);
    NEX_ASSERT_OK(json_sorter.Sort(&json_source, &json_sink));
    EXPECT_GT(json_sorter.stats().sort.sorts.external_sorts, 0u);

    Env xml_env(4096, 24);
    NexSortOptions xml_options;
    xml_options.order = OrderSpec::ByAttribute("id", /*numeric=*/true);
    NexSorter xml_sorter(xml_env.get(), xml_options);
    StringByteSource xml_source(xml);
    std::string xml_out;
    StringByteSink xml_sink(&xml_out);
    NEX_ASSERT_OK(xml_sorter.Sort(&xml_source, &xml_sink));

    uint64_t json_io = json_env.get()->physical_device()->stats().total();
    uint64_t xml_io = xml_env.get()->physical_device()->stats().total();
    EXPECT_LE(json_io, 3.5 * xml_io)
        << records << " records: JSON " << json_io << " I/Os, XML " << xml_io;
  }
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
