// Randomized JSON property sweeps: generated documents round-trip through
// the unit encoding, and sorting matches an in-memory reference that
// shares no sort code with the engine (a tree built from JsonReader's
// events, each sibling list std::stable_sort-ed by normalized key).
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/order_spec.h"
#include "nested/json.h"
#include "nested/json_reader.h"
#include "obs/json_writer.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "util/string_util.h"

namespace nexsort {
namespace testing {
namespace {

// Deterministic random JSON generator. Member names come from a small
// vocabulary so key paths hit, miss and repeat.
class JsonGenerator {
 public:
  explicit JsonGenerator(uint64_t seed) : rng_(seed) {}

  std::string Generate(int max_depth) {
    std::string out;
    Value(&out, max_depth);
    return out;
  }

  /// An array of `count` records keyed at "id" and "meta/rank", with
  /// padding so the array outgrows a small sort memory.
  std::string Records(int count) {
    std::string out = "[";
    for (int i = 0; i < count; ++i) {
      if (i) out.push_back(',');
      out += "{\"id\":";
      Scalar(&out);
      out += ",\"pad\":\"" + rng_.Identifier(20) + "\",\"meta\":{\"rank\":";
      Scalar(&out);
      out += "}}";
    }
    out.push_back(']');
    return out;
  }

 private:
  void Value(std::string* out, int depth_left) {
    uint64_t kind = depth_left > 0 ? rng_.Uniform(4) : 2;
    switch (kind) {
      case 0: Object(out, depth_left); break;
      case 1: Array(out, depth_left); break;
      default: Scalar(out); break;
    }
  }

  void Scalar(std::string* out) {
    static const char* const kNumbers[] = {"0",   "-0",    "7",    "-12",
                                           "1.5", "2e3",   "1E-2", "30",
                                           "4",   "-0.25", "11",   "1e400"};
    switch (rng_.Uniform(5)) {
      case 0: String(out); break;
      case 1:
      case 2: out->append(kNumbers[rng_.Uniform(12)]); break;
      case 3: out->append(rng_.OneIn(2) ? "true" : "false"); break;
      default: out->append("null"); break;
    }
  }

  void Object(std::string* out, int depth_left) {
    static const char* const kNames[] = {"id", "meta", "rank", "a", "b", "c"};
    out->push_back('{');
    int members = rng_.Uniform(5);
    for (int i = 0; i < members; ++i) {
      if (i) out->push_back(',');
      out->push_back('"');
      out->append(kNames[rng_.Uniform(6)]);
      out->append("\":");
      Value(out, depth_left - 1);
    }
    out->push_back('}');
  }

  void Array(std::string* out, int depth_left) {
    out->push_back('[');
    int items = rng_.Uniform(6);
    for (int i = 0; i < items; ++i) {
      if (i) out->push_back(',');
      Value(out, depth_left - 1);
    }
    out->push_back(']');
  }

  void String(std::string* out) {
    out->push_back('"');
    size_t length = rng_.Uniform(6);
    for (size_t i = 0; i < length; ++i) {
      switch (rng_.Uniform(12)) {
        case 0: out->append("\\\""); break;
        case 1: out->append("\\\\"); break;
        case 2: out->append("\\n"); break;
        case 3: out->append("\\u00e9"); break;
        default: out->push_back(static_cast<char>('a' + rng_.Uniform(4)));
      }
    }
    out->push_back('"');
  }

  Random rng_;
};

// ---------------------------------------------------------------------
// The reference
// ---------------------------------------------------------------------

struct Node {
  JsonEvent::Type type = JsonEvent::Type::kNull;
  std::string name;  // member name, when the parent is an object
  std::string text;  // decoded string or number lexeme
  std::vector<Node> children;
};

Node ParseTree(const std::string& json) {
  StringByteSource source(json);
  JsonReader reader(&source);
  std::vector<Node> open;
  Node root;
  JsonEvent event;
  while (true) {
    auto more = reader.Next(&event);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) return root;
    Node node;
    if (event.type == JsonEvent::Type::kEndObject ||
        event.type == JsonEvent::Type::kEndArray) {
      node = std::move(open.back());
      open.pop_back();
    } else {
      node.type = event.type;
      node.name = event.name;
      node.text = event.text;
      if (event.type == JsonEvent::Type::kBeginObject ||
          event.type == JsonEvent::Type::kBeginArray) {
        open.push_back(std::move(node));
        continue;
      }
    }
    if (open.empty()) {
      root = std::move(node);
    } else {
      open.back().children.push_back(std::move(node));
    }
  }
}

// The scalar at `path` inside `item` (the item itself for an empty path),
// following the first member of each name; false when absent.
bool ItemKey(const Node& item, const std::vector<std::string>& path,
             std::string* raw) {
  const Node* node = &item;
  for (const std::string& component : path) {
    if (node->type != JsonEvent::Type::kBeginObject) return false;
    auto it = std::find_if(
        node->children.begin(), node->children.end(),
        [&](const Node& child) { return child.name == component; });
    if (it == node->children.end()) return false;
    node = &*it;
  }
  switch (node->type) {
    case JsonEvent::Type::kString:
    case JsonEvent::Type::kNumber: *raw = node->text; return true;
    case JsonEvent::Type::kTrue: *raw = "true"; return true;
    case JsonEvent::Type::kFalse: *raw = "false"; return true;
    default: return false;
  }
}

void SortTree(Node* node, const JsonSortOptions& options,
              const std::vector<std::string>& path) {
  for (Node& child : node->children) SortTree(&child, options, path);
  std::vector<std::pair<std::string, Node>> keyed;
  if (node->type == JsonEvent::Type::kBeginObject) {
    if (!options.sort_object_members) return;
    for (Node& child : node->children) {
      keyed.emplace_back(child.name, std::move(child));
    }
  } else if (node->type == JsonEvent::Type::kBeginArray) {
    if (path.empty() && !options.sort_arrays_by_value) return;
    OrderRule rule;
    rule.numeric = options.numeric_array_keys;
    for (Node& child : node->children) {
      std::string raw;
      std::string key;
      if (ItemKey(child, path, &raw)) key = OrderSpec::NormalizeKey(rule, raw);
      keyed.emplace_back(std::move(key), std::move(child));
    }
  } else {
    return;
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < keyed.size(); ++i) {
    node->children[i] = std::move(keyed[i].second);
  }
}

void WriteTree(const Node& node, bool member, JsonWriter* writer) {
  if (member) writer->Key(node.name);
  switch (node.type) {
    case JsonEvent::Type::kBeginObject:
    case JsonEvent::Type::kBeginArray: {
      bool object = node.type == JsonEvent::Type::kBeginObject;
      if (object) writer->BeginObject(); else writer->BeginArray();
      for (const Node& child : node.children) WriteTree(child, object, writer);
      if (object) writer->EndObject(); else writer->EndArray();
      return;
    }
    case JsonEvent::Type::kString: writer->String(node.text); return;
    case JsonEvent::Type::kNumber: writer->Raw(node.text); return;  // verbatim
    case JsonEvent::Type::kTrue: writer->Bool(true); return;
    case JsonEvent::Type::kFalse: writer->Bool(false); return;
    default: writer->Null(); return;
  }
}

std::string ReferenceSort(const std::string& json,
                          const JsonSortOptions& options) {
  std::vector<std::string> path;
  for (std::string_view part : Split(options.sort_arrays_by, '/')) {
    if (!part.empty()) path.emplace_back(part);
  }
  Node root = ParseTree(json);
  SortTree(&root, options, path);
  JsonWriter writer;
  WriteTree(root, /*member=*/false, &writer);
  return std::move(writer).Take();
}

std::string EngineSort(const std::string& json, const JsonSortOptions& options,
                       size_t block_size, uint64_t memory_blocks,
                       JsonSortStats* stats = nullptr) {
  Env env(block_size, memory_blocks);
  JsonSorter sorter(env.get(), options);
  StringByteSource source(json);
  std::string sorted;
  StringByteSink sink(&sorted);
  Status st = sorter.Sort(&source, &sink);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (stats != nullptr) *stats = sorter.stats();
  return sorted;
}

// Members on/off x arrays unkeyed / by path / by nested path / by value,
// each array mode lexicographic and numeric.
std::vector<JsonSortOptions> OptionSweep() {
  std::vector<JsonSortOptions> sweep;
  for (bool members : {false, true}) {
    for (int arrays = 0; arrays < 4; ++arrays) {
      for (bool numeric : {false, true}) {
        if (arrays == 0 && numeric) continue;
        JsonSortOptions options;
        options.sort_object_members = members;
        options.sort_arrays_by = arrays == 1 ? "id" : arrays == 2 ? "meta/rank" : "";
        options.sort_arrays_by_value = arrays == 3;
        options.numeric_array_keys = numeric;
        sweep.push_back(options);
      }
    }
  }
  return sweep;
}

std::string Describe(const JsonSortOptions& options) {
  return "members=" + std::to_string(options.sort_object_members) +
         " by='" + options.sort_arrays_by +
         "' value=" + std::to_string(options.sort_arrays_by_value) +
         " numeric=" + std::to_string(options.numeric_array_keys);
}

class JsonSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonSweep, TranslationRoundTripsThroughTheEncoding) {
  JsonGenerator generator(GetParam());
  std::string json = generator.Generate(4);

  // JSON -> units -> JSON with every ordering off reproduces the
  // document's canonical compact form, and doing it again changes nothing.
  JsonSortOptions options;
  options.sort_object_members = false;
  std::string once = EngineSort(json, options, 512, 12);
  EXPECT_EQ(once, ReferenceSort(json, options)) << "input: " << json;
  EXPECT_EQ(EngineSort(once, options, 512, 12), once);
}

TEST_P(JsonSweep, SortMatchesDomReference) {
  JsonGenerator generator(GetParam() + 1000);
  std::string json = generator.Generate(4);
  for (const JsonSortOptions& options : OptionSweep()) {
    EXPECT_EQ(EngineSort(json, options, 512, 12), ReferenceSort(json, options))
        << Describe(options) << "\ninput: " << json;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonSweep,
                         ::testing::Range<uint64_t>(0, 12));

TEST(JsonProperty, ExternalSubtreeSortsMatchReference) {
  // Records under a root object, with sort memory far below the array:
  // the array's region takes the key-path external merge sort.
  JsonGenerator generator(77);
  std::string json = "{\"list\":" + generator.Records(600) +
                     ",\"head\":" + generator.Generate(3) + "}";
  for (const JsonSortOptions& options : OptionSweep()) {
    JsonSortStats stats;
    EXPECT_EQ(EngineSort(json, options, 512, 10, &stats),
              ReferenceSort(json, options))
        << Describe(options);
    EXPECT_GT(stats.sort.sorts.external_sorts, 0u) << Describe(options);
  }
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
