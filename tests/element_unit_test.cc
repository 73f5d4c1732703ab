// ElementUnit serialization: round trips in both formats, size accounting,
// corruption detection, the view decoder under truncation and seeded byte
// mutation, and the streaming run reader with resume offsets.
#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "core/element_unit.h"
#include "core/subtree_sorter.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace nexsort {
namespace testing {
namespace {

ElementUnit MakeStart(uint32_t level, uint64_t seq) {
  ElementUnit unit;
  unit.type = UnitType::kStart;
  unit.level = level;
  unit.seq = seq;
  unit.name = "branch";
  unit.attributes = {{"name", "Durham"}, {"open", "1994"}};
  unit.key = "Durham";
  return unit;
}

void ExpectUnitsEqual(const ElementUnit& a, const ElementUnit& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.attributes, b.attributes);
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.run.id, b.run.id);
  EXPECT_EQ(a.run.byte_size, b.run.byte_size);
}

class ElementUnitFormatTest : public ::testing::TestWithParam<bool> {
 protected:
  UnitFormat Format() const { return {.use_dictionary = GetParam()}; }
};

TEST_P(ElementUnitFormatTest, StartUnitRoundTrip) {
  NameDictionary dictionary;
  ElementUnit unit = MakeStart(3, 77);
  std::string buf;
  AppendUnit(&buf, unit, Format(), &dictionary);
  // EncodedSize is an estimate for threshold math: within a few bytes
  // (dictionary ids are guessed at 2 bytes each), never below the truth
  // by more than that slack.
  size_t estimate = unit.EncodedSize(Format());
  EXPECT_LE(buf.size(), estimate + 4);
  EXPECT_GE(buf.size() + 8, estimate);

  std::string_view view = buf;
  ElementUnit back;
  NEX_ASSERT_OK(ParseUnit(&view, &back, Format(), &dictionary));
  EXPECT_TRUE(view.empty());
  ExpectUnitsEqual(unit, back);
}

TEST_P(ElementUnitFormatTest, AllUnitTypesRoundTrip) {
  NameDictionary dictionary;
  std::vector<ElementUnit> units;
  units.push_back(MakeStart(1, 0));

  ElementUnit text;
  text.type = UnitType::kText;
  text.level = 2;
  text.seq = 1;
  text.text = "payload with <chars> & \0 bytes";
  units.push_back(text);
  text.seq = 2;
  text.key = "text-key";  // a #text rule's key
  units.push_back(text);

  ElementUnit end;
  end.type = UnitType::kEnd;
  end.level = 1;
  end.seq = 0;
  end.key = "resolved-key";
  units.push_back(end);

  ElementUnit pointer;
  pointer.type = UnitType::kPointer;
  pointer.level = 2;
  pointer.seq = 5;
  pointer.key = "ptr-key";
  pointer.run.id = 9;
  pointer.run.byte_size = 12345;
  units.push_back(pointer);

  ElementUnit fragment;
  fragment.type = UnitType::kFragment;
  fragment.level = 2;
  fragment.seq = 0;
  fragment.run.id = 4;
  fragment.run.byte_size = 512;
  units.push_back(fragment);

  std::string buf;
  for (const ElementUnit& unit : units) {
    AppendUnit(&buf, unit, Format(), &dictionary);
  }
  std::string_view view = buf;
  for (const ElementUnit& unit : units) {
    ElementUnit back;
    NEX_ASSERT_OK(ParseUnit(&view, &back, Format(), &dictionary));
    ExpectUnitsEqual(unit, back);
  }
  EXPECT_TRUE(view.empty());
}

// Every unit kind, in one buffer, in the given format.
std::string EncodeAllKinds(const UnitFormat& format,
                           NameDictionary* dictionary) {
  std::string buf;
  AppendUnit(&buf, MakeStart(1, 0), format, dictionary);
  ElementUnit text;
  text.type = UnitType::kText;
  text.level = 2;
  text.seq = 300;
  text.text = std::string("payload & <chars>\0", 18);
  AppendUnit(&buf, text, format, dictionary);
  text.seq = 301;
  text.key = std::string("keyed\0text", 10);
  AppendUnit(&buf, text, format, dictionary);
  ElementUnit end;
  end.type = UnitType::kEnd;
  end.level = 1;
  end.key = "resolved";
  AppendUnit(&buf, end, format, dictionary);
  ElementUnit pointer;
  pointer.type = UnitType::kPointer;
  pointer.level = 2;
  pointer.seq = 1u << 20;
  pointer.key = "ptr";
  pointer.run = {70000, 1ull << 33};
  AppendUnit(&buf, pointer, format, dictionary);
  ElementUnit fragment;
  fragment.type = UnitType::kFragment;
  fragment.level = 2;
  fragment.run = {4, 512};
  AppendUnit(&buf, fragment, format, dictionary);
  return buf;
}

bool Within(std::string_view inner, std::string_view outer) {
  return inner.empty() || (inner.data() >= outer.data() &&
                           inner.data() + inner.size() <=
                               outer.data() + outer.size());
}

// Decode `input` unit by unit (from an exact-size heap copy, so a
// sanitizer build catches any read past its end). Returns the result that
// stopped the walk: kOk if every byte decoded.
DecodeResult DecodeAll(std::string_view input, const UnitFormat& format,
                       const NameDictionary* dictionary) {
  std::unique_ptr<char[]> copy(new char[input.size() + 1]);
  std::copy(input.begin(), input.end(), copy.get());
  std::string_view rest(copy.get(), input.size());
  while (!rest.empty()) {
    UnitView unit;
    DecodeResult result = DecodeUnit(rest, format, dictionary, &unit);
    if (result != DecodeResult::kOk) return result;
    EXPECT_EQ(unit.bytes.data(), rest.data());
    EXPECT_TRUE(Within(unit.bytes, rest));
    EXPECT_TRUE(Within(unit.key, unit.bytes));
    EXPECT_TRUE(Within(unit.text, unit.bytes));
    if (unit.type == UnitType::kStart) {
      EXPECT_TRUE(format.use_dictionary || Within(unit.name(), unit.bytes));
      UnitView::AttributeIterator attributes = unit.attributes();
      AttributeView attribute;
      uint64_t seen = 0;
      while (attributes.Next(&attribute)) {
        EXPECT_TRUE(Within(attribute.value, unit.bytes));
        if (!format.use_dictionary) {
          EXPECT_TRUE(Within(attribute.name, unit.bytes));
        }
        ++seen;
      }
      EXPECT_EQ(seen, unit.attribute_count());
    }
    rest.remove_prefix(unit.bytes.size());
  }
  return DecodeResult::kOk;
}

TEST_P(ElementUnitFormatTest, EveryTruncationIsReportedAsTruncated) {
  NameDictionary dictionary;
  const std::string buf = EncodeAllKinds(Format(), &dictionary);
  EXPECT_EQ(DecodeAll(buf, Format(), &dictionary), DecodeResult::kOk);
  std::vector<size_t> boundaries = {0};
  {
    std::string_view rest = buf;
    UnitView unit;
    while (!rest.empty()) {
      NEX_ASSERT_OK(NextUnit(&rest, Format(), &dictionary, &unit));
      boundaries.push_back(buf.size() - rest.size());
    }
  }
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    SCOPED_TRACE(cut);
    bool at_boundary = std::find(boundaries.begin(), boundaries.end(),
                                 cut) != boundaries.end();
    // A cut between units decodes cleanly; one inside a unit must say
    // "truncated", never "malformed": a reader waits for more bytes then.
    EXPECT_EQ(DecodeAll(std::string_view(buf).substr(0, cut), Format(),
                        &dictionary),
              at_boundary ? DecodeResult::kOk : DecodeResult::kTruncated);
    std::string_view prefix = std::string_view(buf).substr(0, cut);
    ElementUnit unit;
    while (!prefix.empty()) {
      Status st = ParseUnit(&prefix, &unit, Format(), &dictionary);
      if (!st.ok()) {
        EXPECT_TRUE(st.IsCorruption()) << st.ToString();
        break;
      }
    }
  }
}

TEST_P(ElementUnitFormatTest, RandomByteFlipsDecodeOrFailCleanly) {
  NameDictionary dictionary;
  const std::string buf = EncodeAllKinds(Format(), &dictionary);
  Random rng(GetParam() ? 2511 : 2512);
  for (int round = 0; round < 3000; ++round) {
    std::string mutated = buf;
    int flips = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < flips; ++i) {
      mutated[rng.Uniform(mutated.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    if (rng.OneIn(4)) mutated.resize(rng.Uniform(mutated.size()));
    SCOPED_TRACE(round);
    DecodeAll(mutated, Format(), &dictionary);
    std::string_view rest = mutated;
    ElementUnit unit;
    while (!rest.empty()) {
      Status st = ParseUnit(&rest, &unit, Format(), &dictionary);
      if (!st.ok()) {
        EXPECT_TRUE(st.IsCorruption()) << st.ToString();
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, ElementUnitFormatTest,
                         ::testing::Values(true, false),
                         [](const auto& info) {
                           return info.param ? "Dictionary" : "Verbatim";
                         });

TEST(ElementUnit, DictionaryShrinksRepeatedNames) {
  NameDictionary dictionary;
  ElementUnit unit = MakeStart(2, 1);
  unit.name = "averyveryverylongelementname";
  UnitFormat with{.use_dictionary = true};
  UnitFormat without{.use_dictionary = false};
  std::string compact, verbose;
  AppendUnit(&compact, unit, with, &dictionary);
  AppendUnit(&verbose, unit, without, &dictionary);
  EXPECT_LT(compact.size(), verbose.size());
}

// A text unit without a key keeps the encoding it had before text units
// carried keys; only a keyed one sets kKeyedTextFlag and appends the key.
TEST(ElementUnit, TextKeyRidesOnlyOnKeyedText) {
  NameDictionary dictionary;
  ElementUnit text;
  text.type = UnitType::kText;
  text.level = 2;
  text.seq = 5;
  text.text = "zeta";
  std::string plain;
  AppendUnit(&plain, text, {}, &dictionary);
  EXPECT_EQ(plain, std::string("\x02\x02\x05\x04zeta", 8));

  text.key = "zeta";
  std::string keyed;
  AppendUnit(&keyed, text, {}, &dictionary);
  EXPECT_EQ(keyed, std::string("\x82\x02\x05\x04zeta\x04zeta", 13));
  std::string_view view = keyed;
  UnitView unit;
  NEX_ASSERT_OK(NextUnit(&view, {}, &dictionary, &unit));
  EXPECT_EQ(unit.type, UnitType::kText);
  EXPECT_EQ(unit.text, "zeta");
  EXPECT_EQ(unit.key, "zeta");
  EXPECT_EQ(unit.bytes.size(), keyed.size());
}

TEST(ElementUnit, ParseRejectsBadType) {
  NameDictionary dictionary;
  std::string buf = "\x09garbage";
  std::string_view view = buf;
  ElementUnit unit;
  EXPECT_TRUE(
      ParseUnit(&view, &unit, {.use_dictionary = true}, &dictionary)
          .IsCorruption());
}

TEST(ElementUnit, ParseRejectsUnknownDictionaryId) {
  NameDictionary dictionary;
  ElementUnit unit = MakeStart(1, 0);
  std::string buf;
  AppendUnit(&buf, unit, {.use_dictionary = true}, &dictionary);
  NameDictionary fresh;  // lacks the interned names
  std::string_view view = buf;
  ElementUnit back;
  EXPECT_TRUE(ParseUnit(&view, &back, {.use_dictionary = true}, &fresh)
                  .IsCorruption());
}

TEST(ElementUnit, ParseRejectsTruncation) {
  NameDictionary dictionary;
  ElementUnit unit = MakeStart(1, 0);
  std::string buf;
  AppendUnit(&buf, unit, {.use_dictionary = true}, &dictionary);
  for (size_t cut = 1; cut < buf.size(); cut += 3) {
    std::string truncated = buf.substr(0, cut);
    std::string_view view = truncated;
    ElementUnit back;
    EXPECT_FALSE(
        ParseUnit(&view, &back, {.use_dictionary = true}, &dictionary).ok())
        << "cut at " << cut;
  }
}

TEST(NameDictionary, InternIsIdempotent) {
  NameDictionary dictionary;
  uint32_t a = dictionary.Intern("region");
  uint32_t b = dictionary.Intern("branch");
  EXPECT_NE(a, b);
  EXPECT_EQ(dictionary.Intern("region"), a);
  EXPECT_EQ(dictionary.size(), 2u);
  auto name = dictionary.Lookup(a);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, "region");
  EXPECT_TRUE(dictionary.Lookup(99).status().IsCorruption());
}

TEST(RunUnitReader, StreamsUnitsAndTracksOffsets) {
  Env env(128, 8);
  RunStore store(env.device(), env.budget());
  NameDictionary dictionary;
  UnitFormat format;

  std::string buf;
  std::vector<uint64_t> offsets;  // offset after each unit
  for (int i = 0; i < 100; ++i) {
    ElementUnit unit = MakeStart(1 + i % 5, i);
    unit.attributes[0].value = "val" + std::to_string(i);
    AppendUnit(&buf, unit, format, &dictionary);
    offsets.push_back(buf.size());
  }
  RunWriter writer = store.NewRun();
  NEX_ASSERT_OK(writer.init_status());
  NEX_ASSERT_OK(writer.Append(buf));
  RunHandle handle;
  NEX_ASSERT_OK(writer.Finish(&handle));

  RunUnitReader reader(&store, handle, 0, format, &dictionary);
  NEX_ASSERT_OK(reader.init_status());
  UnitView unit;
  for (int i = 0; i < 100; ++i) {
    auto more = reader.Next(&unit);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    ASSERT_TRUE(*more);
    EXPECT_EQ(unit.seq, static_cast<uint64_t>(i));
    EXPECT_EQ(reader.offset(), offsets[i]);
  }
  auto more = reader.Next(&unit);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

TEST(RunUnitReader, ResumesAtSavedOffset) {
  Env env(64, 8);
  RunStore store(env.device(), env.budget());
  NameDictionary dictionary;
  UnitFormat format;

  std::string buf;
  for (int i = 0; i < 20; ++i) {
    ElementUnit unit = MakeStart(1, i);
    AppendUnit(&buf, unit, format, &dictionary);
  }
  RunWriter writer = store.NewRun();
  NEX_ASSERT_OK(writer.init_status());
  NEX_ASSERT_OK(writer.Append(buf));
  RunHandle handle;
  NEX_ASSERT_OK(writer.Finish(&handle));

  // Read 7 units, remember the offset, reopen there.
  uint64_t resume = 0;
  {
    RunUnitReader reader(&store, handle, 0, format, &dictionary);
    NEX_ASSERT_OK(reader.init_status());
    UnitView unit;
    for (int i = 0; i < 7; ++i) {
      auto more = reader.Next(&unit);
      ASSERT_TRUE(more.ok() && *more);
    }
    resume = reader.offset();
  }
  RunUnitReader reader(&store, handle, resume, format, &dictionary);
  NEX_ASSERT_OK(reader.init_status());
  UnitView unit;
  auto more = reader.Next(&unit);
  ASSERT_TRUE(more.ok() && *more);
  EXPECT_EQ(unit.seq, 7u);
}

// A malformed unit at the head of a multi-block run must fail at once, not
// after the reader has buffered the rest of the run looking for "more".
TEST(RunUnitReader, CorruptHeadFailsWithinOneBlock) {
  constexpr size_t kBlock = 4096;
  Env env(kBlock, 16);
  RunStore store(env.device(), env.budget());
  NameDictionary dictionary;
  UnitFormat format;

  std::string buf(1, static_cast<char>(0xFF));
  while (buf.size() < 6 * kBlock) {
    AppendUnit(&buf, MakeStart(1, buf.size()), format, &dictionary);
  }
  RunWriter writer = store.NewRun();
  NEX_ASSERT_OK(writer.init_status());
  NEX_ASSERT_OK(writer.Append(buf));
  RunHandle handle;
  NEX_ASSERT_OK(writer.Finish(&handle));

  uint64_t reads_before = env.device()->stats().reads.load();
  RunUnitReader reader(&store, handle, 0, format, &dictionary);
  NEX_ASSERT_OK(reader.init_status());
  UnitView unit;
  auto more = reader.Next(&unit);
  ASSERT_FALSE(more.ok());
  EXPECT_TRUE(more.status().IsCorruption()) << more.status().ToString();
  EXPECT_LE(env.device()->stats().reads.load() - reads_before, 1u);
}

// The external subtree sort's unit sink rejects a malformed unit when it
// arrives instead of holding every later byte as a "partial unit".
TEST(ExternalSubtreeSorter, CorruptUnitFailsOnArrival) {
  Env env(1024, 16);
  RunStore store(env.device(), env.budget());
  NameDictionary dictionary;
  SubtreeSortContext ctx;
  ctx.store = &store;
  ctx.dictionary = &dictionary;
  ctx.sort_options.memory_blocks = 8;
  SubtreeSortStats stats;
  ExternalSubtreeSorter external(ctx, &stats);
  NEX_ASSERT_OK(external.init_status());
  std::string good;
  AppendUnit(&good, MakeStart(1, 0), ctx.format, &dictionary);
  NEX_ASSERT_OK(external.sink()->Append(good));
  std::string bad(1, static_cast<char>(0xFF));
  bad += good;
  Status st = external.sink()->Append(bad);
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
