// UnitXmlEmitter: end-tag reconstruction from level transitions (the
// Section 3.2 compaction inverse), escaping, and the external open-tag
// stack under deep nesting.
#include <gtest/gtest.h>

#include "core/unit_emitter.h"
#include "tests/test_util.h"

namespace nexsort {
namespace testing {
namespace {

ElementUnit Start(uint32_t level, std::string_view name,
                  std::vector<XmlAttribute> attrs = {}) {
  ElementUnit unit;
  unit.type = UnitType::kStart;
  unit.level = level;
  unit.name = name;
  unit.attributes = std::move(attrs);
  return unit;
}

ElementUnit Text(uint32_t level, std::string_view text) {
  ElementUnit unit;
  unit.type = UnitType::kText;
  unit.level = level;
  unit.text = text;
  return unit;
}

// Encode `unit`, then emit the view decoded from the bytes, as the output
// DFS does.
Status EmitEncoded(UnitEmitter* emitter, const ElementUnit& unit,
                   const UnitFormat& format, NameDictionary* dictionary) {
  std::string bytes;
  AppendUnit(&bytes, unit, format, dictionary);
  std::string_view rest = bytes;
  UnitView view;
  RETURN_IF_ERROR(NextUnit(&rest, format, dictionary, &view));
  return emitter->Emit(view);
}

std::string Emit(const std::vector<ElementUnit>& units,
                 size_t block_size = 1024, UnitFormat format = {}) {
  Env env(block_size, 8);
  NameDictionary dictionary;
  std::string out;
  StringByteSink sink(&out);
  UnitXmlEmitter emitter(env.device(), env.budget(), &dictionary, &sink);
  EXPECT_TRUE(emitter.init_status().ok());
  for (const ElementUnit& unit : units) {
    Status st = EmitEncoded(&emitter, unit, format, &dictionary);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_TRUE(emitter.Finish().ok());
  return out;
}

TEST(UnitEmitter, ReconstructsSiblingsAndNesting) {
  // Levels: a(1){ b(2){ t(3) } b(2) } — the 2->2 transition closes one
  // element, the final Finish closes the rest.
  EXPECT_EQ(Emit({Start(1, "a"), Start(2, "b"), Text(3, "x"),
                  Start(2, "b")}),
            "<a><b>x</b><b></b></a>");
}

TEST(UnitEmitter, ClosesMultipleLevelsAtOnce) {
  // Transition from level 4 to level 2 closes 4, 3 (paper: l1 - l2 + 1
  // end tags between a level-l1 start and a level-l2 start... here the
  // next start at level 2 closes levels 4, 3, and 2's predecessor).
  EXPECT_EQ(Emit({Start(1, "r"), Start(2, "a"), Start(3, "b"),
                  Start(4, "c"), Start(2, "a2")}),
            "<r><a><b><c></c></b></a><a2></a2></r>");
}

TEST(UnitEmitter, EscapesAttributesAndText) {
  EXPECT_EQ(Emit({Start(1, "a", {{"k", "x<\">"}}), Text(2, "1 < 2 & 3")}),
            "<a k=\"x&lt;&quot;&gt;\">1 &lt; 2 &amp; 3</a>");
}

TEST(UnitEmitter, VerbatimNamesMatchDictionaryNames) {
  std::vector<ElementUnit> units = {Start(1, "r", {{"k", "v"}}),
                                    Start(2, "a"), Text(3, "x"),
                                    Start(2, "b", {{"id", "7"}})};
  std::string expected = "<r k=\"v\"><a>x</a><b id=\"7\"></b></r>";
  EXPECT_EQ(Emit(units), expected);
  EXPECT_EQ(Emit(units, 1024, {.use_dictionary = false}), expected);
}

TEST(UnitEmitter, DeepNestingPagesTheTagStack) {
  // 2000 levels with a 128-byte block: the open-tag stack pages in and
  // out; names must survive the round trip through the dictionary.
  std::vector<ElementUnit> units;
  const int depth = 2000;
  for (int i = 0; i < depth; ++i) {
    units.push_back(Start(i + 1, "lvl" + std::to_string(i % 7)));
  }
  std::string out = Emit(units, /*block_size=*/128);
  // Count end tags and spot-check proper nesting at the tail.
  size_t ends = 0;
  size_t at = 0;
  while ((at = out.find("</", at)) != std::string::npos) {
    ++ends;
    at += 2;
  }
  EXPECT_EQ(ends, static_cast<size_t>(depth));
  EXPECT_EQ(out.substr(out.size() - 14), "</lvl1></lvl0>");
}

TEST(UnitEmitter, RejectsPointerUnits) {
  Env env;
  NameDictionary dictionary;
  std::string out;
  StringByteSink sink(&out);
  UnitXmlEmitter emitter(env.device(), env.budget(), &dictionary, &sink);
  ElementUnit pointer;
  pointer.type = UnitType::kPointer;
  pointer.level = 1;
  EXPECT_TRUE(EmitEncoded(&emitter, pointer, {}, &dictionary)
                  .IsInvalidArgument());
}

TEST(UnitEmitter, EndUnitsAreIgnored) {
  ElementUnit end;
  end.type = UnitType::kEnd;
  end.level = 2;
  EXPECT_EQ(Emit({Start(1, "a"), Start(2, "b"), end, Start(2, "c")}),
            "<a><b></b><c></c></a>");
}

}  // namespace
}  // namespace testing
}  // namespace nexsort
