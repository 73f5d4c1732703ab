// ElementUnit: the unit of XML data NEXSORT pushes onto the data stack and
// stores in sorted runs. The serialized form natively implements the
// paper's compaction techniques (Section 3.2):
//   * end tags are eliminated — start units carry level numbers, and end
//     tags are reconstructed from level transitions during output;
//   * tag and attribute names are interned in a NameDictionary and stored
//     as small integers (toggle via UnitFormat for the ablation).
//
// Unit kinds:
//   kStart    — an element start tag: level, sequence number, name,
//               attributes, normalized sort key.
//   kText     — a text node (level = parent level + 1), with the key of a
//               `#text` order rule when one applies.
//   kEnd      — an element end; only materialized when the ordering uses
//               complex criteria (the resolved key rides on the end, as in
//               Section 3.2) or when the compaction ablation keeps ends.
//   kPointer  — a collapsed subtree: the root element was sorted into a run
//               and replaced by this unit carrying its key and the run
//               pointer (paper Figure 2).
//   kFragment — an incomplete sorted run for the graceful-degeneration
//               optimization: a sorted forest of children of the innermost
//               open element, to be merged at that element's sort.
//
// Encoding (docs/FORMATS.md): type byte, level and seq varints, then per
// kind — kStart: name, attribute count, (name, length-prefixed value) per
// attribute, length-prefixed key; kText: length-prefixed text, then a
// length-prefixed key only when the type byte carries kKeyedTextFlag (so a
// text unit without a key encodes exactly as it did before text keys
// existed); kEnd: length-prefixed key; kPointer: length-prefixed key, run
// id, run bytes; kFragment: run id, run bytes. A name is a dictionary id
// varint or a length-prefixed string, per UnitFormat.
//
// Two representations, one per side of the data stack:
//   * ElementUnit owns its strings. The scanners build one per scanned
//     node and AppendUnit encodes it; that is the only time a unit's
//     fields are encoded, apart from pointer and fragment units and start
//     units whose key arrives on their end unit.
//   * UnitView is what DecodeUnit returns: fixed fields plus string views
//     into the encoded bytes, with no allocation. The subtree sorts index
//     views and copy their byte spans into runs; the output DFS decodes
//     views in place from the run buffer and hands them to the emitter.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "extmem/block_device.h"
#include "extmem/run_store.h"
#include "util/status.h"
#include "xml/dictionary.h"
#include "xml/token.h"

namespace nexsort {

enum class UnitType : uint8_t {
  kStart = 1,
  kText = 2,
  kEnd = 3,
  kPointer = 4,
  kFragment = 5,
};

/// Set in a kText unit's type byte when a length-prefixed key follows its
/// text; AppendUnit sets it exactly when the key is non-empty.
inline constexpr uint8_t kKeyedTextFlag = 0x80;

/// Serialization knobs shared by writers and readers of one sort.
struct UnitFormat {
  /// Store names as dictionary ids (compaction on) or inline strings.
  bool use_dictionary = true;
};

struct ElementUnit {
  UnitType type = UnitType::kStart;
  uint32_t level = 0;  // root element = 1; text nodes = parent + 1
  uint64_t seq = 0;    // document-order sequence (uniqueness + stability)

  std::string key;   // normalized sort key (kStart, kText, kEnd, kPointer)
  std::string name;  // tag name (kStart; resolved through the dictionary)
  std::vector<XmlAttribute> attributes;  // kStart
  std::string text;                      // kText
  RunHandle run;                         // kPointer, kFragment

  /// Serialized size of this unit under `format` (for threshold math).
  size_t EncodedSize(const UnitFormat& format) const;
};

/// Append the serialized unit to *dst, interning names into *dictionary
/// when format.use_dictionary.
void AppendUnit(std::string* dst, const ElementUnit& unit,
                const UnitFormat& format, NameDictionary* dictionary);

/// Outcome of decoding one unit from the front of a byte string. kTruncated
/// means the bytes end inside the unit (more may follow in a stream);
/// kMalformed means no continuation can make them a unit.
enum class DecodeResult { kOk, kTruncated, kMalformed };

/// One attribute of a UnitView.
struct AttributeView {
  std::string_view name;
  std::string_view value;
};

/// A decoded unit whose strings point into its encoded bytes (names in the
/// dictionary format resolve through the dictionary it was decoded with).
/// Valid while those bytes are alive and unchanged.
class UnitView {
 public:
  UnitType type = UnitType::kStart;
  uint32_t level = 0;
  uint64_t seq = 0;
  std::string_view key;   // kStart, kText, kEnd, kPointer
  std::string_view text;  // kText
  RunHandle run;          // kPointer, kFragment
  std::string_view bytes;  // the whole encoded unit

  /// Tag name of a kStart unit.
  std::string_view name() const {
    return dictionary_ != nullptr ? dictionary_->NameAt(name_id_) : name_;
  }

  /// The dictionary the names resolve through; null in the verbatim format.
  const NameDictionary* dictionary() const { return dictionary_; }

  /// Dictionary id of a kStart unit's name (dictionary format only).
  uint32_t name_id() const { return name_id_; }

  /// Walks a kStart unit's attributes in document order. DecodeUnit has
  /// already validated every byte the walk reads, so it cannot fail.
  class AttributeIterator {
   public:
    bool Next(AttributeView* attribute);

   private:
    friend class UnitView;
    explicit AttributeIterator(const UnitView& unit)
        : rest_(unit.attributes_),
          remaining_(unit.attribute_count_),
          dictionary_(unit.dictionary_) {}
    std::string_view rest_;
    uint64_t remaining_;
    const NameDictionary* dictionary_;
  };
  AttributeIterator attributes() const { return AttributeIterator(*this); }
  uint64_t attribute_count() const { return attribute_count_; }

 private:
  friend DecodeResult DecodeUnit(std::string_view, const UnitFormat&,
                                 const NameDictionary*, UnitView*);
  const NameDictionary* dictionary_ = nullptr;
  uint32_t name_id_ = 0;
  std::string_view name_;        // verbatim format
  std::string_view attributes_;  // encoded attribute list
  uint64_t attribute_count_ = 0;
};

/// Decode the unit at the front of `input` into *unit without allocating;
/// unit->bytes is the prefix it occupies. Dictionary ids are checked
/// against `dictionary` (required in the dictionary format).
DecodeResult DecodeUnit(std::string_view input, const UnitFormat& format,
                        const NameDictionary* dictionary, UnitView* unit);

/// DecodeUnit for buffers that hold whole units: decode the unit at the
/// front of *input and advance past it; Corruption if it is truncated or
/// malformed.
[[nodiscard]] Status NextUnit(std::string_view* input,
                              const UnitFormat& format,
                              const NameDictionary* dictionary,
                              UnitView* unit);

/// NextUnit, materialized into an owning ElementUnit (tests).
[[nodiscard]] Status ParseUnit(std::string_view* input, ElementUnit* unit,
                 const UnitFormat& format, const NameDictionary* dictionary);

/// Streaming unit reader over a sorted run. Tracks the logical byte offset
/// so the output phase can record resume points on the output location
/// stack when it follows a run pointer (paper Figure 4, lines 18-20).
class RunUnitReader {
 public:
  RunUnitReader(RunStore* store, RunHandle handle, uint64_t offset,
                const UnitFormat& format, const NameDictionary* dictionary,
                IoCategory category = IoCategory::kRunRead);

  const Status& init_status() const { return init_status_; }

  /// Decode the next unit in place; returns false at end of run. The view
  /// points into the reader's buffer and is valid until the next call.
  /// Corruption as soon as the buffered bytes cannot start a unit, or when
  /// the run ends inside one.
  [[nodiscard]] StatusOr<bool> Next(UnitView* unit);

  RunHandle handle() const { return handle_; }

  /// Offset of the first un-consumed unit.
  uint64_t offset() const { return logical_offset_; }

 private:
  RunReader reader_;
  RunHandle handle_;
  const UnitFormat format_;
  const NameDictionary* dictionary_;
  Status init_status_;
  std::string buffer_;
  size_t buffer_pos_ = 0;
  uint64_t logical_offset_ = 0;
};

}  // namespace nexsort
