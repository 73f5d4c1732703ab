// JsonReader: the tree's one JSON reader (RFC 8259). A pull parser over a
// ByteSource that checks the whole grammar and yields one event per value
// begin, value end and scalar, each object member's name riding on its
// value's event. Two consumers share it: JsonSorter turns the events into
// NEXSORT units (nested/json.h), and JsonValue::Parse builds the service's
// request DOM from them (service/wire.h), so the daemon and the document
// sorter accept exactly the same documents.
//
// Strict where RFC 8259 is: raw control characters inside strings, lone
// surrogates, leading zeros ("01"), bare fractions ("1.") and trailing
// content after the document are errors. Number lexemes are returned
// verbatim and not range-checked; a caller that needs a finite double
// converts and checks itself. Every error reads "json: <what> at byte N".
// Memory is O(depth) bits of open-container state plus one read chunk and
// the current token.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "extmem/stream.h"
#include "util/status.h"

namespace nexsort {

/// One reader step.
struct JsonEvent {
  enum class Type : uint8_t {
    kBeginObject,
    kEndObject,
    kBeginArray,
    kEndArray,
    kString,
    kNumber,
    kTrue,
    kFalse,
    kNull,
  };
  Type type = Type::kNull;

  /// Set on a value's first event (begin or scalar) when the value is an
  /// object member; `name` then holds the decoded member name.
  bool member = false;
  std::string name;

  /// kString: the decoded value; kNumber: the lexeme as written.
  std::string text;

  /// Byte offset of the value's first character (of the closing bracket
  /// for end events).
  uint64_t offset = 0;
};

class JsonReader {
 public:
  /// `max_depth` bounds how many containers may enclose a value; 0 means
  /// unbounded (the sorter's O(depth) state is a bit per level).
  explicit JsonReader(ByteSource* source, int max_depth = 0);

  /// Next event; false once the root value has closed and only
  /// whitespace followed it.
  [[nodiscard]] StatusOr<bool> Next(JsonEvent* event);

  /// Bytes of input consumed so far.
  uint64_t bytes_consumed() const { return base_ + pos_; }

 private:
  [[nodiscard]] Status Error(std::string_view what) const;
  [[nodiscard]] Status Error(std::string_view what, uint64_t offset) const;
  [[nodiscard]] Status Fill();
  [[nodiscard]] Status Ensure(size_t n);
  /// Next byte after skipping whitespace, or -1 at end of input.
  [[nodiscard]] StatusOr<int> PeekToken();
  [[nodiscard]] StatusOr<bool> ReadValue(JsonEvent* event);
  [[nodiscard]] Status ReadString(std::string* out);
  [[nodiscard]] Status ReadEscape(std::string* out);
  [[nodiscard]] Status ReadHex4(uint32_t* out);
  [[nodiscard]] Status ReadNumber(std::string* out);
  [[nodiscard]] Status ReadDigits(std::string* out);
  [[nodiscard]] Status ReadLiteral(std::string_view word);

  ByteSource* source_;
  const size_t max_depth_;
  std::string buffer_;
  size_t pos_ = 0;     // next unread byte of buffer_
  uint64_t base_ = 0;  // input offset of buffer_[0]
  bool eof_ = false;

  std::vector<bool> open_;   // per open container: true = object
  bool started_ = false;     // root value begun
  bool just_opened_ = false; // top container has no element yet
  bool done_ = false;
};

}  // namespace nexsort
