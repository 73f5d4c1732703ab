// Event-based (SAX-style) pull parser, the scanner behind line 3 of the
// paper's Figure 4. It reads from any ByteSource — an in-memory string or a
// block stream on a device, in which case the scan incurs exactly the
// O(N/B) "reading the input" I/Os of the paper's cost breakdown.
//
// Supported XML subset: elements, attributes (single- or double-quoted),
// character data with the predefined entities, numeric character
// references, and custom entities declared in a DOCTYPE internal subset,
// CDATA sections, comments, processing instructions, and the XML
// declaration. This covers everything the paper's workloads (data-centric
// XML) use.
//
// Buffer contract. The parser scans spans of a buffered window, never single
// characters: memchr to the next '<' for text, a character table for names,
// memchr to the closing quote for attribute values, and the entity decoder
// only for spans that contain '&'. A token (a text run, a tag, a comment, a
// PI, a CDATA section, a DOCTYPE) is parsed only once it lies wholly in the
// buffer, so a token must fit in memory. Refills happen only at token
// boundaries: a refill first drops every byte before the token being parsed,
// then reads one fixed-size chunk. The buffer is therefore bounded by the
// largest token plus one chunk, and read-ahead never exceeds one chunk past
// the current token.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "extmem/stream.h"
#include "util/status.h"
#include "xml/token.h"

namespace nexsort {

struct SaxOptions {
  /// Drop text events that are entirely whitespace (inter-element
  /// indentation). Data-centric sorting treats such nodes as formatting.
  bool skip_whitespace_text = true;

  /// Verify that end tags match their start tags. Costs memory proportional
  /// to document depth; with it off only nesting depth is tracked.
  bool check_tag_names = true;
};

/// Streaming pull parser producing XmlEvents.
class SaxParser {
 public:
  explicit SaxParser(ByteSource* source, SaxOptions options = {});

  /// Produce the next event. Returns false at clean end of input (all
  /// elements closed), true if *event was filled. ParseError on malformed
  /// input, or any Status the underlying source fails with. Reusing one
  /// XmlEvent across calls reuses its string and attribute capacity.
  [[nodiscard]] StatusOr<bool> Next(XmlEvent* event);

  /// Nesting depth after the last event (root start tag => 1).
  int depth() const { return depth_; }

  /// Bytes consumed from the source so far.
  uint64_t bytes_consumed() const { return consumed_; }

 private:
  // Buffer management --------------------------------------------------
  [[nodiscard]] Status Fill();            // compact, then read one chunk
  [[nodiscard]] Status Ensure(size_t n);  // buffer n bytes or hit EOF
  const char* Cursor() const { return buffer_.data() + pos_; }
  size_t Available() const { return end_ - pos_; }
  void Advance(size_t n) { pos_ += n; consumed_ += n; }
  // Buffer the token at the cursor: scan(window, &from) returns the offset
  // of the token's end in the window, or npos with `from` set to where the
  // next scan resumes. Returns that offset, or npos at end of input.
  template <typename Scan>
  [[nodiscard]] StatusOr<size_t> BufferToken(size_t from, Scan scan);
  [[nodiscard]] StatusOr<size_t> BufferUntil(size_t from,
                                             std::string_view delimiter);

  // Grammar productions -------------------------------------------------
  [[nodiscard]] Status SkipWhitespace();
  [[nodiscard]] Status ParseMarkup(XmlEvent* event, bool* produced);
  [[nodiscard]] Status ParseTag(XmlEvent* event, bool end_tag);
  // Parse the tag at the cursor within its first `limit` bytes into *event;
  // returns the tag's length. Changes no parser state.
  [[nodiscard]] StatusOr<size_t> ParseTagIn(XmlEvent* event, bool end_tag,
                                            size_t limit);
  [[nodiscard]] Status SkipPast(size_t open, std::string_view close,
                                const char* what);
  [[nodiscard]] Status ParseDoctype();
  [[nodiscard]] Status ParseText(XmlEvent* event, bool* produced);

  ByteSource* source_;
  SaxOptions options_;
  std::string buffer_;  // holds [pos_, end_); grows only for large tokens
  size_t pos_ = 0;
  size_t end_ = 0;
  bool source_eof_ = false;
  uint64_t consumed_ = 0;

  int depth_ = 0;
  bool seen_root_ = false;
  std::vector<std::string> open_tags_;  // only if check_tag_names
  bool pending_end_ = false;            // self-closing tag: emit end next
  std::string pending_end_name_;
  std::unordered_map<std::string, std::string> entities_;  // DOCTYPE subset
};

}  // namespace nexsort
