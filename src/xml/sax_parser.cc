#include "xml/sax_parser.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "xml/escape.h"

namespace nexsort {

namespace {
constexpr size_t kChunkSize = 16 * 1024;
constexpr size_t kNpos = std::string_view::npos;

// Character classes of the accepted grammar: ASCII only, so the scan does
// not depend on the process locale.
enum : uint8_t { kSpace = 1, kNameStart = 2, kNameChar = 4 };
constexpr std::array<uint8_t, 256> MakeClasses() {
  std::array<uint8_t, 256> classes{};
  for (int c = 'a'; c <= 'z'; ++c) classes[c] = kNameStart | kNameChar;
  for (int c = 'A'; c <= 'Z'; ++c) classes[c] = kNameStart | kNameChar;
  for (int c = '0'; c <= '9'; ++c) classes[c] = kNameChar;
  classes['_'] = classes[':'] = kNameStart | kNameChar;
  classes['-'] = classes['.'] = kNameChar;
  classes[' '] = classes['\t'] = classes['\n'] = classes['\r'] = kSpace;
  return classes;
}
constexpr std::array<uint8_t, 256> kClasses = MakeClasses();

bool Is(char c, uint8_t cls) {
  return (kClasses[static_cast<unsigned char>(c)] & cls) != 0;
}

// First position in [p, end) whose character is not of class `cls`.
const char* Skip(const char* p, const char* end, uint8_t cls) {
  while (p < end && Is(*p, cls)) ++p;
  return p;
}
}  // namespace

SaxParser::SaxParser(ByteSource* source, SaxOptions options)
    : source_(source), options_(options) {}

Status SaxParser::Fill() {
  if (source_eof_) return Status::OK();
  // Refills happen at token boundaries: everything before the cursor is
  // done with, so the buffer keeps one partial token plus one chunk.
  if (pos_ > 0) {
    std::memmove(buffer_.data(), Cursor(), Available());
    end_ -= pos_;
    pos_ = 0;
  }
  if (buffer_.size() < end_ + kChunkSize) buffer_.resize(end_ + kChunkSize);
  size_t got = 0;
  Status st = source_->Read(buffer_.data() + end_, kChunkSize, &got);
  end_ += got;
  if (!st.ok()) return st;
  if (got == 0) source_eof_ = true;
  return Status::OK();
}

Status SaxParser::Ensure(size_t n) {
  while (Available() < n && !source_eof_) RETURN_IF_ERROR(Fill());
  return Status::OK();
}

template <typename Scan>
StatusOr<size_t> SaxParser::BufferToken(size_t from, Scan scan) {
  while (true) {
    size_t found = scan(std::string_view(Cursor(), Available()), &from);
    if (found != kNpos || source_eof_) return found;
    RETURN_IF_ERROR(Fill());
  }
}

StatusOr<size_t> SaxParser::BufferUntil(size_t from,
                                        std::string_view delimiter) {
  return BufferToken(from, [delimiter](std::string_view window, size_t* at) {
    size_t found = window.find(delimiter, *at);
    // Rescan a delimiter-sized overlap: it may straddle the refill.
    size_t tail = std::min(window.size(), delimiter.size() - 1);
    *at = std::max(*at, window.size() - tail);
    return found;
  });
}

Status SaxParser::SkipWhitespace() {
  while (true) {
    Advance(Skip(Cursor(), Cursor() + Available(), kSpace) - Cursor());
    if (Available() > 0 || source_eof_) return Status::OK();
    RETURN_IF_ERROR(Fill());
  }
}

StatusOr<bool> SaxParser::Next(XmlEvent* event) {
  if (pending_end_) {
    pending_end_ = false;
    event->type = XmlEventType::kEndElement;
    event->name.assign(pending_end_name_);
    event->attributes.clear();
    event->text.clear();
    --depth_;
    return true;
  }
  while (true) {
    if (depth_ == 0) {
      // Between/outside root elements only whitespace and markup allowed.
      RETURN_IF_ERROR(SkipWhitespace());
    } else {
      RETURN_IF_ERROR(Ensure(1));
    }
    if (Available() == 0) {
      if (depth_ != 0) return Status::ParseError("unexpected end of input");
      if (!seen_root_) return Status::ParseError("empty document");
      return false;
    }
    bool produced = false;
    if (*Cursor() == '<') {
      RETURN_IF_ERROR(ParseMarkup(event, &produced));
    } else {
      if (depth_ == 0) {
        return Status::ParseError("text outside the root element");
      }
      RETURN_IF_ERROR(ParseText(event, &produced));
    }
    if (produced) return true;
  }
}

Status SaxParser::ParseMarkup(XmlEvent* event, bool* produced) {
  RETURN_IF_ERROR(Ensure(2));
  if (Available() < 2) return Status::ParseError("truncated markup");
  char c = Cursor()[1];
  if (c == '?') return SkipPast(2, "?>", "processing instruction");
  if (c == '!') {
    RETURN_IF_ERROR(Ensure(9));
    std::string_view view(Cursor(), std::min<size_t>(Available(), 9));
    if (view.starts_with("<!--")) return SkipPast(4, "-->", "comment");
    if (view != "<![CDATA[") return ParseDoctype();
    ASSIGN_OR_RETURN(size_t found, BufferUntil(9, "]]>"));
    if (found == kNpos) return Status::ParseError("unterminated CDATA section");
    event->type = XmlEventType::kText;
    event->name.clear();
    event->attributes.clear();
    event->text.assign(Cursor() + 9, found - 9);
    Advance(found + 3);
  } else if (c == '/') {
    RETURN_IF_ERROR(ParseTag(event, /*end_tag=*/true));
  } else {
    if (!Is(c, kNameStart)) return Status::ParseError("malformed tag");
    if (depth_ == 0 && seen_root_) {
      return Status::ParseError("multiple root elements");
    }
    RETURN_IF_ERROR(ParseTag(event, /*end_tag=*/false));
  }
  *produced = true;
  return Status::OK();
}

Status SaxParser::ParseTag(XmlEvent* event, bool end_tag) {
  // Optimistically parse from the buffered window; a tag cut off by the
  // window's end fails, and is parsed again once wholly buffered. The scan
  // for its end skips quoted values; since the grammar admits a quote only
  // as a value delimiter, the parse never looks past that '>'.
  StatusOr<size_t> length = ParseTagIn(event, end_tag, Available());
  if (!length.ok() && !source_eof_) {
    char quote = 0;
    ASSIGN_OR_RETURN(
        size_t close,
        BufferToken(1, [&quote](std::string_view window, size_t* at) {
          for (; *at < window.size(); ++*at) {
            char c = window[*at];
            if (quote == 0 && c == '>') return *at;
            if (c == '"' || c == '\'') {
              quote = quote == 0 ? c : (quote == c ? 0 : quote);
            }
          }
          return kNpos;
        }));
    length = ParseTagIn(event, end_tag,
                        close == kNpos ? Available() : close + 1);
  }
  RETURN_IF_ERROR(length.status());
  bool self_closing = !end_tag && Cursor()[*length - 2] == '/';
  Advance(*length);
  if (end_tag) {
    if (depth_ == 0) return Status::ParseError("end tag with no open element");
    if (options_.check_tag_names) {
      if (open_tags_.back() != event->name) {
        return Status::ParseError("mismatched end tag </" + event->name +
                                  ">, expected </" + open_tags_.back() + ">");
      }
      open_tags_.pop_back();
    }
    --depth_;
    return Status::OK();
  }
  seen_root_ = true;
  ++depth_;
  if (self_closing) {
    pending_end_ = true;
    pending_end_name_.assign(event->name);
  } else if (options_.check_tag_names) {
    open_tags_.push_back(event->name);
  }
  return Status::OK();
}

StatusOr<size_t> SaxParser::ParseTagIn(XmlEvent* event, bool end_tag,
                                       size_t limit) {
  const char* const begin = Cursor();
  const char* const end = begin + limit;
  const char* p = begin + (end_tag ? 2 : 1);
  if (p == end || !Is(*p, kNameStart)) {
    return Status::ParseError("expected name");
  }
  const char* name_end = Skip(p + 1, end, kNameChar);
  event->name.assign(p, name_end);
  p = Skip(name_end, end, kSpace);
  size_t count = 0;
  while (!end_tag && p != end && *p != '>') {
    if (*p == '/') {
      if (p + 1 == end || p[1] != '>') {
        return Status::ParseError("malformed self-closing tag");
      }
      ++p;
      break;
    }
    const char* attr_name = p;
    if (!Is(*p, kNameStart)) return Status::ParseError("expected name");
    const char* attr_name_end = Skip(p + 1, end, kNameChar);
    p = Skip(attr_name_end, end, kSpace);
    if (p == end || *p != '=') {
      return Status::ParseError("expected '=' after attribute name");
    }
    p = Skip(p + 1, end, kSpace);
    if (p == end || (*p != '"' && *p != '\'')) {
      return Status::ParseError("expected quoted attribute value");
    }
    const auto* close =
        static_cast<const char*>(std::memchr(p + 1, *p, end - p - 1));
    if (close == nullptr) {
      return Status::ParseError("unterminated attribute value");
    }
    // Overwrite the entries of a reused event in place: no allocation.
    if (count == event->attributes.size()) event->attributes.emplace_back();
    XmlAttribute& attr = event->attributes[count++];
    attr.name.assign(attr_name, attr_name_end);
    attr.value.clear();
    RETURN_IF_ERROR(AppendUnescaped(
        &attr.value, {p + 1, size_t(close - p - 1)}, &entities_));
    p = Skip(close + 1, end, kSpace);
  }
  if (p == end || *p != '>') {
    return Status::ParseError(end_tag ? "malformed end tag </" + event->name
                                      : "truncated start tag");
  }
  event->type =
      end_tag ? XmlEventType::kEndElement : XmlEventType::kStartElement;
  event->attributes.resize(count);
  event->text.clear();
  return p + 1 - begin;
}

Status SaxParser::SkipPast(size_t open, std::string_view close,
                           const char* what) {
  ASSIGN_OR_RETURN(size_t found, BufferUntil(open, close));
  if (found == kNpos) {
    return Status::ParseError(std::string("unterminated ") + what);
  }
  Advance(found + close.size());
  return Status::OK();
}

Status SaxParser::ParseDoctype() {
  // Scan to the closing '>', honouring internal-subset brackets:
  // <!DOCTYPE name [ ... ]>. The subset's <!ENTITY name "value">
  // declarations are harvested so the document may reference them.
  int brackets = 0;
  ASSIGN_OR_RETURN(
      size_t close,
      BufferToken(2, [&brackets](std::string_view window, size_t* at) {
        for (; *at < window.size(); ++*at) {
          if (window[*at] == '[') ++brackets;
          if (window[*at] == ']') --brackets;
          if (window[*at] == '>' && brackets == 0) return *at;
        }
        return kNpos;
      }));
  if (close == kNpos) return Status::ParseError("unterminated DOCTYPE");
  // Only the first MiB of the declaration is searched for entities.
  std::string_view body(Cursor() + 2, std::min<size_t>(close - 2, 1 << 20));
  const char* body_end = body.data() + body.size();
  size_t at = 0;
  while ((at = body.find("<!ENTITY", at)) != kNpos) {
    at = Skip(body.data() + at + 8, body_end, kSpace) - body.data();
    size_t name_start = at;
    at = Skip(body.data() + at, body_end, kNameChar) - body.data();
    std::string name(body.substr(name_start, at - name_start));
    at = Skip(body.data() + at, body_end, kSpace) - body.data();
    if (name.empty() || at >= body.size() ||
        (body[at] != '"' && body[at] != '\'')) {
      continue;  // parameter/external entities: skipped, not supported
    }
    size_t value_end = body.find(body[at], at + 1);
    if (value_end == kNpos) {
      return Status::ParseError("unterminated entity value");
    }
    // Entity values may themselves use character references.
    std::string value;
    RETURN_IF_ERROR(AppendUnescaped(
        &value, body.substr(at + 1, value_end - at - 1), &entities_));
    entities_[name] = std::move(value);
    at = value_end + 1;
  }
  Advance(close + 1);
  return Status::OK();
}

Status SaxParser::ParseText(XmlEvent* event, bool* produced) {
  ASSIGN_OR_RETURN(size_t length, BufferUntil(0, "<"));
  if (length == kNpos) length = Available();  // text runs to end of input
  std::string_view raw(Cursor(), length);
  if (options_.skip_whitespace_text &&
      Skip(raw.data(), raw.data() + length, kSpace) == raw.data() + length) {
    Advance(length);
    return Status::OK();
  }
  event->type = XmlEventType::kText;
  event->name.clear();
  event->attributes.clear();
  event->text.clear();
  RETURN_IF_ERROR(AppendUnescaped(&event->text, raw, &entities_));
  Advance(length);
  *produced = true;
  return Status::OK();
}

}  // namespace nexsort
