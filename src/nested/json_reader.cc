#include "nested/json_reader.h"

#include "util/string_util.h"

namespace nexsort {

namespace {

constexpr size_t kChunk = 16 * 1024;

bool IsDigit(int c) { return c >= '0' && c <= '9'; }

}  // namespace

JsonReader::JsonReader(ByteSource* source, int max_depth)
    : source_(source), max_depth_(static_cast<size_t>(max_depth)) {}

Status JsonReader::Error(std::string_view what) const {
  return Error(what, bytes_consumed());
}

Status JsonReader::Error(std::string_view what, uint64_t offset) const {
  return Status::ParseError("json: " + std::string(what) + " at byte " +
                            std::to_string(offset));
}

Status JsonReader::Fill() {
  if (eof_) return Status::OK();
  // Drop the consumed prefix once it outgrows a chunk, so the buffer stays
  // bounded by the longest token plus one chunk.
  if (pos_ >= kChunk) {
    buffer_.erase(0, pos_);
    base_ += pos_;
    pos_ = 0;
  }
  size_t old_size = buffer_.size();
  buffer_.resize(old_size + kChunk);
  size_t got = 0;
  Status st = source_->Read(buffer_.data() + old_size, kChunk, &got);
  buffer_.resize(old_size + got);
  if (!st.ok()) return st;
  if (got == 0) eof_ = true;
  return Status::OK();
}

Status JsonReader::Ensure(size_t n) {
  while (buffer_.size() - pos_ < n && !eof_) RETURN_IF_ERROR(Fill());
  return Status::OK();
}

StatusOr<int> JsonReader::PeekToken() {
  while (true) {
    while (pos_ < buffer_.size()) {
      char c = buffer_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        return static_cast<int>(static_cast<unsigned char>(c));
      }
      ++pos_;
    }
    if (eof_) return -1;
    RETURN_IF_ERROR(Fill());
  }
}

StatusOr<bool> JsonReader::Next(JsonEvent* event) {
  if (done_) return false;
  event->member = false;
  event->name.clear();
  if (!started_) {
    started_ = true;
    return ReadValue(event);
  }
  ASSIGN_OR_RETURN(int c, PeekToken());
  if (open_.empty()) {
    // The root value is complete: only whitespace may follow.
    if (c != -1) return Error("trailing content after document");
    done_ = true;
    return false;
  }
  const bool in_object = open_.back();
  const char close = in_object ? '}' : ']';
  if (c == close) {
    event->type = in_object ? JsonEvent::Type::kEndObject
                            : JsonEvent::Type::kEndArray;
    event->offset = bytes_consumed();
    ++pos_;
    open_.pop_back();
    just_opened_ = false;
    return true;
  }
  if (just_opened_) {
    just_opened_ = false;
  } else if (c == ',') {
    ++pos_;
  } else {
    return Error(in_object ? "expected ',' or '}'" : "expected ',' or ']'");
  }
  if (in_object) {
    ASSIGN_OR_RETURN(c, PeekToken());
    if (c != '"') return Error("expected member name");
    RETURN_IF_ERROR(ReadString(&event->name));
    ASSIGN_OR_RETURN(c, PeekToken());
    if (c != ':') return Error("expected ':'");
    ++pos_;
    event->member = true;
  }
  return ReadValue(event);
}

StatusOr<bool> JsonReader::ReadValue(JsonEvent* event) {
  ASSIGN_OR_RETURN(int c, PeekToken());
  event->offset = bytes_consumed();
  event->text.clear();
  if (max_depth_ != 0 && open_.size() > max_depth_) {
    return Error("nesting too deep");
  }
  switch (c) {
    case -1:
      return Error("unexpected end");
    case '{':
    case '[':
      ++pos_;
      open_.push_back(c == '{');
      just_opened_ = true;
      event->type = c == '{' ? JsonEvent::Type::kBeginObject
                             : JsonEvent::Type::kBeginArray;
      return true;
    case '"':
      event->type = JsonEvent::Type::kString;
      RETURN_IF_ERROR(ReadString(&event->text));
      return true;
    case 't':
      event->type = JsonEvent::Type::kTrue;
      RETURN_IF_ERROR(ReadLiteral("true"));
      return true;
    case 'f':
      event->type = JsonEvent::Type::kFalse;
      RETURN_IF_ERROR(ReadLiteral("false"));
      return true;
    case 'n':
      event->type = JsonEvent::Type::kNull;
      RETURN_IF_ERROR(ReadLiteral("null"));
      return true;
    default:
      if (c != '-' && !IsDigit(c)) return Error("expected value");
      event->type = JsonEvent::Type::kNumber;
      RETURN_IF_ERROR(ReadNumber(&event->text));
      return true;
  }
}

Status JsonReader::ReadLiteral(std::string_view word) {
  RETURN_IF_ERROR(Ensure(word.size()));
  if (std::string_view(buffer_).substr(pos_, word.size()) != word) {
    return Error("malformed literal");
  }
  pos_ += word.size();
  return Status::OK();
}

Status JsonReader::ReadString(std::string* out) {
  ++pos_;  // opening quote
  out->clear();
  while (true) {
    // Copy the run up to the next quote, escape or control character.
    size_t run = pos_;
    while (pos_ < buffer_.size()) {
      unsigned char c = static_cast<unsigned char>(buffer_[pos_]);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++pos_;
    }
    out->append(buffer_, run, pos_ - run);
    if (pos_ == buffer_.size()) {
      if (eof_) return Error("unterminated string");
      RETURN_IF_ERROR(Fill());
      continue;
    }
    char c = buffer_[pos_];
    if (c == '"') {
      ++pos_;
      return Status::OK();
    }
    if (c != '\\') return Error("raw control character");
    RETURN_IF_ERROR(ReadEscape(out));
  }
}

Status JsonReader::ReadEscape(std::string* out) {
  ++pos_;  // backslash
  RETURN_IF_ERROR(Ensure(1));
  if (pos_ == buffer_.size()) return Error("dangling escape");
  char c = buffer_[pos_++];
  switch (c) {
    case '"': out->push_back('"'); return Status::OK();
    case '\\': out->push_back('\\'); return Status::OK();
    case '/': out->push_back('/'); return Status::OK();
    case 'b': out->push_back('\b'); return Status::OK();
    case 'f': out->push_back('\f'); return Status::OK();
    case 'n': out->push_back('\n'); return Status::OK();
    case 'r': out->push_back('\r'); return Status::OK();
    case 't': out->push_back('\t'); return Status::OK();
    case 'u':
      break;
    default:
      return Error("unknown escape", bytes_consumed() - 1);
  }
  uint32_t code = 0;
  RETURN_IF_ERROR(ReadHex4(&code));
  if (code >= 0xDC00 && code <= 0xDFFF) return Error("unpaired low surrogate");
  if (code >= 0xD800 && code <= 0xDBFF) {
    // A high surrogate must be followed by an escaped low surrogate; the
    // pair combines into one scalar value.
    RETURN_IF_ERROR(Ensure(2));
    if (std::string_view(buffer_).substr(pos_, 2) != "\\u") {
      return Error("unpaired high surrogate");
    }
    pos_ += 2;
    uint32_t low = 0;
    RETURN_IF_ERROR(ReadHex4(&low));
    if (low < 0xDC00 || low > 0xDFFF) return Error("invalid low surrogate");
    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
  }
  AppendUtf8(out, code);
  return Status::OK();
}

Status JsonReader::ReadHex4(uint32_t* out) {
  RETURN_IF_ERROR(Ensure(4));
  if (buffer_.size() - pos_ < 4) return Error("truncated \\u escape");
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    char c = buffer_[pos_];
    uint32_t digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = 10 + (c - 'a');
    else if (c >= 'A' && c <= 'F') digit = 10 + (c - 'A');
    else return Error("bad hex digit");
    value = (value << 4) | digit;
    ++pos_;
  }
  *out = value;
  return Status::OK();
}

// number = [ "-" ] ( "0" / digit1-9 *digit ) [ "." 1*digit ]
//          [ ( "e" / "E" ) [ "-" / "+" ] 1*digit ]
Status JsonReader::ReadNumber(std::string* out) {
  const uint64_t start = bytes_consumed();
  auto peek = [&]() -> StatusOr<int> {
    RETURN_IF_ERROR(Ensure(1));
    if (pos_ == buffer_.size()) return -1;
    return static_cast<int>(static_cast<unsigned char>(buffer_[pos_]));
  };
  auto take = [&](char c) {
    out->push_back(c);
    ++pos_;
  };
  ASSIGN_OR_RETURN(int c, peek());
  if (c == '-') {
    take('-');
    ASSIGN_OR_RETURN(c, peek());
  }
  if (c == '0') {
    take('0');
  } else if (IsDigit(c)) {
    RETURN_IF_ERROR(ReadDigits(out));
  } else {
    return Error("malformed number", start);
  }
  ASSIGN_OR_RETURN(c, peek());
  if (c == '.') {
    take('.');
    ASSIGN_OR_RETURN(c, peek());
    if (!IsDigit(c)) return Error("malformed number", start);
    RETURN_IF_ERROR(ReadDigits(out));
    ASSIGN_OR_RETURN(c, peek());
  }
  if (c == 'e' || c == 'E') {
    take(static_cast<char>(c));
    ASSIGN_OR_RETURN(c, peek());
    if (c == '+' || c == '-') {
      take(static_cast<char>(c));
      ASSIGN_OR_RETURN(c, peek());
    }
    if (!IsDigit(c)) return Error("malformed number", start);
    RETURN_IF_ERROR(ReadDigits(out));
  }
  return Status::OK();
}

Status JsonReader::ReadDigits(std::string* out) {
  while (true) {
    RETURN_IF_ERROR(Ensure(1));
    if (pos_ == buffer_.size() || !IsDigit(buffer_[pos_])) {
      return Status::OK();
    }
    out->push_back(buffer_[pos_++]);
  }
}

}  // namespace nexsort
