#include "xml/escape.h"

#include <cstdlib>

namespace nexsort {

namespace {

// Append `text`, copying whole runs between special characters and
// replacing each special character with its entity. '"' is special only in
// attribute values.
void AppendEscaped(std::string* out, std::string_view text, bool attribute) {
  const char* p = text.data();
  const char* const end = p + text.size();
  while (true) {
    const char* run = p;
    while (p < end && *p != '&' && *p != '<' && *p != '>' &&
           (!attribute || *p != '"')) {
      ++p;
    }
    out->append(run, p);
    if (p == end) return;
    switch (*p++) {
      case '&': out->append("&amp;"); break;
      case '<': out->append("&lt;"); break;
      case '>': out->append("&gt;"); break;
      default: out->append("&quot;"); break;
    }
  }
}

// Append the UTF-8 encoding of `cp` to *out.
void AppendUtf8(std::string* out, uint32_t cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

void AppendEscapedText(std::string* out, std::string_view text) {
  AppendEscaped(out, text, /*attribute=*/false);
}

void AppendEscapedAttribute(std::string* out, std::string_view value) {
  AppendEscaped(out, value, /*attribute=*/true);
}

Status AppendUnescaped(
    std::string* out, std::string_view input,
    const std::unordered_map<std::string, std::string>* custom) {
  size_t i = 0;
  while (true) {
    size_t amp = input.find('&', i);
    out->append(input.substr(i, amp - i));
    if (amp == std::string_view::npos) return Status::OK();
    i = amp;
    size_t end = input.find(';', i + 1);
    if (end == std::string_view::npos || end == i + 1) {
      return Status::ParseError("malformed entity reference");
    }
    std::string_view entity = input.substr(i + 1, end - i - 1);
    if (entity == "amp") {
      out->push_back('&');
    } else if (entity == "lt") {
      out->push_back('<');
    } else if (entity == "gt") {
      out->push_back('>');
    } else if (entity == "apos") {
      out->push_back('\'');
    } else if (entity == "quot") {
      out->push_back('"');
    } else if (entity.size() > 1 && entity[0] == '#') {
      std::string digits(entity.substr(1));
      char* endp = nullptr;
      long cp;
      if (digits[0] == 'x' || digits[0] == 'X') {
        cp = std::strtol(digits.c_str() + 1, &endp, 16);
      } else {
        cp = std::strtol(digits.c_str(), &endp, 10);
      }
      if (endp == nullptr || *endp != '\0' || cp <= 0 || cp > 0x10FFFF) {
        return Status::ParseError("malformed character reference: &" +
                                  std::string(entity) + ";");
      }
      AppendUtf8(out, static_cast<uint32_t>(cp));
    } else {
      if (custom != nullptr) {
        auto it = custom->find(std::string(entity));
        if (it != custom->end()) {
          out->append(it->second);
          i = end + 1;
          continue;
        }
      }
      return Status::ParseError("unknown entity: &" + std::string(entity) +
                                ";");
    }
    i = end + 1;
  }
}

}  // namespace nexsort
