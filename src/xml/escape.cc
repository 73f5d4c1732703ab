#include "xml/escape.h"

#include <array>
#include <cstdint>
#include <cstdlib>

#include "util/string_util.h"

namespace nexsort {

namespace {

// Byte classes for escaping: bit kText marks bytes special in element
// content, bit kAttribute those special in attribute values ('"' is
// special only there).
constexpr uint8_t kText = 1;
constexpr uint8_t kAttribute = 2;

constexpr std::array<uint8_t, 256> MakeEscapeClasses() {
  std::array<uint8_t, 256> classes{};
  classes['&'] = kText | kAttribute;
  classes['<'] = kText | kAttribute;
  classes['>'] = kText | kAttribute;
  classes['"'] = kAttribute;
  return classes;
}
constexpr std::array<uint8_t, 256> kEscapeClasses = MakeEscapeClasses();

// Append `text`, copying whole runs between special characters and
// replacing each special character with its entity. One table lookup per
// byte finds the end of a run.
void AppendEscaped(std::string* out, std::string_view text, bool attribute) {
  const uint8_t special = attribute ? kAttribute : kText;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (true) {
    const char* run = p;
    while (p < end &&
           (kEscapeClasses[static_cast<unsigned char>(*p)] & special) == 0) {
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
