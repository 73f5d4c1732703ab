#include "obs/json_writer.h"

#include <cmath>
#include <cstdio>

namespace nexsort {

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    if (!has_element_.empty()) has_element_.back() = true;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

void JsonWriter::OpenContainer(char open) {
  BeforeValue();
  out_ += open;
  has_element_.push_back(false);
}

void JsonWriter::CloseContainer(char close) {
  has_element_.pop_back();
  out_ += close;
  if (!has_element_.empty()) has_element_.back() = true;
}

void JsonWriter::Key(std::string_view name) {
  if (!has_element_.empty() && has_element_.back()) out_ += ',';
  if (!has_element_.empty()) has_element_.back() = false;
  AppendEscaped(&out_, name);
  out_ += ':';
  after_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  AppendEscaped(&out_, value);
}

void JsonWriter::Int(int64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
}

void JsonWriter::Uint(uint64_t value) {
  BeforeValue();
  out_ += std::to_string(value);
}

void JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Trim to the shortest representation that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[32];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    double parsed = 0.0;
    std::sscanf(shorter, "%lf", &parsed);
    if (parsed == value) {
      out_ += shorter;
      return;
    }
  }
  out_ += buf;
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
}

void JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_ += json;
}

void JsonWriter::AppendEscaped(std::string* out, std::string_view value) {
  out->push_back('"');
  for (unsigned char c : value) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

}  // namespace nexsort
