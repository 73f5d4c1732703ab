// Minimal streaming JSON writer for telemetry export: builds RFC 8259
// JSON text into a std::string with automatic comma placement and string
// escaping. Deliberately tiny (no DOM, no parsing) — the observability
// layer only ever *emits* JSON, and keeping the writer dependency-free
// lets every module (extmem stats, core stats, benches) share one schema.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nexsort {

/// Append-only JSON builder. Usage:
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("reads"); w.Uint(12);
///   w.Key("phases"); w.BeginArray(); ... w.EndArray();
///   w.EndObject();
///   std::string text = std::move(w).Take();
/// Misuse (e.g. two values without a comma context) is a programming bug;
/// the writer keeps the output syntactically valid for all call orders the
/// telemetry code uses but does not validate against arbitrary misuse.
class JsonWriter {
 public:
  JsonWriter() = default;

  void BeginObject() { OpenContainer('{'); }
  void EndObject() { CloseContainer('}'); }
  void BeginArray() { OpenContainer('['); }
  void EndArray() { CloseContainer(']'); }

  /// Member name inside an object; must be followed by exactly one value.
  void Key(std::string_view name);

  void String(std::string_view value);
  void Int(int64_t value);
  void Uint(uint64_t value);
  /// Finite doubles print with enough digits to round-trip; NaN/inf (not
  /// representable in JSON) print as null.
  void Double(double value);
  void Bool(bool value);
  void Null();

  /// Splice a pre-rendered JSON value (e.g. a nested ToJson() result).
  void Raw(std::string_view json);

  /// Append `value` to *out as a quoted JSON string: RFC 8259 escapes for
  /// quote, backslash and control characters; other bytes pass through.
  static void AppendEscaped(std::string* out, std::string_view value);

  const std::string& text() const& { return out_; }
  std::string Take() && { return std::move(out_); }

 private:
  void OpenContainer(char open);
  void CloseContainer(char close);
  void BeforeValue();

  std::string out_;
  // One flag per open container: true once it has at least one element
  // (so the next element needs a leading comma).
  std::vector<bool> has_element_;
  bool after_key_ = false;
};

}  // namespace nexsort
