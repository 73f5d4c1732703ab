// Wire format of nexsortd (docs/SERVICE.md): one JSON object per line in
// both directions over a unix-domain stream socket — `nexsortd-wire-v1`.
//
// The service side needs a *reader* for JSON (requests arrive as text);
// responses are produced with the streaming JsonWriter like every other
// emitter in the tree. JsonValue is that reader's DOM: small and immutable,
// with the exact feature set the protocol uses (objects, arrays, strings,
// finite numbers, booleans, null). It is built from JsonReader
// (nested/json_reader.h), the same tokenizer JsonSorter uses, so errors
// carry its byte-offset positions and the daemon accepts exactly the
// documents the sorter does, up to a 64-level depth bound and finite
// numbers. Shared by nexsortctl so client and daemon can never disagree
// about framing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace nexsort {

/// One parsed JSON value. Object member order is preserved for
/// deterministic re-serialization in tests.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parse one complete JSON document; trailing non-whitespace is an
  /// error (requests are exactly one object per line).
  [[nodiscard]] static StatusOr<JsonValue> Parse(std::string_view text);

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& object_members()
      const {
    return members_;
  }

  /// Member lookup on an object; null when absent or not an object.
  [[nodiscard]] const JsonValue* Find(std::string_view key) const;

  /// Re-serialize for display and tests: member order preserved, integral
  /// numbers printed without a fraction.
  [[nodiscard]] std::string ToJsonString() const;
  void WriteTo(class JsonWriter* writer) const;

  // -- Typed member accessors with defaults (the protocol's fields are
  // -- mostly optional) -------------------------------------------------
  [[nodiscard]] std::string GetString(std::string_view key,
                                      std::string_view fallback = "") const;
  [[nodiscard]] uint64_t GetUint(std::string_view key,
                                 uint64_t fallback = 0) const;
  [[nodiscard]] int64_t GetInt(std::string_view key,
                               int64_t fallback = 0) const;
  [[nodiscard]] double GetDouble(std::string_view key,
                                 double fallback = 0) const;
  [[nodiscard]] bool GetBool(std::string_view key,
                             bool fallback = false) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace nexsort
