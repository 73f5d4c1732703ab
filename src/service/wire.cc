#include "service/wire.h"

#include <cmath>
#include <cstdlib>

#include "extmem/stream.h"
#include "nested/json_reader.h"
#include "obs/json_writer.h"

namespace nexsort {

StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  // The DOM is destroyed and re-serialized recursively, so the depth bound
  // keeps a hostile request from exhausting the connection thread's stack.
  constexpr int kMaxDepth = 64;
  StringByteSource source(text);
  JsonReader reader(&source, kMaxDepth);
  struct Open {
    std::string name;  // member name of the container, if any
    JsonValue value;
  };
  std::vector<Open> open;
  JsonValue root;
  JsonEvent event;
  while (true) {
    ASSIGN_OR_RETURN(bool more, reader.Next(&event));
    if (!more) return root;
    JsonValue value;
    std::string name = std::move(event.name);
    switch (event.type) {
      case JsonEvent::Type::kBeginObject:
      case JsonEvent::Type::kBeginArray:
        value.kind_ = event.type == JsonEvent::Type::kBeginObject
                          ? Kind::kObject
                          : Kind::kArray;
        open.push_back({std::move(name), std::move(value)});
        continue;
      case JsonEvent::Type::kEndObject:
      case JsonEvent::Type::kEndArray:
        name = std::move(open.back().name);
        value = std::move(open.back().value);
        open.pop_back();
        break;
      case JsonEvent::Type::kString:
        value.kind_ = Kind::kString;
        value.string_ = std::move(event.text);
        break;
      case JsonEvent::Type::kNumber:
        // The reader checked the grammar; only the range is left.
        value.number_ = std::strtod(event.text.c_str(), nullptr);
        if (!std::isfinite(value.number_)) {
          return Status::ParseError("json: malformed number at byte " +
                                    std::to_string(event.offset));
        }
        value.kind_ = Kind::kNumber;
        break;
      case JsonEvent::Type::kTrue:
      case JsonEvent::Type::kFalse:
        value.kind_ = Kind::kBool;
        value.bool_ = event.type == JsonEvent::Type::kTrue;
        break;
      case JsonEvent::Type::kNull:
        break;
    }
    if (open.empty()) {
      root = std::move(value);
    } else if (open.back().value.kind_ == Kind::kObject) {
      open.back().value.members_.emplace_back(std::move(name),
                                              std::move(value));
    } else {
      open.back().value.items_.push_back(std::move(value));
    }
  }
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::string JsonValue::GetString(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_string()) return std::string(fallback);
  return member->string_value();
}

uint64_t JsonValue::GetUint(std::string_view key, uint64_t fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_number() ||
      member->number_value() < 0) {
    return fallback;
  }
  return static_cast<uint64_t>(member->number_value());
}

int64_t JsonValue::GetInt(std::string_view key, int64_t fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_number()) return fallback;
  return static_cast<int64_t>(member->number_value());
}

double JsonValue::GetDouble(std::string_view key, double fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_number()) return fallback;
  return member->number_value();
}

bool JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* member = Find(key);
  if (member == nullptr || !member->is_bool()) return fallback;
  return member->bool_value();
}

void JsonValue::WriteTo(JsonWriter* writer) const {
  switch (kind_) {
    case Kind::kNull:
      writer->Null();
      return;
    case Kind::kBool:
      writer->Bool(bool_);
      return;
    case Kind::kNumber:
      // Counters parse as integral doubles; keep them integral on the way
      // back out so a stats round-trip stays byte-comparable.
      if (number_ == static_cast<double>(static_cast<int64_t>(number_))) {
        writer->Int(static_cast<int64_t>(number_));
      } else {
        writer->Double(number_);
      }
      return;
    case Kind::kString:
      writer->String(string_);
      return;
    case Kind::kArray:
      writer->BeginArray();
      for (const JsonValue& item : items_) item.WriteTo(writer);
      writer->EndArray();
      return;
    case Kind::kObject:
      writer->BeginObject();
      for (const auto& [name, value] : members_) {
        writer->Key(name);
        value.WriteTo(writer);
      }
      writer->EndObject();
      return;
  }
}

std::string JsonValue::ToJsonString() const {
  JsonWriter writer;
  WriteTo(&writer);
  return std::move(writer).Take();
}

}  // namespace nexsort
