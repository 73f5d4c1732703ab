#include "core/element_unit.h"

#include "extmem/block_device.h"
#include "util/varint.h"

namespace nexsort {

size_t ElementUnit::EncodedSize(const UnitFormat& format) const {
  // Exact computation is not needed — threshold comparisons tolerate a few
  // bytes of slack — but this stays within one varint of exact.
  size_t size = 1 + VarintLength(level) + VarintLength(seq);
  switch (type) {
    case UnitType::kStart:
      size += format.use_dictionary ? 2 : VarintLength(name.size()) + name.size();
      size += VarintLength(attributes.size());
      for (const XmlAttribute& attr : attributes) {
        size += format.use_dictionary
                    ? 2
                    : VarintLength(attr.name.size()) + attr.name.size();
        size += VarintLength(attr.value.size()) + attr.value.size();
      }
      size += VarintLength(key.size()) + key.size();
      break;
    case UnitType::kText:
      size += VarintLength(text.size()) + text.size();
      if (!key.empty()) size += VarintLength(key.size()) + key.size();
      break;
    case UnitType::kEnd:
      size += VarintLength(key.size()) + key.size();
      break;
    case UnitType::kPointer:
      size += VarintLength(key.size()) + key.size();
      size += VarintLength(run.id) + VarintLength(run.byte_size);
      break;
    case UnitType::kFragment:
      size += VarintLength(run.id) + VarintLength(run.byte_size);
      break;
  }
  return size;
}

void AppendUnit(std::string* dst, const ElementUnit& unit,
                const UnitFormat& format, NameDictionary* dictionary) {
  const bool keyed_text = unit.type == UnitType::kText && !unit.key.empty();
  dst->push_back(static_cast<char>(static_cast<uint8_t>(unit.type) |
                                   (keyed_text ? kKeyedTextFlag : 0)));
  PutVarint32(dst, unit.level);
  PutVarint64(dst, unit.seq);
  switch (unit.type) {
    case UnitType::kStart:
      if (format.use_dictionary) {
        PutVarint32(dst, dictionary->Intern(unit.name));
      } else {
        PutLengthPrefixed(dst, unit.name);
      }
      PutVarint64(dst, unit.attributes.size());
      for (const XmlAttribute& attr : unit.attributes) {
        if (format.use_dictionary) {
          PutVarint32(dst, dictionary->Intern(attr.name));
        } else {
          PutLengthPrefixed(dst, attr.name);
        }
        PutLengthPrefixed(dst, attr.value);
      }
      PutLengthPrefixed(dst, unit.key);
      break;
    case UnitType::kText:
      PutLengthPrefixed(dst, unit.text);
      if (keyed_text) PutLengthPrefixed(dst, unit.key);
      break;
    case UnitType::kEnd:
      PutLengthPrefixed(dst, unit.key);
      break;
    case UnitType::kPointer:
      PutLengthPrefixed(dst, unit.key);
      PutVarint32(dst, unit.run.id);
      PutVarint64(dst, unit.run.byte_size);
      break;
    case UnitType::kFragment:
      PutVarint32(dst, unit.run.id);
      PutVarint64(dst, unit.run.byte_size);
      break;
  }
}

namespace {

// Bounds-checked cursor over encoded unit bytes. A read that fails returns
// false and records in `result` whether the bytes ran out (truncated) or
// can never form a unit (malformed).
class UnitCursor {
 public:
  explicit UnitCursor(std::string_view input)
      : p_(input.data()), end_(input.data() + input.size()) {}

  DecodeResult result = DecodeResult::kOk;

  const char* position() const { return p_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  bool Fail(DecodeResult why) {
    result = why;
    return false;
  }

  // Same encoding and limits as GetVarint64: at most ten bytes.
  bool Varint(uint64_t* value) {
    uint64_t decoded = 0;
    for (int shift = 0; shift <= 63; shift += 7) {
      if (p_ == end_) return Fail(DecodeResult::kTruncated);
      unsigned char byte = static_cast<unsigned char>(*p_++);
      decoded |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        *value = decoded;
        return true;
      }
    }
    return Fail(DecodeResult::kMalformed);
  }

  bool Varint32(uint32_t* value) {
    uint64_t decoded = 0;
    if (!Varint(&decoded)) return false;
    if (decoded > UINT32_MAX) return Fail(DecodeResult::kMalformed);
    *value = static_cast<uint32_t>(decoded);
    return true;
  }

  bool LengthPrefixed(std::string_view* value) {
    uint64_t length = 0;
    if (!Varint(&length)) return false;
    if (length > remaining()) return Fail(DecodeResult::kTruncated);
    *value = std::string_view(p_, length);
    p_ += length;
    return true;
  }

  // A name: a dictionary id checked against `dictionary`, or an inline
  // string.
  bool Name(const NameDictionary* dictionary, uint32_t* id,
            std::string_view* name) {
    if (dictionary == nullptr) return LengthPrefixed(name);
    if (!Varint32(id)) return false;
    if (*id >= dictionary->size()) return Fail(DecodeResult::kMalformed);
    return true;
  }

 private:
  const char* p_;
  const char* const end_;
};

}  // namespace

DecodeResult DecodeUnit(std::string_view input, const UnitFormat& format,
                        const NameDictionary* dictionary, UnitView* unit) {
  if (input.empty()) return DecodeResult::kTruncated;
  uint8_t type_byte = static_cast<uint8_t>(input.front());
  const bool keyed_text =
      type_byte == (static_cast<uint8_t>(UnitType::kText) | kKeyedTextFlag);
  if (keyed_text) type_byte = static_cast<uint8_t>(UnitType::kText);
  if (type_byte < 1 || type_byte > 5) return DecodeResult::kMalformed;
  const NameDictionary* names = format.use_dictionary ? dictionary : nullptr;
  if (format.use_dictionary && names == nullptr) {
    return DecodeResult::kMalformed;
  }
  UnitCursor in(input.substr(1));
  unit->type = static_cast<UnitType>(type_byte);
  unit->key = {};
  unit->text = {};
  unit->run = RunHandle();
  unit->dictionary_ = names;
  unit->name_id_ = 0;
  unit->name_ = {};
  unit->attributes_ = {};
  unit->attribute_count_ = 0;
  if (!in.Varint32(&unit->level) || !in.Varint(&unit->seq)) return in.result;
  switch (unit->type) {
    case UnitType::kStart: {
      if (!in.Name(names, &unit->name_id_, &unit->name_)) return in.result;
      uint64_t count = 0;
      if (!in.Varint(&count)) return in.result;
      // Every attribute takes at least two bytes.
      if (count > in.remaining()) return DecodeResult::kTruncated;
      const char* attributes = in.position();
      uint32_t id = 0;
      std::string_view name;
      std::string_view value;
      for (uint64_t i = 0; i < count; ++i) {
        if (!in.Name(names, &id, &name) || !in.LengthPrefixed(&value)) {
          return in.result;
        }
      }
      unit->attributes_ = std::string_view(
          attributes, static_cast<size_t>(in.position() - attributes));
      unit->attribute_count_ = count;
      if (!in.LengthPrefixed(&unit->key)) return in.result;
      break;
    }
    case UnitType::kText:
      if (!in.LengthPrefixed(&unit->text)) return in.result;
      if (keyed_text && !in.LengthPrefixed(&unit->key)) return in.result;
      break;
    case UnitType::kEnd:
      if (!in.LengthPrefixed(&unit->key)) return in.result;
      break;
    case UnitType::kPointer:
      if (!in.LengthPrefixed(&unit->key) || !in.Varint32(&unit->run.id) ||
          !in.Varint(&unit->run.byte_size)) {
        return in.result;
      }
      break;
    case UnitType::kFragment:
      if (!in.Varint32(&unit->run.id) || !in.Varint(&unit->run.byte_size)) {
        return in.result;
      }
      break;
  }
  unit->bytes = input.substr(
      0, static_cast<size_t>(in.position() - input.data()));
  return DecodeResult::kOk;
}

bool UnitView::AttributeIterator::Next(AttributeView* attribute) {
  if (remaining_ == 0) return false;
  --remaining_;
  UnitCursor in(rest_);
  uint32_t id = 0;
  // Both reads were validated by DecodeUnit.
  in.Name(dictionary_, &id, &attribute->name);
  in.LengthPrefixed(&attribute->value);
  if (dictionary_ != nullptr) attribute->name = dictionary_->NameAt(id);
  rest_.remove_prefix(static_cast<size_t>(in.position() - rest_.data()));
  return true;
}

Status NextUnit(std::string_view* input, const UnitFormat& format,
                const NameDictionary* dictionary, UnitView* unit) {
  switch (DecodeUnit(*input, format, dictionary, unit)) {
    case DecodeResult::kOk:
      input->remove_prefix(unit->bytes.size());
      return Status::OK();
    case DecodeResult::kTruncated:
      return Status::Corruption("truncated unit");
    case DecodeResult::kMalformed:
      break;
  }
  return Status::Corruption("malformed unit");
}

Status ParseUnit(std::string_view* input, ElementUnit* unit,
                 const UnitFormat& format, const NameDictionary* dictionary) {
  UnitView view;
  RETURN_IF_ERROR(NextUnit(input, format, dictionary, &view));
  unit->type = view.type;
  unit->level = view.level;
  unit->seq = view.seq;
  unit->key.assign(view.key);
  unit->name.assign(view.type == UnitType::kStart ? view.name()
                                                  : std::string_view());
  unit->attributes.clear();
  UnitView::AttributeIterator attributes = view.attributes();
  AttributeView attribute;
  while (attributes.Next(&attribute)) {
    unit->attributes.push_back(
        {std::string(attribute.name), std::string(attribute.value)});
  }
  unit->text.assign(view.text);
  unit->run = view.run;
  return Status::OK();
}

RunUnitReader::RunUnitReader(RunStore* store, RunHandle handle,
                             uint64_t offset, const UnitFormat& format,
                             const NameDictionary* dictionary,
                             IoCategory category)
    : reader_(store->OpenRun(handle, offset, category)),
      handle_(handle),
      format_(format),
      dictionary_(dictionary),
      logical_offset_(offset) {
  init_status_ = reader_.init_status();
}

StatusOr<bool> RunUnitReader::Next(UnitView* unit) {
  // Refill until a whole unit is buffered or the run is drained. Only a
  // unit that runs past the buffered bytes waits for more: a malformed one
  // fails here, before the rest of the run is read.
  constexpr size_t kRefill = 4096;
  while (true) {
    std::string_view view(buffer_.data() + buffer_pos_,
                          buffer_.size() - buffer_pos_);
    if (!view.empty()) {
      switch (DecodeUnit(view, format_, dictionary_, unit)) {
        case DecodeResult::kOk:
          buffer_pos_ += unit->bytes.size();
          logical_offset_ += unit->bytes.size();
          return true;
        case DecodeResult::kMalformed:
          return Status::Corruption("malformed unit in run " +
                                    std::to_string(handle_.id));
        case DecodeResult::kTruncated:
          if (reader_.bytes_remaining() == 0) {
            return Status::Corruption("run " + std::to_string(handle_.id) +
                                      " ends inside a unit");
          }
          break;
      }
    } else if (reader_.bytes_remaining() == 0) {
      return false;
    }
    // Compact and refill.
    buffer_.erase(0, buffer_pos_);
    buffer_pos_ = 0;
    size_t old_size = buffer_.size();
    buffer_.resize(old_size + kRefill);
    size_t got = 0;
    RETURN_IF_ERROR(reader_.Read(buffer_.data() + old_size, kRefill, &got));
    buffer_.resize(old_size + got);
  }
}

}  // namespace nexsort
