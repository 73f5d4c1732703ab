#include "core/unit_emitter.h"

#include "xml/escape.h"

namespace nexsort {

UnitXmlEmitter::UnitXmlEmitter(BlockDevice* device, MemoryBudget* budget,
                               NameDictionary* dictionary, ByteSink* output,
                               UnitEmitterOptions options)
    : dictionary_(dictionary),
      output_(output),
      options_(options),
      tags_(device, budget, 1, IoCategory::kOutputStack) {}

Status UnitXmlEmitter::FlushIfLarge() {
  if (buffer_.size() >= 64 * 1024) {
    output_bytes_ += buffer_.size();
    RETURN_IF_ERROR(output_->Append(buffer_));
    buffer_.clear();
  }
  return Status::OK();
}

void UnitXmlEmitter::Indent(uint32_t level) {
  if (wrote_anything_) buffer_.push_back('\n');
  buffer_.append(2 * (level - 1), ' ');
}

Status UnitXmlEmitter::CloseTo(uint32_t level) {
  while (!tags_.empty()) {
    OpenTag top;
    RETURN_IF_ERROR(tags_.Top(&top));
    if (top.level < level) break;
    RETURN_IF_ERROR(tags_.Pop(&top));
    ASSIGN_OR_RETURN(std::string_view name, dictionary_->Lookup(top.name_id));
    // Pretty: end tags of elements with element children go on their own
    // line; leaf/text-only elements close inline.
    if (options_.pretty && (top.flags & kHadElementChild) != 0) {
      Indent(top.level);
    }
    buffer_.append("</");
    buffer_.append(name);
    buffer_.push_back('>');
    RETURN_IF_ERROR(FlushIfLarge());
  }
  return Status::OK();
}

Status UnitXmlEmitter::Emit(const UnitView& unit) {
  switch (unit.type) {
    case UnitType::kStart: {
      RETURN_IF_ERROR(CloseTo(unit.level));
      if (!tags_.empty()) {
        OpenTag parent;
        RETURN_IF_ERROR(tags_.Top(&parent));
        if ((parent.flags & kHadElementChild) == 0) {
          parent.flags |= kHadElementChild;
          RETURN_IF_ERROR(tags_.ReplaceTop(parent));
        }
      }
      if (options_.pretty) Indent(unit.level);
      const std::string_view name = unit.name();
      buffer_.push_back('<');
      buffer_.append(name);
      UnitView::AttributeIterator attributes = unit.attributes();
      AttributeView attr;
      while (attributes.Next(&attr)) {
        buffer_.push_back(' ');
        buffer_.append(attr.name);
        buffer_.append("=\"");
        AppendEscapedAttribute(&buffer_, attr.value);
        buffer_.push_back('"');
      }
      buffer_.push_back('>');
      wrote_anything_ = true;
      OpenTag tag;
      tag.name_id = unit.dictionary() == dictionary_
                        ? unit.name_id()
                        : dictionary_->Intern(name);
      tag.level = unit.level;
      RETURN_IF_ERROR(tags_.Push(tag));
      break;
    }
    case UnitType::kText: {
      RETURN_IF_ERROR(CloseTo(unit.level));
      if (!tags_.empty()) {
        OpenTag parent;
        RETURN_IF_ERROR(tags_.Top(&parent));
        if ((parent.flags & kHadText) == 0) {
          parent.flags |= kHadText;
          RETURN_IF_ERROR(tags_.ReplaceTop(parent));
        }
      }
      AppendEscapedText(&buffer_, unit.text);
      wrote_anything_ = true;
      break;
    }
    case UnitType::kEnd:
      break;
    case UnitType::kPointer:
    case UnitType::kFragment:
      return Status::InvalidArgument("run-pointer unit in XML emission");
  }
  return FlushIfLarge();
}

Status UnitXmlEmitter::Finish() {
  RETURN_IF_ERROR(CloseTo(1));
  output_bytes_ += buffer_.size();
  if (!buffer_.empty()) RETURN_IF_ERROR(output_->Append(buffer_));
  buffer_.clear();
  return Status::OK();
}

}  // namespace nexsort
