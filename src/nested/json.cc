#include "nested/json.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "core/order_spec.h"
#include "core/unit_emitter.h"
#include "core/unit_scanner.h"
#include "extmem/block_device.h"
#include "extmem/ext_stack.h"
#include "extmem/memory_budget.h"
#include "extmem/run_store.h"
#include "nested/json_reader.h"
#include "obs/json_writer.h"
#include "sort/sorted_stream.h"
#include "util/string_util.h"

namespace nexsort {

namespace {

// Unit names of the JSON value types, and the unit attributes.
constexpr char kObjectTag[] = "o";
constexpr char kArrayTag[] = "a";
constexpr char kStringTag[] = "s";
constexpr char kNumberTag[] = "n";
constexpr char kBoolTag[] = "b";
constexpr char kNullTag[] = "z";
constexpr char kNameAttribute[] = "k";   // member name
constexpr char kValueAttribute[] = "v";  // scalar value

// ---------------------------------------------------------------------
// JSON -> units
// ---------------------------------------------------------------------

class JsonUnitScanner final : public UnitSource {
 public:
  JsonUnitScanner(ByteSource* input, const JsonSortOptions& options,
                  JsonSortStats* stats)
      : reader_(input),
        key_members_(options.sort_object_members),
        key_items_(!options.sort_arrays_by.empty() ||
                   options.sort_arrays_by_value),
        stats_(stats) {
    for (std::string_view part : Split(options.sort_arrays_by, '/')) {
      if (!part.empty()) key_path_.emplace_back(part);
    }
    item_rule_.numeric = options.numeric_array_keys;
  }

  StatusOr<bool> Next(ScanEvent* event) override {
    // Scanned events wait in pending_ while a keyed item is open: its
    // start unit's key is known only when it closes.
    while (delivered_ == pending_size_ || !evaluators_.empty()) {
      if (delivered_ == pending_size_) delivered_ = pending_size_ = 0;
      ASSIGN_OR_RETURN(bool more, reader_.Next(&json_));
      if (!more) return false;
      if (json_.type == JsonEvent::Type::kEndObject ||
          json_.type == JsonEvent::Type::kEndArray) {
        Close();
      } else {
        Begin();
      }
    }
    // Swap, not move: the slot keeps the caller's old strings' capacity.
    std::swap(*event, pending_[delivered_++]);
    ++scan_.units;
    return true;
  }

  const ScanStats& stats() const override { return scan_; }

  uint64_t bytes_consumed() const override { return reader_.bytes_consumed(); }

 private:
  struct OpenContainer {
    uint64_t seq = 0;       // of its start unit
    uint64_t children = 0;  // fan-out accounting
  };

  // Follows one open object item's key path, first member of a name only,
  // as its members stream past.
  struct Evaluator {
    uint32_t item_level = 0;
    size_t unit_index = 0;  // the item's start unit in pending_
    size_t matched = 0;     // key_path_ components matched so far
    bool done = false;      // key captured, or known to be absent
    bool captured = false;
    std::string raw;
  };

  ScanEvent& AddEvent(ScanEvent::Kind kind, UnitType type, uint32_t level,
                    uint64_t seq) {
    if (pending_size_ == pending_.size()) pending_.emplace_back();
    ScanEvent& event = pending_[pending_size_++];
    event.kind = kind;
    event.children = 0;
    ElementUnit& unit = event.unit;
    unit.type = type;
    unit.level = level;
    unit.seq = seq;
    unit.key.clear();
    unit.name.clear();
    unit.attributes.clear();
    unit.text.clear();
    unit.run = RunHandle();
    return event;
  }

  void Begin() {
    const bool item = !json_.member && !open_.empty();
    const uint32_t level = static_cast<uint32_t>(open_.size()) + 1;
    ++stats_->values;
    ++scan_.elements;
    scan_.max_depth = std::max<uint64_t>(scan_.max_depth, level);
    if (!open_.empty()) {
      ++open_.back().children;
      scan_.max_fanout = std::max(scan_.max_fanout, open_.back().children);
    }

    const uint64_t seq = next_seq_++;
    const size_t index = pending_size_;
    ElementUnit& unit =
        AddEvent(ScanEvent::Kind::kStart, UnitType::kStart, level, seq).unit;
    if (json_.member) {
      if (key_members_) unit.key = json_.name;
      unit.attributes.push_back({kNameAttribute, std::move(json_.name)});
    }
    const std::string* scalar = nullptr;  // a key-able scalar's raw text
    bool container = false;
    switch (json_.type) {
      case JsonEvent::Type::kBeginObject:
        ++stats_->objects;
        unit.name = kObjectTag;
        container = true;
        break;
      case JsonEvent::Type::kBeginArray:
        ++stats_->arrays;
        unit.name = kArrayTag;
        container = true;
        break;
      case JsonEvent::Type::kString:
      case JsonEvent::Type::kNumber:
        unit.name = json_.type == JsonEvent::Type::kString ? kStringTag
                                                           : kNumberTag;
        unit.attributes.push_back({kValueAttribute, std::move(json_.text)});
        scalar = &unit.attributes.back().value;
        break;
      case JsonEvent::Type::kTrue:
      case JsonEvent::Type::kFalse:
        unit.name = kBoolTag;
        unit.attributes.push_back(
            {kValueAttribute,
             json_.type == JsonEvent::Type::kTrue ? "true" : "false"});
        scalar = &unit.attributes.back().value;
        break;
      default:
        unit.name = kNullTag;
        break;
    }
    FeedEvaluators(level, unit, scalar);

    if (item && key_items_) {
      if (scalar != nullptr && key_path_.empty()) {
        unit.key = OrderSpec::NormalizeKey(item_rule_, *scalar);
      } else if (json_.type == JsonEvent::Type::kBeginObject &&
                 !key_path_.empty()) {
        Evaluator evaluator;
        evaluator.item_level = level;
        evaluator.unit_index = index;
        evaluators_.push_back(std::move(evaluator));
      }
    }
    if (container) {
      open_.push_back({seq, 0});
    } else {
      AddEvent(ScanEvent::Kind::kEnd, UnitType::kEnd, level, seq);
    }
  }

  // A value began at `level`: advance every open item whose key path it
  // continues. Evaluators stack by item level, so walking from the top
  // `rel` only grows and the walk stops one path length up.
  void FeedEvaluators(uint32_t level, const ElementUnit& unit,
                      const std::string* scalar) {
    if (!json_.member) return;  // key paths only step through members
    const std::string& name = unit.attributes.front().value;
    for (auto it = evaluators_.rbegin(); it != evaluators_.rend(); ++it) {
      Evaluator& ev = *it;
      size_t rel = level - ev.item_level;
      if (rel > key_path_.size()) break;
      if (ev.done || rel != ev.matched + 1 || name != key_path_[ev.matched]) {
        continue;
      }
      ++ev.matched;
      if (ev.matched == key_path_.size()) {
        ev.done = true;
        if (scalar != nullptr) {
          ev.captured = true;
          ev.raw = *scalar;
        }
      } else if (unit.name != kObjectTag) {
        ev.done = true;  // the path runs into a non-object
      }
    }
  }

  void Close() {
    const uint32_t level = static_cast<uint32_t>(open_.size());
    ScanEvent& end = AddEvent(ScanEvent::Kind::kEnd, UnitType::kEnd, level,
                            open_.back().seq);
    end.children = open_.back().children;
    open_.pop_back();

    if (!evaluators_.empty() && evaluators_.back().item_level == level) {
      // A keyed item closed: its start unit gets the key it found.
      Evaluator& ev = evaluators_.back();
      if (ev.captured) {
        pending_[ev.unit_index].unit.key =
            OrderSpec::NormalizeKey(item_rule_, ev.raw);
      }
      evaluators_.pop_back();
    }
    // An object an evaluator was searching closed without the next path
    // component: that item has no key.
    for (auto it = evaluators_.rbegin(); it != evaluators_.rend(); ++it) {
      size_t rel = level - it->item_level;
      if (rel > key_path_.size()) break;
      if (rel == it->matched) it->done = true;
    }
  }

  JsonReader reader_;
  JsonEvent json_;  // reused across reader steps
  const bool key_members_;
  const bool key_items_;
  std::vector<std::string> key_path_;
  OrderRule item_rule_;
  JsonSortStats* stats_;
  ScanStats scan_;
  uint64_t next_seq_ = 0;

  std::vector<OpenContainer> open_;
  std::vector<Evaluator> evaluators_;  // one per open keyed object item
  std::vector<ScanEvent> pending_;     // slots reused across items
  size_t pending_size_ = 0;
  size_t delivered_ = 0;
};

// ---------------------------------------------------------------------
// units -> JSON
// ---------------------------------------------------------------------

class JsonUnitEmitter final : public UnitEmitter {
 public:
  JsonUnitEmitter(BlockDevice* device, MemoryBudget* budget,
                  ByteSink* output)
      : output_(output), open_(device, budget, 1, IoCategory::kOutputStack) {}

  const Status& init_status() const override { return open_.init_status(); }

  Status Emit(const UnitView& unit) override {
    if (unit.type == UnitType::kEnd) return Status::OK();
    const std::string_view name =
        unit.type == UnitType::kStart ? unit.name() : std::string_view();
    if (name.size() != 1) return Status::Corruption("not a JSON value unit");
    RETURN_IF_ERROR(CloseTo(unit.level));
    if (!open_.empty()) {
      OpenContainer parent;
      RETURN_IF_ERROR(open_.Top(&parent));
      if ((parent.flags & kHasChild) != 0) {
        buffer_.push_back(',');
      } else {
        parent.flags |= kHasChild;
        RETURN_IF_ERROR(open_.ReplaceTop(parent));
      }
    }
    std::optional<std::string_view> value;
    UnitView::AttributeIterator attributes = unit.attributes();
    AttributeView attr;
    while (attributes.Next(&attr)) {
      if (attr.name == kNameAttribute) {
        JsonWriter::AppendEscaped(&buffer_, attr.value);
        buffer_.push_back(':');
      } else if (attr.name == kValueAttribute) {
        value = attr.value;
      }
    }
    const char tag = name[0];
    switch (tag) {
      case kObjectTag[0]:
      case kArrayTag[0]: {
        buffer_.push_back(tag == kObjectTag[0] ? '{' : '[');
        OpenContainer open;
        open.level = unit.level;
        open.flags = tag == kObjectTag[0] ? kObject : 0;
        RETURN_IF_ERROR(open_.Push(open));
        break;
      }
      case kNullTag[0]:
        buffer_.append("null");
        break;
      case kStringTag[0]:
      case kNumberTag[0]:
      case kBoolTag[0]:
        if (!value) {
          return Status::Corruption("JSON scalar unit without a value");
        }
        if (tag == kStringTag[0]) {
          JsonWriter::AppendEscaped(&buffer_, *value);
        } else {
          buffer_.append(*value);
        }
        break;
      default:
        return Status::Corruption("unknown JSON unit: " + std::string(name));
    }
    return FlushIfLarge();
  }

  Status Finish() override {
    RETURN_IF_ERROR(CloseTo(1));
    output_bytes_ += buffer_.size();
    if (!buffer_.empty()) RETURN_IF_ERROR(output_->Append(buffer_));
    buffer_.clear();
    return Status::OK();
  }

  uint64_t output_bytes() const override { return output_bytes_; }

 private:
  struct OpenContainer {
    uint32_t level = 0;
    uint32_t flags = 0;  // kObject | kHasChild
  };
  static constexpr uint32_t kObject = 1;
  static constexpr uint32_t kHasChild = 2;

  Status CloseTo(uint32_t level) {
    while (!open_.empty()) {
      OpenContainer top;
      RETURN_IF_ERROR(open_.Top(&top));
      if (top.level < level) break;
      RETURN_IF_ERROR(open_.Pop(&top));
      buffer_.push_back((top.flags & kObject) != 0 ? '}' : ']');
      RETURN_IF_ERROR(FlushIfLarge());
    }
    return Status::OK();
  }

  Status FlushIfLarge() {
    if (buffer_.size() >= 64 * 1024) {
      output_bytes_ += buffer_.size();
      RETURN_IF_ERROR(output_->Append(buffer_));
      buffer_.clear();
    }
    return Status::OK();
  }

  ByteSink* output_;
  ExtStack<OpenContainer> open_;
  std::string buffer_;
  uint64_t output_bytes_ = 0;
};

}  // namespace

JsonSorter::JsonSorter(SortEnv* env, JsonSortOptions options)
    : env_(env), options_(std::move(options)) {}

Status JsonSorter::Sort(ByteSource* input, ByteSink* output) {
  if (used_) return Status::InvalidArgument("JsonSorter is single-use");
  used_ = true;
  JsonUnitScanner scanner(input, options_, &stats_);
  NexSorter sorter(env_, NexSortOptions());
  std::unique_ptr<SortedStream> stream;
  ASSIGN_OR_RETURN(stream,
                   sorter.SortUnits(&scanner, [](BlockDevice* device,
                                                 MemoryBudget* budget,
                                                 ByteSink* out) {
                     return std::make_unique<JsonUnitEmitter>(device, budget,
                                                              out);
                   }));
  RETURN_IF_ERROR(DrainTo(stream.get(), output));
  stats_.sort = sorter.stats();
  return Status::OK();
}

}  // namespace nexsort
