// Shared machinery for the streaming merge/diff family: a one-event
// lookahead stream over a sorted document and the (key, tag) child identity
// both algorithms match on.
#pragma once

#include <string>
#include <vector>

#include "core/order_spec.h"
#include "extmem/stream.h"
#include "util/status.h"
#include "xml/sax_parser.h"

namespace nexsort {
namespace merge_internal {

/// One-event-lookahead stream over a sorted document, with pushback: events
/// read ahead can be unread and are then replayed before the parser resumes.
class EventStream {
 public:
  explicit EventStream(ByteSource* source) : parser_(source) {}

  [[nodiscard]] Status Advance() {
    if (!unread_.empty()) {
      event_ = std::move(unread_.back());
      unread_.pop_back();
      done_ = false;
      return Status::OK();
    }
    ASSIGN_OR_RETURN(bool more, parser_.Next(&event_));
    done_ = !more;
    return Status::OK();
  }

  /// Put `events` — the events consumed just before the current one, in
  /// stream order — back in front of it: current() becomes events.front(),
  /// and the old current event follows events.back(). Unreads nest: an
  /// unread while earlier unread events are still pending goes in front of
  /// them.
  void Unread(std::vector<XmlEvent> events) {
    if (events.empty()) return;
    if (!done_) unread_.push_back(std::move(event_));
    for (size_t i = events.size() - 1; i > 0; --i) {
      unread_.push_back(std::move(events[i]));
    }
    event_ = std::move(events.front());
    done_ = false;
  }

  bool done() const { return done_; }
  const XmlEvent& current() const { return event_; }
  XmlEvent& current() { return event_; }

 private:
  SaxParser parser_;
  XmlEvent event_;
  bool done_ = false;
  std::vector<XmlEvent> unread_;  // pending events, next one at the back
};

/// What the stream's current item is, within an element's child list.
enum class ItemType { kElement, kText, kEnd };

inline ItemType Classify(const EventStream& stream) {
  if (stream.done()) return ItemType::kEnd;
  switch (stream.current().type) {
    case XmlEventType::kStartElement: return ItemType::kElement;
    case XmlEventType::kText: return ItemType::kText;
    case XmlEventType::kEndElement: return ItemType::kEnd;
  }
  return ItemType::kEnd;
}

/// (key, tag) identity of a child element within one sibling list: equal
/// identity means "the same logical element". Comparison by key first
/// matches the sorted order of both inputs.
struct ChildId {
  std::string key;
  std::string tag;

  bool operator==(const ChildId&) const = default;
  bool operator<(const ChildId& other) const {
    if (key != other.key) return key < other.key;
    return tag < other.tag;
  }
};

inline ChildId IdOf(const OrderSpec& order, const XmlEvent& event) {
  return {order.KeyForStartTag(event.name, event.attributes), event.name};
}

}  // namespace merge_internal
}  // namespace nexsort
