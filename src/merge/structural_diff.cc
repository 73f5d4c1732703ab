#include "merge/structural_diff.h"

#include <string_view>
#include <utility>
#include <vector>

#include "merge/event_stream.h"
#include "xml/writer.h"

namespace nexsort {

namespace {

using merge_internal::ChildId;
using merge_internal::Classify;
using merge_internal::EventStream;
using merge_internal::IdOf;
using merge_internal::ItemType;

size_t EventBytes(const XmlEvent& event) {
  size_t bytes = event.name.size() + event.text.size() + 4;
  for (const XmlAttribute& attr : event.attributes) {
    bytes += attr.name.size() + attr.value.size() + 4;
  }
  return bytes;
}

bool EventsEqual(const XmlEvent& a, const XmlEvent& b) {
  return a.type == b.type && a.name == b.name && a.text == b.text &&
         a.attributes == b.attributes;
}

class Differ {
 public:
  Differ(ByteSource* base, ByteSource* target, ByteSink* output,
         const DiffOptions& options, DiffStats* stats)
      : base_(base),
        target_(target),
        writer_(output),
        options_(options),
        stats_(stats) {}

  Status Run() {
    RETURN_IF_ERROR(base_.Advance());
    RETURN_IF_ERROR(target_.Advance());
    if (base_.done() || target_.done() ||
        base_.current().type != XmlEventType::kStartElement ||
        target_.current().type != XmlEventType::kStartElement ||
        base_.current().name != target_.current().name) {
      return Status::InvalidArgument("diff inputs must share a root tag");
    }
    if (base_.current().attributes != target_.current().attributes) {
      return Status::NotSupported(
          "root attribute changes cannot be expressed as a batch");
    }
    // The batch root is always present (an empty batch is a valid no-op).
    RETURN_IF_ERROR(writer_.StartElement(target_.current().name,
                                         target_.current().attributes));
    RETURN_IF_ERROR(base_.Advance());
    RETURN_IF_ERROR(target_.Advance());
    RETURN_IF_ERROR(DiffChildren());
    RETURN_IF_ERROR(writer_.EndElement());
    return writer_.Finish();
  }

 private:
  // Copy the current element's subtree from `src` to the writer; with
  // `op` non-empty the root start tag gains op="<op>". With emit=false the
  // subtree is skipped instead.
  Status CopySubtree(EventStream* src, bool emit, std::string_view op = {}) {
    int depth = 0;
    bool first = true;
    do {
      const XmlEvent& event = src->current();
      switch (event.type) {
        case XmlEventType::kStartElement:
          if (emit) {
            if (first && !op.empty()) {
              std::vector<XmlAttribute> attrs = event.attributes;
              attrs.push_back(
                  {options_.op_attribute, std::string(op)});
              RETURN_IF_ERROR(writer_.StartElement(event.name, attrs));
            } else {
              RETURN_IF_ERROR(
                  writer_.StartElement(event.name, event.attributes));
            }
          }
          ++depth;
          break;
        case XmlEventType::kEndElement:
          if (emit) RETURN_IF_ERROR(writer_.EndElement());
          --depth;
          break;
        case XmlEventType::kText:
          if (emit) RETURN_IF_ERROR(writer_.Text(event.text));
          break;
      }
      first = false;
      RETURN_IF_ERROR(src->Advance());
    } while (depth > 0);
    return Status::OK();
  }

  // Read the current element's subtree into *events; stops early (leaving
  // the stream mid-subtree) once `limit` bytes are buffered. *complete
  // says whether the whole subtree was consumed.
  Status ProbeSubtree(EventStream* src, std::vector<XmlEvent>* events,
                      size_t limit, bool* complete) {
    int depth = 0;
    size_t bytes = 0;
    do {
      const XmlEvent& event = src->current();
      if (event.type == XmlEventType::kStartElement) ++depth;
      if (event.type == XmlEventType::kEndElement) --depth;
      bytes += EventBytes(event);
      events->push_back(event);
      RETURN_IF_ERROR(src->Advance());
      if (bytes > limit && depth > 0) {
        *complete = false;
        return Status::OK();
      }
    } while (depth > 0);
    *complete = true;
    return Status::OK();
  }

  Status ReplayEvents(const std::vector<XmlEvent>& events,
                      std::string_view op) {
    bool first = true;
    for (const XmlEvent& event : events) {
      if (first && !op.empty()) {
        std::vector<XmlAttribute> attrs = event.attributes;
        attrs.push_back({options_.op_attribute, std::string(op)});
        RETURN_IF_ERROR(writer_.StartElement(event.name, attrs));
        first = false;
        continue;
      }
      RETURN_IF_ERROR(writer_.Event(event));
      first = false;
    }
    return Status::OK();
  }

  // Lazily-opened wrapper bookkeeping: wrappers for matched ancestors are
  // emitted only once a real op needs them.
  struct PendingWrapper {
    std::string name;
    std::vector<XmlAttribute> attributes;
    bool opened = false;
  };

  Status EnsureOpened() {
    for (PendingWrapper& wrapper : pending_) {
      if (wrapper.opened) continue;
      RETURN_IF_ERROR(writer_.StartElement(wrapper.name, wrapper.attributes));
      wrapper.opened = true;
    }
    return Status::OK();
  }

  Status DiffMatched() {
    std::vector<XmlEvent> base_events;
    std::vector<XmlEvent> target_events;
    bool base_complete = false;
    bool target_complete = false;
    RETURN_IF_ERROR(ProbeSubtree(&base_, &base_events, options_.buffer_limit,
                                 &base_complete));
    RETURN_IF_ERROR(ProbeSubtree(&target_, &target_events,
                                 options_.buffer_limit, &target_complete));
    if (base_complete && target_complete) {
      bool equal = base_events.size() == target_events.size();
      for (size_t i = 0; equal && i < base_events.size(); ++i) {
        equal = EventsEqual(base_events[i], target_events[i]);
      }
      if (equal) {
        ++stats_->unchanged;
        return Status::OK();
      }
      ++stats_->replaced;
      RETURN_IF_ERROR(EnsureOpened());
      return ReplayEvents(target_events, "replace");
    }

    // Oversized: unread the probed prefixes and recurse structurally.
    base_.Unread(std::move(base_events));
    target_.Unread(std::move(target_events));
    if (base_.current().attributes != target_.current().attributes) {
      ++stats_->replaced;
      RETURN_IF_ERROR(EnsureOpened());
      RETURN_IF_ERROR(CopySubtree(&base_, /*emit=*/false));
      return CopySubtree(&target_, /*emit=*/true, "replace");
    }
    ++stats_->descended;
    pending_.push_back(
        {target_.current().name, target_.current().attributes, false});
    RETURN_IF_ERROR(base_.Advance());
    RETURN_IF_ERROR(target_.Advance());
    Status st = DiffChildren();
    if (st.ok() && pending_.back().opened) {
      st = writer_.EndElement();
    }
    pending_.pop_back();
    return st;
  }

  Status DiffChildren() {
    while (true) {
      auto tb = Classify(base_);
      auto tt = Classify(target_);

      if (tb == ItemType::kText || tt == ItemType::kText) {
        // Direct text under an unbuffered subtree: only identical text in
        // identical positions is expressible.
        if (tb != tt || base_.current().text != target_.current().text) {
          return Status::NotSupported(
              "text change inside a subtree larger than the diff buffer");
        }
        RETURN_IF_ERROR(base_.Advance());
        RETURN_IF_ERROR(target_.Advance());
        continue;
      }
      if (tb == ItemType::kEnd && tt == ItemType::kEnd) {
        if (!base_.done()) RETURN_IF_ERROR(base_.Advance());
        if (!target_.done()) RETURN_IF_ERROR(target_.Advance());
        return Status::OK();
      }

      bool take_base;
      bool match = false;
      if (tb == ItemType::kEnd) {
        take_base = false;
      } else if (tt == ItemType::kEnd) {
        take_base = true;
      } else {
        ChildId idb = IdOf(options_.order, base_.current());
        ChildId idt = IdOf(options_.order, target_.current());
        if (idb == idt) {
          match = true;
          take_base = true;
        } else {
          take_base = idb < idt;
        }
      }

      if (match) {
        RETURN_IF_ERROR(DiffMatched());
        continue;
      }
      if (take_base) {
        // Base-only: emit a deletion stub carrying the identity attributes.
        ++stats_->deleted;
        RETURN_IF_ERROR(EnsureOpened());
        std::vector<XmlAttribute> attrs = base_.current().attributes;
        attrs.push_back({options_.op_attribute, "delete"});
        RETURN_IF_ERROR(writer_.StartElement(base_.current().name, attrs));
        RETURN_IF_ERROR(writer_.EndElement());
        RETURN_IF_ERROR(CopySubtree(&base_, /*emit=*/false));
      } else {
        // Target-only: insert the subtree verbatim.
        ++stats_->inserted;
        RETURN_IF_ERROR(EnsureOpened());
        RETURN_IF_ERROR(CopySubtree(&target_, /*emit=*/true));
      }
    }
  }

  EventStream base_;
  EventStream target_;
  XmlWriter writer_;
  const DiffOptions& options_;
  DiffStats* stats_;
  std::vector<PendingWrapper> pending_;
};

}  // namespace

Status StructuralDiff(ByteSource* base, ByteSource* target, ByteSink* output,
                      const DiffOptions& options, DiffStats* stats) {
  if (options.order.HasComplexRules()) {
    return Status::NotSupported("diff needs keys available at start tags");
  }
  DiffStats local;
  Differ differ(base, target, output, options,
                stats != nullptr ? stats : &local);
  return differ.Run();
}

}  // namespace nexsort
