#include "merge/structural_merge.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "merge/event_stream.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "xml/writer.h"

namespace nexsort {

namespace {

using merge_internal::ChildId;
using merge_internal::Classify;
using merge_internal::EventStream;
using merge_internal::IdOf;
using merge_internal::ItemType;

// Merges any number of simultaneously scanned documents. Streams are named
// by input index; index 0 is the left (base) document and, in update mode,
// index 1 is the updates document.
class Merger {
 public:
  Merger(const std::vector<ByteSource*>& inputs, ByteSink* output,
         const MergeOptions& options, MergeStats* stats)
      : writer_(output), options_(options), stats_(stats) {
    for (ByteSource* input : inputs) streams_.emplace_back(input);
  }

  Status Run() {
    std::vector<size_t> all(streams_.size());
    std::iota(all.begin(), all.end(), 0);
    RETURN_IF_ERROR(AdvanceAll(all));
    for (const EventStream& stream : streams_) {
      if (stream.done() ||
          stream.current().type != XmlEventType::kStartElement ||
          stream.current().name != streams_.front().current().name) {
        return Status::InvalidArgument("merge inputs must share a root tag");
      }
    }
    RETURN_IF_ERROR(EmitMergedStart(all));
    RETURN_IF_ERROR(AdvanceAll(all));
    RETURN_IF_ERROR(MergeChildren(all));
    RETURN_IF_ERROR(writer_.EndElement());
    return writer_.Finish();
  }

 private:
  std::string_view UpdateOp(const XmlEvent& event) const {
    if (!options_.apply_update_ops) return {};
    const std::string* op = event.FindAttribute(options_.op_attribute);
    return op != nullptr ? std::string_view(*op) : std::string_view();
  }

  Status AdvanceAll(const std::vector<size_t>& inputs) {
    for (size_t i : inputs) RETURN_IF_ERROR(streams_[i].Advance());
    return Status::OK();
  }

  // Start tag with the union of the matched start events' attributes: the
  // earliest input's attributes all, then each later input's new names.
  // The update-op attribute of the updates document never reaches the
  // output.
  Status EmitMergedStart(const std::vector<size_t>& matched) {
    const XmlEvent& first = streams_[matched.front()].current();
    std::vector<XmlAttribute> merged = first.attributes;
    for (size_t m = 1; m < matched.size(); ++m) {
      const XmlEvent& event = streams_[matched[m]].current();
      for (const XmlAttribute& attr : event.attributes) {
        if (options_.apply_update_ops && attr.name == options_.op_attribute) {
          continue;
        }
        bool present = std::any_of(merged.begin(), merged.end(),
                                   [&](const XmlAttribute& existing) {
                                     return existing.name == attr.name;
                                   });
        if (!present) merged.push_back(attr);
      }
    }
    return writer_.StartElement(first.name, merged);
  }

  Status EmitStart(const XmlEvent& event) {
    if (!options_.apply_update_ops) {
      return writer_.StartElement(event.name, event.attributes);
    }
    std::vector<XmlAttribute> attrs;
    for (const XmlAttribute& attr : event.attributes) {
      if (attr.name != options_.op_attribute) attrs.push_back(attr);
    }
    return writer_.StartElement(event.name, attrs);
  }

  // Copy the element `stream` is positioned on (and its whole subtree) to
  // the output; `emit` false skips it instead. Leaves the stream on the
  // next sibling item.
  Status CopySubtree(EventStream* stream, bool emit) {
    int depth = 0;
    do {
      const XmlEvent& event = stream->current();
      switch (event.type) {
        case XmlEventType::kStartElement:
          if (emit) RETURN_IF_ERROR(EmitStart(event));
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
      RETURN_IF_ERROR(stream->Advance());
    } while (depth > 0);
    return Status::OK();
  }

  // The streams in `active` (ascending input indices) are positioned on
  // the first item inside a matched element; merges until every one hits
  // the element's end, consuming the end events.
  Status MergeChildren(const std::vector<size_t>& active) {
    const bool concat =
        options_.text_policy == MergeOptions::TextPolicy::kConcat;
    // Lowest input that has written text in this element so far.
    size_t text_owner = streams_.size();
    std::vector<std::optional<ChildId>> ids(active.size());
    std::vector<size_t> matched;
    while (true) {
      for (size_t i : active) {
        EventStream& stream = streams_[i];
        while (Classify(stream) == ItemType::kText) {
          if (concat || i <= text_owner) {
            RETURN_IF_ERROR(writer_.Text(stream.current().text));
            text_owner = std::min(text_owner, i);
          }
          RETURN_IF_ERROR(stream.Advance());
        }
      }

      // Smallest current child across the streams.
      const ChildId* min_id = nullptr;
      for (size_t a = 0; a < active.size(); ++a) {
        const EventStream& stream = streams_[active[a]];
        ids[a].reset();
        if (Classify(stream) != ItemType::kElement) continue;
        ids[a] = IdOf(options_.order, stream.current());
        if (min_id == nullptr || *ids[a] < *min_id) min_id = &*ids[a];
      }
      if (min_id == nullptr) {
        // Every stream is at the element's end: consume the end tags.
        for (size_t i : active) {
          if (!streams_[i].done()) RETURN_IF_ERROR(streams_[i].Advance());
        }
        return Status::OK();
      }
      matched.clear();
      for (size_t a = 0; a < active.size(); ++a) {
        if (ids[a] && *ids[a] == *min_id) matched.push_back(active[a]);
      }

      if (matched.size() == 1) {
        EventStream& stream = streams_[matched.front()];
        if (matched.front() == 0) {
          ++stats_->left_only;
          RETURN_IF_ERROR(CopySubtree(&stream, true));
        } else if (UpdateOp(stream.current()) == "delete") {
          // Deleting something absent from the base: drop it silently.
          ++stats_->deleted;
          RETURN_IF_ERROR(CopySubtree(&stream, false));
        } else {
          ++stats_->right_only;
          RETURN_IF_ERROR(CopySubtree(&stream, true));
        }
        continue;
      }

      // In update mode `matched` is {base, updates}.
      std::string_view op = UpdateOp(streams_[matched.back()].current());
      if (op == "delete") {
        ++stats_->deleted;
        RETURN_IF_ERROR(CopySubtree(&streams_[0], false));
        RETURN_IF_ERROR(CopySubtree(&streams_[1], false));
        continue;
      }
      if (op == "replace") {
        ++stats_->replaced;
        RETURN_IF_ERROR(CopySubtree(&streams_[0], false));
        RETURN_IF_ERROR(CopySubtree(&streams_[1], true));
        continue;
      }
      ++stats_->matched_elements;
      RETURN_IF_ERROR(EmitMergedStart(matched));
      RETURN_IF_ERROR(AdvanceAll(matched));
      RETURN_IF_ERROR(MergeChildren(matched));
      RETURN_IF_ERROR(writer_.EndElement());
    }
  }

  std::deque<EventStream> streams_;
  XmlWriter writer_;
  const MergeOptions& options_;
  MergeStats* stats_;
};

}  // namespace

Status StructuralMerge(const std::vector<ByteSource*>& inputs,
                       ByteSink* output, const MergeOptions& options,
                       MergeStats* stats) {
  if (options.order.HasComplexRules()) {
    return Status::NotSupported(
        "structural merge needs keys available at start tags");
  }
  if (options.apply_update_ops && inputs.size() != 2) {
    return Status::NotSupported("update operations need exactly two inputs");
  }
  if (inputs.empty()) return Status::InvalidArgument("no merge inputs");
  MergeStats local;
  MergeStats& used = stats != nullptr ? *stats : local;
  Merger merger(inputs, output, options, &used);
  ScopedSpan span(options.tracer, "structural_merge");
  Status status = merger.Run();
  span.End();
  if (options.tracer != nullptr) {
    MetricsRegistry* metrics = options.tracer->metrics();
    metrics->GetCounter("merge_matched_elements")->Add(used.matched_elements);
    metrics->GetCounter("merge_left_only")->Add(used.left_only);
    metrics->GetCounter("merge_right_only")->Add(used.right_only);
    metrics->GetCounter("merge_deleted")->Add(used.deleted);
    metrics->GetCounter("merge_replaced")->Add(used.replaced);
  }
  return status;
}

}  // namespace nexsort
