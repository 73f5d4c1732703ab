#include "core/keypath_xml_sort.h"

#include <optional>

#include "core/unit_emitter.h"
#include "core/unit_scanner.h"
#include "obs/tracer.h"

namespace nexsort {

KeyPathXmlSorter::KeyPathXmlSorter(SortEnv::Session session,
                                   KeyPathSortOptions options)
    : session_(std::move(session)), options_(std::move(options)) {
  context_.store = session_.run_store();
  context_.dictionary = &dictionary_;
  context_.format.use_dictionary = options_.use_dictionary;
  context_.depth_limit = options_.depth_limit;
}

/// Init feeds the engine and runs its merge passes; each Step() pulls one
/// unit of the final merge, which is the sorted tree's depth-first order.
class KeyPathXmlSorter::OutputStream final
    : public ChunkedSortedStream<KeyPathXmlSorter::OutputStream> {
 public:
  explicit OutputStream(KeyPathXmlSorter* owner)
      : owner_(owner), sort_span_(owner->session_.tracer(), "keypath_sort") {}

  [[nodiscard]] Status Init(ByteSource* input) {
    UnitScanner scanner(input, &owner_->options_.order);
    engine_.emplace(owner_->context_, &owner_->stats_.sort);
    RETURN_IF_ERROR(engine_->init_status());
    ScopedSpan convert_span(owner_->session_.tracer(), "keypath_convert");
    std::string unit;
    ScanEvent event;
    while (true) {
      ASSIGN_OR_RETURN(bool more, scanner.Next(&event));
      if (!more) break;
      if (event.kind == ScanEvent::Kind::kEnd) continue;
      unit.clear();
      AppendUnit(&unit, event.unit, owner_->context_.format,
                 &owner_->dictionary_);
      RETURN_IF_ERROR(engine_->sink()->Append(unit));
    }
    convert_span.End();
    ScopedSpan merge_span(owner_->session_.tracer(), "keypath_merge");
    RETURN_IF_ERROR(engine_->Finish());
    merge_span.End();
    output_span_.emplace(owner_->session_.tracer(), "keypath_output");
    emitter_.emplace(owner_->session_.device(), owner_->session_.budget(),
                     &owner_->dictionary_, sink());
    return emitter_->init_status();
  }

  [[nodiscard]] Status Step() {
    std::string_view bytes;
    ASSIGN_OR_RETURN(bool more, engine_->Next(&bytes));
    if (!more) return EndSteps();
    UnitView unit;
    RETURN_IF_ERROR(NextUnit(&bytes, owner_->context_.format,
                             &owner_->dictionary_, &unit));
    return emitter_->Emit(unit);
  }

  [[nodiscard]] Status Complete() {
    RETURN_IF_ERROR(emitter_->Finish());
    owner_->session_.PublishParallelMetrics();
    output_span_->End();
    RETURN_IF_ERROR(owner_->session_.Flush());  // deferred write-backs
    sort_span_.End();
    emitter_.reset();
    engine_.reset();
    return Status::OK();
  }

 private:
  KeyPathXmlSorter* owner_;
  ScopedSpan sort_span_;                   // the whole job
  std::optional<ScopedSpan> output_span_;  // the final merge's pull
  std::optional<ExternalSubtreeSorter> engine_;
  std::optional<UnitXmlEmitter> emitter_;
};

StatusOr<std::unique_ptr<SortedStream>> KeyPathXmlSorter::SortStream(
    ByteSource* input) {
  if (used_) return Status::InvalidArgument("KeyPathXmlSorter is single-use");
  used_ = true;
  if (options_.order.HasComplexRules()) {
    return Status::NotSupported(
        "the key-path baseline needs keys available at start tags");
  }
  ASSIGN_OR_RETURN(context_.sort_options,
                   session_.SortOptions("key-path sort", 4, 0,
                                        options_.run_formation));
  session_.AttachTracer();
  auto stream = std::make_unique<OutputStream>(this);
  RETURN_IF_ERROR(stream->Init(input));
  return std::unique_ptr<SortedStream>(std::move(stream));
}

}  // namespace nexsort
