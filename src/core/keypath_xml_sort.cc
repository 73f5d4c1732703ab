#include "core/keypath_xml_sort.h"

#include <algorithm>
#include <optional>

#include "core/unit_emitter.h"
#include "extmem/stream.h"
#include "obs/tracer.h"
#include "sort/key_path.h"
#include "util/cancellation.h"

namespace nexsort {

KeyPathXmlSorter::KeyPathXmlSorter(SortEnv* env, KeyPathSortOptions options)
    : KeyPathXmlSorter(env->NewSession(), std::move(options)) {}

KeyPathXmlSorter::KeyPathXmlSorter(SortEnv::Session session,
                                   KeyPathSortOptions options)
    : session_(std::move(session)),
      options_(std::move(options)),
      tracer_(session_.tracer()),
      device_(session_.device()),
      budget_(session_.budget()),
      store_(session_.run_store()) {
  format_.use_dictionary = options_.use_dictionary;
}

/// SortedStream over the baseline's pass 2: each Step() pulls one record
/// from the final merge and pushes it through the XML emitter into
/// buffer_, which Next() hands out as the chunk. The sorter (and so the
/// run tree and merge state) lives as long as the stream does.
class KeyPathXmlSorter::OutputStream final : public SortedStream {
 public:
  explicit OutputStream(KeyPathXmlSorter* owner)
      : owner_(owner),
        sort_span_(owner->tracer_, "keypath_sort"),
        sink_(&buffer_) {}

  /// Pass 1 (key-path conversion + run formation) and the merge passes run
  /// here eagerly; the *final* merge is what streams.
  [[nodiscard]] Status Init(ByteSource* input) {
    KeyPathXmlSorter* owner = owner_;
    UnitScanner scanner(input, &owner->options_.order);
    ExtSortOptions sort_options;
    uint64_t sort_blocks = owner->budget_->available_blocks();
    uint64_t pinned_sort_blocks = owner->session_.sort_memory_blocks();
    if (pinned_sort_blocks != 0) {
      if (pinned_sort_blocks < 4 || pinned_sort_blocks > sort_blocks) {
        return Status::InvalidArgument(
            "sort_memory_blocks must be in [4, available blocks]");
      }
      sort_blocks = pinned_sort_blocks;
    }
    sort_options.memory_blocks = sort_blocks;
    sort_options.run_formation = owner->options_.run_formation;
    sort_options.merge_policy = owner->options_.merge_policy;
    sort_options.dfs_placement = owner->options_.dfs_placement;
    sort_options.tracer = owner->tracer_;
    sort_options.parallel = owner->session_.parallel();
    sort_options.buffer_pool = owner->session_.buffer_pool();
    sort_options.cancel = owner->session_.cancellation();
    sorter_ = std::make_unique<ExternalMergeSorter>(owner->store_,
                                                    sort_options);
    RETURN_IF_ERROR(sorter_->init_status());

    // Pass 1: generate the key-path representation. Each record's key is
    // the concatenated (sort key, sequence) components of the element's
    // ancestors plus its own — explicitly materialized per record, which is
    // exactly the space overhead the paper attributes to this baseline.
    {
      ScopedSpan span(owner->tracer_, "keypath_convert");
      std::vector<size_t> path_ends;
      std::string path;
      std::string serialized;
      ScanEvent event;
      while (true) {
        ASSIGN_OR_RETURN(bool more, scanner.Next(&event));
        if (!more) break;
        if (event.kind == ScanEvent::Kind::kEnd) continue;
        ElementUnit& unit = event.unit;
        uint32_t rel = unit.level - 1;  // root element is level 1
        if (rel < path_ends.size()) {
          path.resize(rel == 0 ? 0 : path_ends[rel - 1]);
          path_ends.resize(rel);
        }
        std::string composite = path;
        // Below the sorting depth, an empty key leaves document order (the
        // sequence number) in charge.
        bool sortable =
            owner->options_.depth_limit == 0 ||
            unit.level <=
                static_cast<uint32_t>(owner->options_.depth_limit) + 1;
        AppendKeyPathComponent(&composite, sortable ? unit.key : "",
                               unit.seq);
        if (event.kind == ScanEvent::Kind::kStart) {
          path = composite;
          path_ends.push_back(path.size());
        }
        serialized.clear();
        AppendUnit(&serialized, unit, owner->format_, &owner->dictionary_);
        owner->stats_.key_path_bytes += composite.size();
        RETURN_IF_ERROR(sorter_->Add(composite, serialized));
      }
    }
    owner->stats_.scan = scanner.stats();
    {
      ScopedSpan span(owner->tracer_, "keypath_merge");
      RETURN_IF_ERROR(sorter_->Finish());
    }
    output_span_.emplace(owner->tracer_, "keypath_output");
    emitter_ = std::make_unique<UnitXmlEmitter>(owner->device_,
                                                owner->budget_,
                                                &owner->dictionary_, &sink_);
    return emitter_->init_status();
  }

  StatusOr<bool> Next(std::string_view* chunk) override {
    if (!status_.ok()) return status_;  // errors are sticky
    StatusOr<bool> more = Advance(chunk);
    if (!more.ok()) status_ = more.status();
    return more;
  }

 private:
  /// Bounds how many records one Next() call batches; the emitter flushes
  /// to the sink about a block at a time anyway.
  static constexpr size_t kChunkTarget = 4096;

  StatusOr<bool> Advance(std::string_view* chunk) {
    if (done_) return false;
    buffer_.clear();
    while (!merge_done_ && buffer_.size() < kChunkTarget) {
      RETURN_IF_ERROR(Step());
    }
    if (merge_done_ && !completed_) {
      RETURN_IF_ERROR(Complete());
      completed_ = true;
    }
    if (buffer_.empty()) {
      done_ = true;
      return false;
    }
    *chunk = buffer_;
    return true;
  }

  /// Pass 2, one record: key-path order is depth-first document order of
  /// the sorted tree, so each merged record emits directly as XML.
  [[nodiscard]] Status Step() {
    RETURN_IF_ERROR(CheckCancelled(owner_->session_.cancellation()));
    ASSIGN_OR_RETURN(bool more, sorter_->Next(&key_, &value_));
    if (!more) {
      merge_done_ = true;
      return Status::OK();
    }
    std::string_view view = value_;
    RETURN_IF_ERROR(ParseUnit(&view, &unit_, owner_->format_,
                              &owner_->dictionary_));
    return emitter_->Emit(unit_);
  }

  /// The tail of the eager Sort(): close the emitter, record stats, publish
  /// metrics, push deferred writes. Runs inside the final Next().
  [[nodiscard]] Status Complete() {
    RETURN_IF_ERROR(emitter_->Finish());
    KeyPathXmlSorter* owner = owner_;
    owner->stats_.sort = sorter_->stats();
    owner->stats_.output_bytes = emitter_->output_bytes();
    if (owner->session_.parallel() != nullptr) {
      owner->session_.parallel()->PublishMetrics(owner->tracer_);
    }
    output_span_->End();
    // Push deferred writes to the physical device and surface any
    // write-back failure an eviction deferred mid-sort.
    RETURN_IF_ERROR(owner->session_.Flush());
    sort_span_.End();
    emitter_.reset();
    sorter_.reset();
    return Status::OK();
  }

  KeyPathXmlSorter* owner_;
  ScopedSpan sort_span_;                   // whole job, both passes
  std::optional<ScopedSpan> output_span_;  // pass 2 only
  std::string buffer_;                     // chunk handed out by Next()
  StringByteSink sink_;
  std::unique_ptr<ExternalMergeSorter> sorter_;
  std::unique_ptr<UnitXmlEmitter> emitter_;
  std::string key_;
  std::string value_;
  ElementUnit unit_;
  Status status_;
  bool merge_done_ = false;  // final merge exhausted
  bool completed_ = false;   // completion work done
  bool done_ = false;        // final false already returned
};

StatusOr<std::unique_ptr<SortedStream>> KeyPathXmlSorter::SortStream(
    ByteSource* input) {
  if (used_) return Status::InvalidArgument("KeyPathXmlSorter is single-use");
  used_ = true;
  if (options_.order.HasComplexRules()) {
    return Status::NotSupported(
        "the key-path baseline needs keys available at start tags");
  }
  const SortEnvOptions& env_options = session_.env()->options();
  // The env's cache frames are already reserved, so the merge sort gets
  // what is left.
  if (budget_->available_blocks() < 4) {
    std::string msg = "key-path sort needs >= 4 blocks";
    if (env_options.cache.frames > 0) {
      msg += " after the " + std::to_string(env_options.cache.frames) +
             " cache frames";
    }
    return Status::InvalidArgument(msg);
  }
  if (tracer_ != nullptr) {
    // Spans snapshot the *physical* device: with caching on, their I/O
    // deltas are real transfers, not logical accesses.
    tracer_->AttachDevice(session_.physical_device());
    tracer_->AttachBudget(budget_);
  }
  auto stream = std::make_unique<OutputStream>(this);
  RETURN_IF_ERROR(stream->Init(input));
  return std::unique_ptr<SortedStream>(std::move(stream));
}

Status KeyPathXmlSorter::Sort(ByteSource* input, ByteSink* output) {
  std::unique_ptr<SortedStream> stream;
  ASSIGN_OR_RETURN(stream, SortStream(input));
  std::string_view chunk;
  while (true) {
    ASSIGN_OR_RETURN(bool more, stream->Next(&chunk));
    if (!more) return Status::OK();
    RETURN_IF_ERROR(output->Append(chunk));
  }
}

}  // namespace nexsort
