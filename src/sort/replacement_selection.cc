#include "sort/replacement_selection.h"

#include <algorithm>
#include <utility>

#include "obs/tracer.h"
#include "sort/external_merge_sort.h"
#include "util/dcheck.h"

namespace nexsort {

ReplacementSelectionFormer::ReplacementSelectionFormer(RunStore* store,
                                                       Options options)
    : store_(store),
      options_(options),
      block_size_(store->device()->block_size()) {}

ReplacementSelectionFormer::~ReplacementSelectionFormer() {
  // Best-effort cleanup of runs never handed over (cancellation / error
  // unwind); FinishRuns clears the list on the normal path.
  for (RunHandle run : runs_) {
    (void)store_->FreeRun(run);  // unwind path: nothing can act on failure
  }
}

Status ReplacementSelectionFormer::BuildTree() {
  std::vector<MergeSource*> raw;
  raw.reserve(slots_.size());
  for (ReplacementHeapSlot& slot : slots_) raw.push_back(&slot);
  tree_ = std::make_unique<LoserTree>(std::move(raw));
  RETURN_IF_ERROR(tree_->Init());
  built_ = true;
  return Status::OK();
}

Status ReplacementSelectionFormer::Add(std::string_view key,
                                       std::string_view value) {
  const uint64_t record_bytes =
      key.size() + value.size() + sizeof(ReplacementHeapSlot);
  if (!built_) {
    // Fill phase: memory is not full yet, so every record simply becomes a
    // new slot (the first record is always admitted, mirroring the
    // quicksort path's always-accepting empty buffer).
    if (slots_.empty() ||
        used_bytes_ + record_bytes <= options_.capacity_bytes) {
      slots_.emplace_back();
      slots_.back().set_index(static_cast<uint32_t>(slots_.size() - 1));
      slots_.back().Fill(ReplacementHeapSlot::kCurrentRunTag, key, value,
                         next_seq_++);
      used_bytes_ += record_bytes;
      ++live_;
      return Status::OK();
    }
    RETURN_IF_ERROR(BuildTree());
  }
  // Steady state: evict minima until the newcomer fits. If earlier
  // evictions over-freed (a large record made room for this smaller one),
  // evict once anyway: the extra pop is the record the tournament would
  // emit next regardless, and it keeps a pending champion slot available —
  // the only position LoserTree can re-key in one pass. Equal-key arrival
  // order is tournament order either way, so output bytes are unaffected.
  while (used_bytes_ + record_bytes > options_.capacity_bytes && live_ > 0) {
    RETURN_IF_ERROR(EmitMin());
  }
  if (!pending_ && live_ > 0) RETURN_IF_ERROR(EmitMin());
  const char tag = (!have_last_key_ || key >= last_key_)
                       ? ReplacementHeapSlot::kCurrentRunTag
                       : ReplacementHeapSlot::kNextRunTag;
  if (pending_) {
    // Textbook replacement selection: the newcomer takes the just-evicted
    // champion's slot in place, and a champion replay re-seats it.
    pending_ = false;
    slots_[pending_slot_].Fill(tag, key, value, next_seq_++);
    tree_->ReplaySource(pending_slot_);
  } else {
    // The tournament is empty (a record larger than the whole capacity):
    // seat it in a retired slot — or a fresh one — and rebuild.
    uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slots_.emplace_back();
      slot = static_cast<uint32_t>(slots_.size() - 1);
      slots_.back().set_index(slot);
    }
    slots_[slot].Fill(tag, key, value, next_seq_++);
    RETURN_IF_ERROR(BuildTree());
  }
  used_bytes_ += record_bytes;
  ++live_;
  return Status::OK();
}

Status ReplacementSelectionFormer::EmitMin() {
  // Record-granular cancellation point, same cadence as the merge loop.
  RETURN_IF_ERROR(CheckCancelled(options_.cancel));
  RETURN_IF_ERROR(ResolvePending());
  MergeSource* min = tree_->Min();
  NEXSORT_DCHECK(min != nullptr);
  auto* slot = static_cast<ReplacementHeapSlot*>(min);
  if (slot->fenced()) {
    // Every resident record is fenced: the open run has fully drained.
    RETURN_IF_ERROR(CloseRun());
  }
  if (!writer_open_) RETURN_IF_ERROR(StartRun());
  RETURN_IF_ERROR(
      AppendRecord(run_writer_.get(), slot->user_key(), slot->value()));
  last_key_.assign(slot->user_key());
  have_last_key_ = true;
  used_bytes_ -= slot->bytes();
  --live_;
  pending_ = true;
  pending_slot_ = slot->index();
  return Status::OK();
}

Status ReplacementSelectionFormer::ResolvePending() {
  if (!pending_) return Status::OK();
  // No Add reclaimed the emitted champion's slot: exhaust it so the next
  // winner surfaces, and let a later no-eviction insert reuse it.
  pending_ = false;
  free_slots_.push_back(pending_slot_);
  return tree_->AdvanceMin();
}

Status ReplacementSelectionFormer::StartRun() {
  run_writer_ =
      std::make_unique<RunWriter>(store_->NewRun(options_.temp_category));
  RETURN_IF_ERROR(run_writer_->init_status());
  writer_open_ = true;
  spilled_ = true;
  return Status::OK();
}

Status ReplacementSelectionFormer::CloseRun() {
  if (writer_open_) {
    ScopedSpan span(options_.tracer, "run_formation");
    RunHandle handle;
    RETURN_IF_ERROR(run_writer_->Finish(&handle));
    runs_.push_back(handle);
    stats_.RecordRun(handle.byte_size, block_size_);
    run_writer_.reset();
    writer_open_ = false;
  }
  have_last_key_ = false;
  last_key_.clear();
  // The next run's records become the open run's. A uniform retag keeps
  // the tournament's relative order, so no rebuild is needed.
  for (ReplacementHeapSlot& slot : slots_) {
    if (slot.filled() && slot.fenced()) slot.Unfence();
  }
  return Status::OK();
}

Status ReplacementSelectionFormer::FinishRuns(std::vector<RunHandle>* runs) {
  NEXSORT_DCHECK(spilled_);
  while (live_ > 0) {
    RETURN_IF_ERROR(EmitMin());
  }
  RETURN_IF_ERROR(CloseRun());
  runs->insert(runs->end(), runs_.begin(), runs_.end());
  runs_.clear();
  return Status::OK();
}

StatusOr<bool> ReplacementSelectionFormer::PopMin(std::string* key,
                                                  std::string* value) {
  NEXSORT_DCHECK(!spilled_);
  if (live_ == 0) return false;
  if (!built_) RETURN_IF_ERROR(BuildTree());
  MergeSource* min = tree_->Min();
  NEXSORT_DCHECK(min != nullptr);
  auto* slot = static_cast<ReplacementHeapSlot*>(min);
  key->assign(slot->user_key());
  value->assign(slot->value());
  used_bytes_ -= slot->bytes();
  --live_;
  RETURN_IF_ERROR(tree_->AdvanceMin());
  return true;
}

}  // namespace nexsort
