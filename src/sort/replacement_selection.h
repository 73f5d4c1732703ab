// Heap-based replacement-selection run formation (docs/RUN_FORMATION.md):
// the RunFormationPolicy::kReplacementSelection engine behind
// ExternalMergeSorter. Incoming records fill a selection tournament (the
// project's LoserTree over fixed record slots); once memory is full, each
// arrival evicts the smallest eligible record to the open run and takes its
// slot. A record smaller than the last byte written cannot extend the
// current run, so it is *fenced* into the next one by a tag byte that
// prefixes its tournament key — the two-run invariant: at any moment slots
// hold records of at most two runs, the open run (tag 0) and the next
// (tag 1). When the winner carries tag 1 the open run is complete: close
// it, strip the tags, and keep going. On random input the expected run
// length is twice memory (Knuth 5.4.1); on nearly-sorted input nothing is
// ever fenced and the whole input becomes a single run.
//
// Stability: the tournament orders records by (run tag, key, arrival
// sequence) — `tie_seq()` carries the sequence into LoserTree — and run
// assignment of equal keys is monotone in arrival order, so the formed
// runs merge (ties to the earlier run) into exactly the record sequence
// the quicksort-chunk path produces. Byte-identical output, fewer runs.
//
// Memory is budget-exact against the capacity the owning sorter reserved:
// every resident record is charged key+value bytes plus a fixed per-slot
// overhead, and evicted records go straight to the run writer, whose one
// block is the only memory on top.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "extmem/block_device.h"
#include "extmem/run_store.h"
#include "sort/loser_tree.h"
#include "sort/run_formation.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace nexsort {

class Tracer;

/// One tournament slot: holds at most one resident record. A record costs
/// key+value bytes plus exactly sizeof(ReplacementHeapSlot) of overhead —
/// the tag byte, key, and value share one buffer, and slots live by value
/// in a deque (stable addresses, chunked allocation) — so small records do
/// not halve the effective tournament capacity. The stored key is prefixed
/// with the run tag; `tie_seq` is the record's arrival number, which
/// LoserTree compares on equal keys so eviction order is arrival order.
class ReplacementHeapSlot final : public MergeSource {
 public:
  /// Tag byte values: the open run sorts before the fenced next run.
  static constexpr char kCurrentRunTag = '\x00';
  static constexpr char kNextRunTag = '\x01';

  bool exhausted() const override { return !filled_; }
  std::string_view key() const override {  // tag byte + user key
    return std::string_view(data_).substr(0, 1 + key_len_);
  }
  uint64_t tie_seq() const override { return seq_; }

  /// Popping a slot empties it; refills go through Fill + ReplaySource.
  [[nodiscard]] Status Advance() override {
    filled_ = false;
    return Status::OK();
  }

  void Fill(char tag, std::string_view key, std::string_view value,
            uint64_t seq) {
    data_.clear();
    data_.reserve(1 + key.size() + value.size());
    data_.push_back(tag);
    data_.append(key);
    data_.append(value);
    key_len_ = static_cast<uint32_t>(key.size());
    seq_ = seq;
    filled_ = true;
  }

  void set_index(uint32_t index) { index_ = index; }
  uint32_t index() const { return index_; }

  bool fenced() const { return data_[0] == kNextRunTag; }
  void Unfence() { data_[0] = kCurrentRunTag; }

  std::string_view user_key() const {
    return std::string_view(data_).substr(1, key_len_);
  }
  std::string_view value() const {
    return std::string_view(data_).substr(1 + key_len_);
  }
  bool filled() const { return filled_; }

  /// Budget charge for the resident record.
  uint64_t bytes() const {
    return data_.size() - 1 + sizeof(ReplacementHeapSlot);
  }

 private:
  std::string data_;  // 1 tag byte + user key + value, one buffer
  uint64_t seq_ = 0;
  uint32_t index_ = 0;    // position in the former's slot deque
  uint32_t key_len_ = 0;  // user-key bytes (excluding the tag)
  bool filled_ = false;
};

/// One external sort's replacement-selection run former: Add every record,
/// then either FinishRuns (something spilled) or PopMin (everything fit).
class ReplacementSelectionFormer {
 public:
  struct Options {
    /// Tournament memory in bytes (the sorter's (M-1)-block reservation;
    /// the run writer's block is on top, exactly like the quicksort path).
    uint64_t capacity_bytes = 0;
    IoCategory temp_category = IoCategory::kSortTemp;
    Tracer* tracer = nullptr;                   // not owned; may be null
    const CancellationToken* cancel = nullptr;  // not owned; may be null
  };

  ReplacementSelectionFormer(RunStore* store, Options options);
  ~ReplacementSelectionFormer();

  ReplacementSelectionFormer(const ReplacementSelectionFormer&) = delete;
  ReplacementSelectionFormer& operator=(const ReplacementSelectionFormer&) =
      delete;

  /// Admit one record, evicting tournament minima to the open run until it
  /// fits. Polls the cancellation token once per evicted record.
  [[nodiscard]] Status Add(std::string_view key, std::string_view value);

  /// True once any record has been written toward an on-disk run.
  bool spilled() const { return spilled_; }

  /// Drain the tournament into runs and close the last one. The tail may
  /// fence once more, so this can add one final run beyond those already
  /// closed. Appends every formed run to *runs in creation order.
  [[nodiscard]] Status FinishRuns(std::vector<RunHandle>* runs);

  /// In-memory drain for inputs that never spilled: pop records in
  /// (key, arrival) order. Returns false when empty. Must not be mixed
  /// with FinishRuns.
  [[nodiscard]] StatusOr<bool> PopMin(std::string* key, std::string* value);

  const RunFormationStats& stats() const { return stats_; }

 private:
  /// Build (or rebuild, after growing the slot array) the tournament.
  [[nodiscard]] Status BuildTree();

  /// Evict the tournament winner to the open run, closing it and starting
  /// the next when the winner is fenced. Leaves the winner's slot *pending*
  /// — still seated in the tournament holding the emitted record — so a
  /// following Add can refill it in place and re-seat it with the cheap
  /// champion replay (the textbook replacement-selection step).
  [[nodiscard]] Status EmitMin();

  /// Retire a pending slot that no Add reclaimed: mark it exhausted,
  /// replay, and put it on the free list.
  [[nodiscard]] Status ResolvePending();

  [[nodiscard]] Status StartRun();
  [[nodiscard]] Status CloseRun();

  RunStore* store_;
  const Options options_;
  const uint64_t block_size_;

  std::deque<ReplacementHeapSlot> slots_;  // stable element addresses
  std::vector<uint32_t> free_slots_;
  std::unique_ptr<LoserTree> tree_;
  bool built_ = false;
  uint64_t used_bytes_ = 0;
  uint64_t live_ = 0;
  uint64_t next_seq_ = 0;

  // The champion slot whose record EmitMin just wrote out: logically dead,
  // but still seated so the next Add can take it over in place.
  bool pending_ = false;
  size_t pending_slot_ = 0;

  // Open-run state. `last_key_` is the largest (== latest) key emitted to
  // the open run; records below it are fenced to the next run.
  bool spilled_ = false;
  bool have_last_key_ = false;
  std::string last_key_;
  std::vector<RunHandle> runs_;
  RunFormationStats stats_;

  bool writer_open_ = false;
  std::unique_ptr<RunWriter> run_writer_;
};

}  // namespace nexsort
