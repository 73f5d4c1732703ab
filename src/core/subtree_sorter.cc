#include "core/subtree_sorter.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/order_spec.h"
#include "extmem/block_device.h"
#include "extmem/memory_budget.h"
#include "extmem/run_store.h"
#include "extmem/stream.h"
#include "sort/external_merge_sort.h"
#include "sort/key_path.h"
#include "util/cancellation.h"
#include "util/varint.h"

namespace nexsort {

namespace {

bool TagInScope(const SubtreeSortContext& ctx, std::string_view tag) {
  if (ctx.scope_tags == nullptr || ctx.scope_tags->empty()) return true;
  for (const std::string& scoped : *ctx.scope_tags) {
    if (scoped == tag) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Sibling-subtree streams for merging incomplete runs.
// ---------------------------------------------------------------------

// A stream of sorted sibling subtrees at a fixed level; the merge engine for
// incomplete sorted runs ("incomplete sorted runs for the same subtree must
// be merged to produce a regular, complete sorted run", Section 3.2).
class SubtreeStream {
 public:
  virtual ~SubtreeStream() = default;
  virtual bool exhausted() const = 0;
  // Key/seq of the current subtree's root.
  virtual std::string_view key() const = 0;
  virtual uint64_t seq() const = 0;
  // Append the current subtree's units to `out` and advance.
  virtual Status CopySubtree(ByteSink* out) = 0;
};

// Stream over sorted sibling subtrees of the in-memory forest.
class MemoryForestStream final : public SubtreeStream {
 public:
  MemoryForestStream(SpanForest* forest, std::vector<uint32_t> siblings)
      : forest_(forest), siblings_(std::move(siblings)) {}

  bool exhausted() const override { return cursor_ >= siblings_.size(); }
  std::string_view key() const override {
    return forest_->key(siblings_[cursor_]);
  }
  uint64_t seq() const override { return forest_->seq(siblings_[cursor_]); }
  Status CopySubtree(ByteSink* out) override {
    return forest_->AppendSubtree(siblings_[cursor_++], out);
  }

 private:
  SpanForest* forest_;
  const std::vector<uint32_t> siblings_;
  size_t cursor_ = 0;
};

// Stream over an incomplete sorted run on disk. Units are copied as the
// bytes the run holds, decoded only for their level, key and seq.
class FragmentStream final : public SubtreeStream {
 public:
  FragmentStream(const SubtreeSortContext& ctx, RunHandle handle)
      : reader_(ctx.store, handle, 0, ctx.format, ctx.dictionary) {}

  Status Open() {
    RETURN_IF_ERROR(reader_.init_status());
    ASSIGN_OR_RETURN(bool more, reader_.Next(&pending_));
    exhausted_ = !more;
    if (!exhausted_) top_level_ = pending_.level;
    return Status::OK();
  }

  bool exhausted() const override { return exhausted_; }
  std::string_view key() const override { return pending_.key; }
  uint64_t seq() const override { return pending_.seq; }

  Status CopySubtree(ByteSink* out) override {
    // Emit units until the next unit at the top level (the next sibling
    // root) or end of run. pending_ views the reader's buffer, so its
    // bytes are copied before the reader moves on.
    scratch_.assign(pending_.bytes);
    while (true) {
      ASSIGN_OR_RETURN(bool more, reader_.Next(&pending_));
      if (!more) {
        exhausted_ = true;
        break;
      }
      if (pending_.level <= top_level_) break;  // next sibling
      scratch_.append(pending_.bytes);
      if (scratch_.size() >= 64 * 1024) {
        RETURN_IF_ERROR(out->Append(scratch_));
        scratch_.clear();
      }
    }
    return out->Append(scratch_);
  }

 private:
  RunUnitReader reader_;
  UnitView pending_;
  uint32_t top_level_ = 0;
  bool exhausted_ = false;
  std::string scratch_;
};

// Merge sibling-subtree streams into `out` by (key, seq). Linear min-scan:
// the cost per *subtree* (not per unit) is O(#streams), negligible next to
// the copying itself.
Status MergeSubtreeStreams(std::vector<SubtreeStream*>& streams,
                           ByteSink* out) {
  while (true) {
    SubtreeStream* best = nullptr;
    for (SubtreeStream* stream : streams) {
      if (stream->exhausted()) continue;
      if (best == nullptr ||
          KeySeqLess(stream->key(), stream->seq(), best->key(), best->seq())) {
        best = stream;
      }
    }
    if (best == nullptr) return Status::OK();
    RETURN_IF_ERROR(best->CopySubtree(out));
  }
}

// Merge fragment runs (plus optionally the in-memory forest) into a new
// run, multi-pass when the count exceeds the merge fan-in.
Status MergeFragments(const SubtreeSortContext& ctx,
                      std::vector<RunHandle> fragments,
                      MemoryForestStream* memory_stream, RunWriter* out,
                      SubtreeSortStats* stats) {
  // Fan-in from what the ledger has left right now (the caller holds the
  // region buffer and the output writer), keeping one spare block and a
  // floor of a 2-way merge.
  uint64_t available = ctx.store->budget()->available_blocks();
  size_t fan_in =
      available > 3 ? static_cast<size_t>(available - 1) : 2;
  // Pre-merge passes until everything fits in one final merge (the memory
  // stream occupies one final-merge slot).
  while (fragments.size() + 1 > fan_in) {
    ++stats->fragment_premerge_passes;
    std::vector<RunHandle> next;
    for (size_t group = 0; group < fragments.size(); group += fan_in) {
      size_t end = std::min(fragments.size(), group + fan_in);
      if (end - group == 1) {
        next.push_back(fragments[group]);
        continue;
      }
      std::vector<std::unique_ptr<FragmentStream>> owned;
      std::vector<SubtreeStream*> streams;
      for (size_t i = group; i < end; ++i) {
        owned.push_back(std::make_unique<FragmentStream>(ctx, fragments[i]));
        RETURN_IF_ERROR(owned.back()->Open());
        streams.push_back(owned.back().get());
      }
      RunWriter writer = ctx.store->NewRun();
      RETURN_IF_ERROR(writer.init_status());
      RETURN_IF_ERROR(MergeSubtreeStreams(streams, &writer));
      RunHandle merged;
      RETURN_IF_ERROR(writer.Finish(&merged));
      ++stats->fragment_merges;
      owned.clear();
      for (size_t i = group; i < end; ++i) {
        RETURN_IF_ERROR(ctx.store->FreeRun(fragments[i]));
      }
      next.push_back(merged);
    }
    fragments = std::move(next);
  }
  std::vector<std::unique_ptr<FragmentStream>> owned;
  std::vector<SubtreeStream*> streams;
  for (RunHandle handle : fragments) {
    owned.push_back(std::make_unique<FragmentStream>(ctx, handle));
    RETURN_IF_ERROR(owned.back()->Open());
    streams.push_back(owned.back().get());
  }
  if (memory_stream != nullptr) streams.push_back(memory_stream);
  RETURN_IF_ERROR(MergeSubtreeStreams(streams, out));
  ++stats->fragment_merges;
  owned.clear();
  for (RunHandle handle : fragments) {
    RETURN_IF_ERROR(ctx.store->FreeRun(handle));
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------
// SpanForest: the popped region as flat span records.
// ---------------------------------------------------------------------

Status SpanForest::Build(const SubtreeSortContext& ctx,
                         std::string_view units) {
  records_.clear();
  parents_.clear();
  roots_.clear();
  open_.clear();
  fragments_.clear();
  bool first = true;
  UnitView unit;
  while (!units.empty()) {
    RETURN_IF_ERROR(NextUnit(&units, ctx.format, ctx.dictionary, &unit));
    if (first) {
      top_level_ = unit.level;
      first = false;
    }
    if (unit.type == UnitType::kEnd) {
      while (!open_.empty() && records_[open_.back()].level > unit.level) {
        open_.pop_back();
      }
      if (!open_.empty() && records_[open_.back()].level == unit.level) {
        Record& start = records_[open_.back()];
        if (!unit.key.empty() && unit.key != start.key) {
          // Keep the bytes before the old key's length prefix; the new key
          // is encoded after them when the record is copied.
          size_t key_at =
              static_cast<size_t>(start.key.data() - start.bytes.data());
          start.bytes =
              start.bytes.substr(0, key_at - VarintLength(start.key.size()));
          start.key = unit.key;
          start.rekeyed = true;
        }
        open_.pop_back();
      }
      continue;
    }
    while (!open_.empty() && records_[open_.back()].level >= unit.level) {
      open_.pop_back();
    }
    if (unit.type == UnitType::kFragment) {
      // Fragments are children of the element they were created under: the
      // region root in a subtree sort (open = [root]) or the enclosing open
      // element in a forest sort (open empty).
      if (open_.size() > 1 || (open_.size() == 1 && open_[0] != roots_[0])) {
        return Status::Corruption("fragment unit below the top level");
      }
      fragments_.push_back(unit.run);
      continue;
    }
    if (records_.size() == kNone) {
      return Status::NotSupported("subtree region has too many units");
    }
    uint32_t index = static_cast<uint32_t>(records_.size());
    // Children of an element at level L are sorted iff L is within the
    // depth limit and the tag is in the XSort-style scope.
    bool sort_children =
        unit.type == UnitType::kStart &&
        (ctx.depth_limit == 0 ||
         unit.level <= static_cast<uint32_t>(ctx.depth_limit)) &&
        TagInScope(ctx, unit.name());
    records_.push_back({unit.bytes, unit.key, unit.seq, unit.level, unit.type,
                        false, sort_children});
    if (open_.empty()) {
      roots_.push_back(index);
      parents_.push_back(kNone);
    } else {
      parents_.push_back(open_.back());
    }
    if (unit.type == UnitType::kStart) open_.push_back(index);
  }
  // Children as one array of index ranges (records are in document order,
  // so each range starts out in document order).
  child_begin_.assign(records_.size() + 1, 0);
  for (uint32_t parent : parents_) {
    if (parent != kNone) ++child_begin_[parent + 1];
  }
  for (size_t i = 1; i < child_begin_.size(); ++i) {
    child_begin_[i] += child_begin_[i - 1];
  }
  children_.resize(child_begin_.back());
  fill_.assign(child_begin_.begin(), child_begin_.end() - 1);
  for (uint32_t i = 0; i < parents_.size(); ++i) {
    if (parents_[i] != kNone) children_[fill_[parents_[i]]++] = i;
  }
  return Status::OK();
}

void SpanForest::SortLists(const SubtreeSortContext& ctx, bool sort_roots) {
  if (sort_roots) {
    uint32_t parent_level = top_level_ - 1;
    if (ctx.depth_limit == 0 ||
        parent_level <= static_cast<uint32_t>(ctx.depth_limit)) {
      SortRange(roots_.data(), roots_.data() + roots_.size());
    }
  }
  for (size_t i = 0; i < records_.size(); ++i) {
    if (!records_[i].sort_children) continue;
    SortRange(children_.data() + child_begin_[i],
              children_.data() + child_begin_[i + 1]);
  }
}

// std::stable_sort, with an allocation-free insertion sort for the short
// lists that dominate bushy trees (both give the one stable order).
void SpanForest::SortRange(uint32_t* begin, uint32_t* end) {
  if (end - begin < 2) return;
  auto less = [this](uint32_t a, uint32_t b) {
    const Record& ra = records_[a];
    const Record& rb = records_[b];
    return KeySeqLess(ra.key, ra.seq, rb.key, rb.seq);
  };
  if (end - begin > 16) {
    std::stable_sort(begin, end, less);
    return;
  }
  for (uint32_t* i = begin + 1; i < end; ++i) {
    uint32_t moving = *i;
    uint32_t* j = i;
    for (; j > begin && less(moving, *(j - 1)); --j) *j = *(j - 1);
    *j = moving;
  }
}

// Iterative so pathological chain documents cannot overflow the C++ stack.
Status SpanForest::AppendSubtree(uint32_t node, ByteSink* out) {
  RETURN_IF_ERROR(AppendNode(node, out));
  struct Frame {
    uint32_t next;
    uint32_t end;
  };
  std::vector<Frame> stack;
  stack.push_back({child_begin_[node], child_begin_[node + 1]});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next == frame.end) {
      stack.pop_back();
      continue;
    }
    uint32_t child = children_[frame.next++];
    RETURN_IF_ERROR(AppendNode(child, out));
    if (child_begin_[child] != child_begin_[child + 1]) {
      stack.push_back({child_begin_[child], child_begin_[child + 1]});
    }
  }
  return Status::OK();
}

// A rekeyed start unit holds only the bytes before its old key (the key is
// a start unit's last field), so the new key is appended after them.
Status SpanForest::AppendNode(uint32_t node, ByteSink* out) {
  const Record& record = records_[node];
  if (!record.rekeyed) return out->Append(record.bytes);
  scratch_.assign(record.bytes);
  PutLengthPrefixed(&scratch_, record.key);
  return out->Append(scratch_);
}

// Charge the budget for a region held in memory during an internal sort,
// so peak-use accounting reflects what is actually resident. Best-effort:
// a region can legitimately exceed what the ledger can express by a little
// (fragment-pointer lists, threshold slack), in which case we charge
// everything that is left rather than fail a sort that will succeed.
Status ReserveRegion(const SubtreeSortContext& ctx, size_t bytes,
                     BudgetReservation* reservation) {
  size_t block_size = ctx.store->device()->block_size();
  uint64_t blocks = (bytes + block_size - 1) / block_size;
  if (blocks == 0) blocks = 1;
  uint64_t available = ctx.store->budget()->available_blocks();
  if (available == 0) return Status::OK();
  return reservation->Acquire(ctx.store->budget(),
                              std::min(blocks, available));
}

StatusOr<RunHandle> SortSubtreeInMemory(const SubtreeSortContext& ctx,
                                        std::string_view units,
                                        SpanForest* index,
                                        std::string* root_key,
                                        SubtreeSortStats* stats) {
  ++stats->internal_sorts;
  stats->largest_subtree_bytes =
      std::max<uint64_t>(stats->largest_subtree_bytes, units.size());
  // Charge the budget for the region while it is indexed and sorted (the
  // memory-dominant phase); the write/merge phase that follows charges its
  // own writer and reader blocks instead.
  BudgetReservation region_reservation;
  RETURN_IF_ERROR(ReserveRegion(ctx, units.size(), &region_reservation));
  SpanForest& forest = *index;
  RETURN_IF_ERROR(forest.Build(ctx, units));
  if (forest.roots().size() != 1) {
    return Status::Corruption("subtree region does not have a single root");
  }
  const uint32_t root = forest.roots()[0];
  if (forest.type(root) != UnitType::kStart) {
    return Status::Corruption("subtree root is not a start unit");
  }
  forest.SortLists(ctx, /*sort_roots=*/false);
  root_key->assign(forest.key(root));
  region_reservation.Reset();

  // This run is re-read by the output DFS long after later subtree sorts
  // have churned the free list: place it so that read-back is sequential.
  RunWriter writer = ctx.store->NewRun(IoCategory::kRunWrite,
                                      PlacementHint::kSequentialOutput);
  RETURN_IF_ERROR(writer.init_status());
  if (forest.fragments().empty()) {
    RETURN_IF_ERROR(forest.AppendSubtree(root, &writer));
  } else {
    // Fragments are forests of the root's children: emit the root start
    // unit, then merge the in-memory children with the fragment streams.
    RETURN_IF_ERROR(forest.AppendNode(root, &writer));
    MemoryForestStream memory_stream(&forest, forest.ChildrenOf(root));
    RETURN_IF_ERROR(MergeFragments(ctx, std::move(forest.fragments()),
                                   &memory_stream, &writer, stats));
  }
  RunHandle handle;
  RETURN_IF_ERROR(writer.Finish(&handle));
  return handle;
}

StatusOr<RunHandle> SortForestInMemory(const SubtreeSortContext& ctx,
                                       std::string_view units,
                                       SpanForest* index,
                                       SubtreeSortStats* stats) {
  stats->largest_subtree_bytes =
      std::max<uint64_t>(stats->largest_subtree_bytes, units.size());
  BudgetReservation region_reservation;
  RETURN_IF_ERROR(ReserveRegion(ctx, units.size(), &region_reservation));
  SpanForest& forest = *index;
  RETURN_IF_ERROR(forest.Build(ctx, units));
  if (!forest.fragments().empty()) {
    return Status::Corruption("nested fragments in forest sort");
  }
  forest.SortLists(ctx, /*sort_roots=*/true);
  region_reservation.Reset();

  RunWriter writer = ctx.store->NewRun();
  RETURN_IF_ERROR(writer.init_status());
  for (uint32_t root : forest.roots()) {
    RETURN_IF_ERROR(forest.AppendSubtree(root, &writer));
  }
  RunHandle handle;
  RETURN_IF_ERROR(writer.Finish(&handle));
  return handle;
}

ExternalSubtreeSorter::ExternalSubtreeSorter(const SubtreeSortContext& ctx,
                                             SubtreeSortStats* stats)
    : ctx_(ctx), stats_(stats), sink_(this) {
  if (ctx.sort_options.memory_blocks < 4) {
    status_ = Status::InvalidArgument("external subtree sort needs >= 4 blocks");
    return;
  }
  sorter_ = std::make_unique<ExternalMergeSorter>(ctx.store, ctx.sort_options);
  status_ = sorter_->init_status();
}

ExternalSubtreeSorter::~ExternalSubtreeSorter() = default;

const Status& ExternalSubtreeSorter::init_status() const { return status_; }

Status ExternalSubtreeSorter::UnitSink::Append(std::string_view data) {
  ExternalSubtreeSorter* owner = owner_;
  if (!owner->status_.ok()) return owner->status_;
  // Feed every complete unit; a unit cut off by the end of `data` waits in
  // pending_ for the next Append, and a malformed one fails at once.
  std::string_view view = data;
  if (!owner->pending_.empty()) {
    owner->pending_.append(data);
    view = owner->pending_;
  }
  UnitView unit;
  while (!view.empty()) {
    DecodeResult result =
        DecodeUnit(view, owner->ctx_.format, owner->ctx_.dictionary, &unit);
    if (result == DecodeResult::kTruncated) break;
    if (result == DecodeResult::kMalformed) {
      owner->status_ = Status::Corruption("malformed unit in subtree stream");
      return owner->status_;
    }
    RETURN_IF_ERROR(owner->FeedUnit(unit));
    view.remove_prefix(unit.bytes.size());
  }
  // `view` is a suffix of pending_ or of `data`; keep only it.
  if (owner->pending_.empty()) {
    owner->pending_.assign(view);
  } else {
    owner->pending_.erase(0, owner->pending_.size() - view.size());
  }
  return Status::OK();
}

Status ExternalSubtreeSorter::FeedUnit(const UnitView& unit) {
  bytes_fed_ += unit.bytes.size();
  if (unit.type == UnitType::kEnd) return Status::OK();  // levels suffice
  if (unit.type == UnitType::kFragment) {
    return Status::NotSupported(
        "incomplete runs cannot participate in an external subtree sort");
  }
  if (!have_root_) {
    if (unit.type != UnitType::kStart) {
      return Status::Corruption("subtree root is not a start unit");
    }
    root_level_ = unit.level;
    root_key_.assign(unit.key);
    have_root_ = true;
  }
  // Key path: the (key, seq) components of the unit's open ancestors
  // within the subtree, root first, plus its own. path_ holds the
  // ancestors' components; the unit's own is appended in place and cut
  // off again unless the unit opens an element.
  uint32_t rel = unit.level - root_level_;  // 0 for the root itself
  if (rel < path_ends_.size()) {
    path_.resize(rel == 0 ? 0 : path_ends_[rel - 1]);
    path_ends_.resize(rel);
    sorts_children_.resize(rel);
  }
  // A unit is reordered among its siblings only when its parent's list is
  // sorted at all: the parent must be within the depth limit and (for
  // XSort-style scoped sorting) have an in-scope tag. Otherwise encode an
  // empty key so the sequence number alone — document order — rules.
  bool parent_sorted = rel == 0 || sorts_children_.back();
  size_t ancestors = path_.size();
  AppendKeyPathComponent(&path_, parent_sorted ? unit.key : "", unit.seq);
  RETURN_IF_ERROR(sorter_->Add(path_, unit.bytes));
  if (unit.type == UnitType::kStart) {
    path_ends_.push_back(path_.size());
    sorts_children_.push_back(
        (ctx_.depth_limit == 0 ||
         unit.level <= static_cast<uint32_t>(ctx_.depth_limit)) &&
        TagInScope(ctx_, unit.name()));
  } else {
    path_.resize(ancestors);
  }
  return Status::OK();
}

Status ExternalSubtreeSorter::Finish(std::string* root_key) {
  RETURN_IF_ERROR(status_);
  if (!pending_.empty()) {
    return Status::Corruption("trailing partial unit in subtree stream");
  }
  if (!have_root_) return Status::Corruption("empty subtree stream");
  ++stats_->external_sorts;
  stats_->largest_subtree_bytes =
      std::max<uint64_t>(stats_->largest_subtree_bytes, bytes_fed_);
  if (root_key != nullptr) *root_key = root_key_;
  RETURN_IF_ERROR(sorter_->Finish());
  stats_->run_formation.MergeFrom(sorter_->stats().runs);
  stats_->merge_passes += sorter_->stats().merge_passes;
  stats_->merge_plan.MergeFrom(sorter_->stats().plan);
  return Status::OK();
}

StatusOr<bool> ExternalSubtreeSorter::Next(std::string_view* unit) {
  RETURN_IF_ERROR(CheckCancelled(ctx_.sort_options.cancel));
  ASSIGN_OR_RETURN(bool more, sorter_->Next(&key_, &value_));
  if (more) *unit = value_;
  return more;
}

}  // namespace nexsort
