// Subtree sorting: line 11 of the paper's Figure 4 ("Sort this subtree and
// write the result in a sorted run"). Depending on the subtree's size this
// uses either an internal-memory recursive sort or, exactly as the paper
// prescribes, "an external-memory algorithm, e.g. ... key-path external
// merge sort". Also implements the merging of incomplete sorted runs that
// powers the graceful-degeneration-into-merge-sort optimization of
// Section 3.2.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/element_unit.h"
#include "extmem/run_store.h"
#include "extmem/stream.h"
#include "sort/external_merge_sort.h"
#include "sort/merge_plan.h"
#include "sort/run_formation.h"
#include "util/status.h"

namespace nexsort {

struct SubtreeSortContext {
  RunStore* store = nullptr;
  NameDictionary* dictionary = nullptr;
  UnitFormat format;

  /// Sort children of elements at levels [1, depth_limit]; 0 = every level
  /// (head-to-toe). Levels are absolute document levels, root = 1.
  int depth_limit = 0;

  /// XSort-style scoped sorting (cf. the paper's related work): when
  /// non-null and non-empty, only children of elements whose tag is listed
  /// here are reordered; every other sibling list keeps document order.
  const std::vector<std::string>* scope_tags = nullptr;

  /// The external merge sort run for an oversized subtree: its memory
  /// (the blocks one subtree sort may use), tracer, worker pool, buffer
  /// pool, cancellation token and run-formation policy.
  ExtSortOptions sort_options;
};

/// Statistics accumulated across the subtree sorts of one NEXSORT run.
struct SubtreeSortStats {
  uint64_t internal_sorts = 0;
  uint64_t external_sorts = 0;
  uint64_t fragment_merges = 0;      // incomplete-run merge steps
  uint64_t fragment_premerge_passes = 0;
  uint64_t largest_subtree_bytes = 0;
  /// Run-length accounting aggregated over the external merge sorts (the
  /// "sort" block of nexsort-stats-v1; see docs/OBSERVABILITY.md).
  RunFormationStats run_formation;
  uint64_t merge_passes = 0;  // merge passes across those external sorts
  /// Merge-schedule accounting aggregated over those external sorts (the
  /// "merge_plan" block of nexsort-stats-v1).
  MergePlanStats merge_plan;
};

/// The in-memory sorts' index over a region of encoded units (SNIPPETS.md
/// snippet 2, "sort small fixed records rather than fat objects"): one
/// flat record per kept unit — key view, seq, level and the unit's byte
/// span in the region — with each sibling list a range of record indices.
/// Sorting permutes indices, and a sorted subtree is written by copying
/// spans depth-first; only a start unit whose key arrived on its end unit
/// is re-encoded. Records view the region, which must outlive their use.
///
/// One index serves every region of a job: Build keeps its buffers'
/// capacity, so a region costs no allocation. Allocating them per region
/// let the allocator return the memory to the kernel between sorts and
/// fault it in again for the next one.
class SpanForest {
 public:
  /// Index `units`, replacing the previous index. kEnd units donate their
  /// keys to the matching start and are dropped; kFragment units may only
  /// appear at the top level, and are collected into fragments().
  [[nodiscard]] Status Build(const SubtreeSortContext& ctx,
                             std::string_view units);

  /// Stable-sort every sibling list by (key, seq): the children of an
  /// element within the depth limit and the tag scope, and with
  /// `sort_roots` the top-level list, which in a forest belongs to the
  /// enclosing open element at one level up.
  void SortLists(const SubtreeSortContext& ctx, bool sort_roots);

  /// Append record `node` and its subtree, depth-first, to `out`.
  [[nodiscard]] Status AppendSubtree(uint32_t node, ByteSink* out);

  /// Append record `node` alone to `out`.
  [[nodiscard]] Status AppendNode(uint32_t node, ByteSink* out);

  /// Top-level records, in sorted order once sorted; a subtree has one.
  const std::vector<uint32_t>& roots() const { return roots_; }

  /// Children of `node`, in sorted order once sorted.
  std::vector<uint32_t> ChildrenOf(uint32_t node) const {
    return std::vector<uint32_t>(children_.begin() + child_begin_[node],
                                 children_.begin() + child_begin_[node + 1]);
  }

  std::vector<RunHandle>& fragments() { return fragments_; }
  std::string_view key(uint32_t node) const { return records_[node].key; }
  uint64_t seq(uint32_t node) const { return records_[node].seq; }
  UnitType type(uint32_t node) const { return records_[node].type; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Record {
    std::string_view bytes;  // the encoded unit in the region; for a
                             // rekeyed start, the bytes before its key
    std::string_view key;    // sort key (from its end unit if rekeyed)
    uint64_t seq;
    uint32_t level;
    UnitType type;
    bool rekeyed;        // a kStart whose key arrived on its kEnd unit
    bool sort_children;  // its list of children gets sorted
  };

  void SortRange(uint32_t* begin, uint32_t* end);

  std::vector<Record> records_;
  std::vector<uint32_t> parents_;      // per record; kNone for a root
  std::vector<uint32_t> roots_;
  std::vector<uint32_t> child_begin_;  // children of i: [begin[i], begin[i+1])
  std::vector<uint32_t> children_;
  std::vector<uint32_t> open_;         // Build: open kStart records
  std::vector<uint32_t> fill_;         // Build: next free child slot
  std::vector<RunHandle> fragments_;
  uint32_t top_level_ = 0;
  std::string scratch_;  // a rekeyed start unit, re-encoded
};

/// Sort a complete subtree whose serialized units are in memory. `units`
/// must start with the root's kStart unit; it may contain kPointer units
/// (already-collapsed descendants), kFragment units (incomplete sorted runs
/// that must be direct children of the root), and kEnd units (dropped after
/// harvesting complex-criteria keys). Writes the fully sorted subtree as a
/// new run; *root_key receives the root's sort key. `index` is the job's
/// SpanForest, rebuilt over `units`.
[[nodiscard]] StatusOr<RunHandle> SortSubtreeInMemory(const SubtreeSortContext& ctx,
                                        std::string_view units,
                                        SpanForest* index,
                                        std::string* root_key,
                                        SubtreeSortStats* stats);

/// Key-path external merge sort of one subtree too large for memory, and
/// the only key-path sort there is: NEXSORT runs one per oversized region,
/// and the merge-sort baseline (KeyPathXmlSorter) runs one over the whole
/// document. Serialized units are pushed through sink() — for NEXSORT
/// directly from ExtByteStack::PopRegionTo, so the region never makes an
/// extra round trip through a temp run. Finish() runs the merge passes and
/// Next() pulls the final merge one unit at a time. Complex ordering
/// criteria and kFragment units are not supported (see DESIGN.md).
class ExternalSubtreeSorter {
 public:
  ExternalSubtreeSorter(const SubtreeSortContext& ctx,
                        SubtreeSortStats* stats);
  ~ExternalSubtreeSorter();

  const Status& init_status() const;

  /// Sink accepting the subtree's serialized unit bytes in document order.
  ByteSink* sink() { return &sink_; }

  /// Run the merge passes, short of the final merge that Next() drains.
  /// *root_key, when given, receives the root's sort key.
  [[nodiscard]] Status Finish(std::string* root_key = nullptr);

  /// The next unit of the sorted subtree, depth-first: its encoded bytes,
  /// valid until the next call. Returns false after the last unit, and
  /// Cancelled once the context's token flips.
  [[nodiscard]] StatusOr<bool> Next(std::string_view* unit);

 private:
  class UnitSink final : public ByteSink {
   public:
    explicit UnitSink(ExternalSubtreeSorter* owner) : owner_(owner) {}
    [[nodiscard]] Status Append(std::string_view data) override;

   private:
    ExternalSubtreeSorter* owner_;
  };

  /// Add one decoded unit, its bytes as the record value, under its key
  /// path.
  [[nodiscard]] Status FeedUnit(const UnitView& unit);

  const SubtreeSortContext& ctx_;
  SubtreeSortStats* stats_;
  std::unique_ptr<ExternalMergeSorter> sorter_;
  UnitSink sink_;
  Status status_;

  std::string pending_;               // partial unit bytes across Appends
  std::vector<size_t> path_ends_;     // key-path prefix length per ancestor
  std::vector<bool> sorts_children_;  // per open ancestor: list is sorted
  std::string path_;                  // the open ancestors' components
  uint32_t root_level_ = 0;
  bool have_root_ = false;
  std::string root_key_;
  uint64_t bytes_fed_ = 0;
  std::string key_;    // the final merge's current record
  std::string value_;
};

/// Sort a *forest* of complete sibling subtrees (serialized units, all
/// descendants of one open element) into an incomplete sorted run: the run
/// formation step of graceful degeneration. The forest must contain no
/// kFragment units (earlier incomplete runs stay on the data stack and are
/// merged at the element's eventual subtree sort).
[[nodiscard]] StatusOr<RunHandle> SortForestInMemory(const SubtreeSortContext& ctx,
                                       std::string_view units,
                                       SpanForest* index,
                                       SubtreeSortStats* stats);

}  // namespace nexsort
