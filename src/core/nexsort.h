// NEXSORT (Nested data and XML Sorting), the paper's contribution: an
// I/O-efficient, structure-aware external-memory sort of XML documents.
//
// Sorting phase (paper Figure 4, lines 1-12): scan the document depth-first
// pushing units onto an external data stack; the external path stack records
// where each open element's subtree begins. When an element closes and its
// subtree is at least the sort threshold t (or it is the root), pop the
// subtree region, sort it (internally if it fits in memory, else with a
// key-path external merge sort), write it as a sorted run, and push back a
// single pointer unit — collapsing the subtree as in Figure 2. Optional
// extensions from Section 3.2 are all implemented: graceful degeneration
// into external merge sort (incomplete sorted runs for open elements that
// fill memory), depth-limited sorting, complex ordering criteria, and the
// XML compaction techniques (name dictionary, end-tag elimination).
//
// Output phase (lines 13-21): depth-first traversal of the tree of sorted
// runs driven by the external output-location stack, reconstructing end
// tags from level transitions with an external open-tag stack.
//
// Worst-case I/O (Theorem 4.5): O(N/B + (N/B) log_{M/B} (min{kt,N}/B)).
#pragma once

#include <functional>
#include <memory>

#include "cache/buffer_pool.h"
#include "core/common_options.h"
#include "core/element_unit.h"
#include "core/order_spec.h"
#include "core/subtree_sorter.h"
#include "core/unit_emitter.h"
#include "core/unit_scanner.h"
#include "env/sort_env.h"
#include "extmem/block_device.h"
#include "extmem/ext_stack.h"
#include "extmem/memory_budget.h"
#include "extmem/run_store.h"
#include "extmem/stream.h"
#include "parallel/parallel.h"
#include "sort/sorted_stream.h"
#include "util/status.h"
#include "xml/dtd.h"

namespace nexsort {

class Tracer;

/// Algorithm knobs only: `order`, `depth_limit`, and `use_dictionary` come
/// from CommonSortOptions. Resource plumbing (tracer, cache, parallelism,
/// sort memory) lives in SortEnvOptions — describe the environment once,
/// run any number of jobs in it.
struct NexSortOptions : CommonSortOptions {
  /// The sort threshold t, in bytes: a complete subtree is sorted into a
  /// run once it reaches this size. 0 picks the paper's recommended value
  /// of twice the block size ("we set the threshold to be roughly twice the
  /// block size, which works well for most inputs", Section 5).
  uint64_t sort_threshold = 0;

  /// Graceful degeneration into external merge sort (Section 3.2): when an
  /// incomplete subtree fills internal memory, sort what is there into an
  /// incomplete run instead of letting the region spill to disk. The
  /// paper's own evaluation ran with this OFF; benchmarks show both.
  bool graceful_degeneration = false;

  /// Compaction ablation: also push end-tag units onto the data stack (the
  /// paper's non-compacted representation). Forced on internally when the
  /// OrderSpec has complex rules, which deliver keys on end tags.
  bool keep_end_units = false;

  /// Preserving the original document order (paper Section 1): when
  /// non-empty, every output element gains this attribute holding its
  /// original document-order sequence number, so "performing a final sort
  /// according to this sequence number" restores the original order.
  /// Exact restoration holds for element children; text children keep
  /// their relative order but regroup before element siblings.
  std::string record_order_attribute;

  /// Remove this attribute from every element on output (after sort keys
  /// are extracted) — the restoration side of record_order_attribute.
  std::string strip_attribute;

  /// Indent the output document (two spaces per level). Off by default:
  /// compact output is canonical and what the tests compare.
  bool pretty_output = false;

  /// Optional DTD (not owned; must outlive the sorter): its declared
  /// vocabulary pre-seeds the compaction dictionary with stable small ids
  /// (paper Section 3.2 — "the availability of a DTD can greatly simplify
  /// this conversion"). Validation is separate; see Dtd::Validate.
  const Dtd* dtd = nullptr;

  /// XSort-style scoped sorting (related work, Section 2): when non-empty,
  /// only children of elements with these tags are reordered; every other
  /// sibling list keeps document order. Solves XSort's simpler problem —
  /// "XSort traverses the document tree to some user-specified elements
  /// and then sorts their children; the child subtrees are not sorted
  /// recursively" — within the NEXSORT engine. Not combinable with
  /// graceful degeneration or complex ordering criteria.
  std::vector<std::string> sort_scope_tags;
};

struct NexSortStats {
  ScanStats scan;           // N, k, height observed in the input
  SubtreeSortStats sorts;
  uint64_t subtree_sorts = 0;    // complete-subtree sorts (paper's x)
  uint64_t fragment_runs = 0;    // incomplete runs (graceful degeneration)
  uint64_t pointer_units = 0;
  uint64_t input_bytes = 0;
  uint64_t output_bytes = 0;
  uint64_t data_stack_peak = 0;  // bytes
  uint64_t path_stack_peak = 0;  // entries

  /// Serialize every counter (including the nested scan and subtree-sort
  /// stats) as one JSON object in the telemetry schema.
  void ToJson(class JsonWriter* writer) const;
  std::string ToJsonString() const;
};

/// Builds the output phase's emitter over `output`. NexSorter calls it
/// only once the run tree exists, so the block the emitter's external
/// stack takes from `budget` (on `device`) never shrinks the sorting
/// phase's memory.
using UnitEmitterFactory = std::function<std::unique_ptr<UnitEmitter>(
    BlockDevice* device, MemoryBudget* budget, ByteSink* output)>;

/// One-document sorter running inside a SortEnv. The env supplies working
/// storage (stacks + sorted runs) and caps internal memory at M blocks.
/// Requires M >= kMinMemoryBlocks available blocks (kStackBlocks for the
/// stacks, the rest for subtree sorts) on top of whatever the env's cache
/// has reserved.
class NexSorter {
 public:
  /// Budget blocks the sorting phase's stacks hold: data stack 1, path
  /// stack 2.
  static constexpr uint64_t kStackBlocks = 3;
  /// The least budget a sort starts with; less fails with InvalidArgument.
  static constexpr uint64_t kMinMemoryBlocks = 8;

  /// Run in a fresh session of `env` (not owned; must outlive the sorter).
  NexSorter(SortEnv* env, NexSortOptions options);

  /// Run in a caller-made session — the multi-job form: create one env,
  /// hand each concurrent sorter its own session (with a per-job tracer,
  /// or none).
  NexSorter(SortEnv::Session session, NexSortOptions options);

  /// Sort `input` (XML text) into `output` (XML text). Single use.
  /// Implemented as SortStream + drain, so eager and streaming output are
  /// byte-identical by construction.
  [[nodiscard]] Status Sort(ByteSource* input, ByteSink* output);

  /// Streaming form: runs the sorting phase eagerly (no sorted byte exists
  /// before the run tree does), then returns a SortedStream whose Next()
  /// drives the output-phase DFS (paper Figure 4 lines 13-21)
  /// incrementally. Completion work — final flush, metrics — happens inside
  /// the Next() that returns false; dropping the stream early unwinds every
  /// stack and run via RAII. Single use, mutually exclusive with Sort.
  [[nodiscard]] StatusOr<std::unique_ptr<SortedStream>> SortStream(
      ByteSource* input);

  /// The one path behind Sort and SortStream, for any nested format: sort
  /// the units `source` scans, then stream the sorted units through the
  /// emitter `make_emitter` builds. The XML callers pass UnitScanner and
  /// UnitXmlEmitter; JsonSorter passes its JSON pair (nested/json.h).
  /// `source` is read only before this returns. Single use, mutually
  /// exclusive with Sort and SortStream.
  [[nodiscard]] StatusOr<std::unique_ptr<SortedStream>> SortUnits(
      UnitSource* source, UnitEmitterFactory make_emitter);

  const NexSortStats& stats() const { return stats_; }

  /// Counters of the env's block cache; all zeros when caching is disabled.
  /// Shared across every job of the env.
  CacheStats cache_stats() const { return session_.env()->cache_stats(); }

  /// Counters of this job's parallel pipeline; all zeros when disabled.
  ParallelStats parallel_stats() const { return session_.parallel_stats(); }

 private:
  class OutputStream;  // SortedStream over the output-phase DFS

  struct PathEntry {
    uint64_t start_offset = 0;    // data-stack location of the start unit
    uint64_t content_offset = 0;  // after the start unit / last fragment
    uint64_t flags = 0;           // kHasFragments
  };
  static constexpr uint64_t kHasFragments = 1;

  [[nodiscard]] Status SortingPhase(UnitSource* source, RunHandle* root_run);
  [[nodiscard]] Status SortRegion(ExtByteStack* data, const PathEntry& entry,
                    std::string_view resolved_key, uint32_t level,
                    uint64_t seq, RunHandle* run, ElementUnit* pointer);
  [[nodiscard]] Status MaybeFragment(ExtByteStack* data, ExtStack<PathEntry>* path);

  SortEnv::Session session_;
  NexSortOptions options_;
  Tracer* tracer_;       // session_'s sink (may be null)
  BlockDevice* device_;  // session_'s top-of-stack device
  MemoryBudget* budget_;
  RunStore* store_;      // session_'s run store
  NameDictionary dictionary_;
  UnitFormat format_;
  SubtreeSortContext sort_context_;
  SpanForest index_;  // the in-memory sorts' record index, reused

  uint64_t threshold_ = 0;       // t in bytes
  uint64_t sort_capacity_ = 0;   // max region bytes sorted internally
  uint64_t frag_threshold_ = 0;  // graceful-degeneration trigger
  bool push_end_units_ = false;
  bool used_ = false;

  NexSortStats stats_;
};

}  // namespace nexsort
