// Structural merge: the XML analogue of sort-merge join and the paper's
// motivating application (Example 1.1). Given N >= 1 documents *fully
// sorted under the same OrderSpec*, merges them in a single simultaneous
// pass: matching elements (same parent chain, same tag, same sort key) are
// unified — attributes unioned, children merged recursively — and
// non-matching elements are interleaved in key order (an outer join).
// Sorting first is what makes the single pass possible; NEXSORT provides
// the sort. Many inputs give the Nested Merge that Buneman et al.'s XML
// archiving builds on (see the paper's related work): merging many
// versions of a document into one archive costs one pass once everything
// is sorted.
//
// The same engine applies sorted batch updates (the paper's second
// application): with two inputs, an updates document whose elements may
// carry an operation attribute (op="merge" | "replace" | "delete") is
// merged into the base document, deleting or replacing matched subtrees.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/order_spec.h"
#include "extmem/stream.h"
#include "util/status.h"

namespace nexsort {

class Tracer;

struct MergeOptions {
  /// Must be the spec every input was sorted with; only simple rules
  /// (keys available on start tags) are supported.
  OrderSpec order;

  /// Optional telemetry sink (not owned; may be null): a span around the
  /// merge pass plus matched/emitted counters.
  Tracer* tracer = nullptr;

  /// What to do with text children of *matched* elements. Within one
  /// matched element, the text children of all inputs are written in input
  /// order at each point between child elements.
  enum class TextPolicy {
    kPreferLeft,  // a text child of input i is written iff no earlier input
                  // has written text in that element so far: the first
                  // input keeps all its text, and the right document's
                  // text shows only where the left element had none yet
                  // (Figure 1: <name>Smith</name> appears once in the
                  // merged employee)
    kConcat,      // write every input's text, earlier inputs first
  };
  TextPolicy text_policy = TextPolicy::kPreferLeft;

  /// Interpret the second of exactly two inputs as a batch of updates:
  /// elements carrying op_attribute control the merge (see above). The op
  /// attribute is stripped from the output.
  bool apply_update_ops = false;
  std::string op_attribute = "op";
};

/// Element counts of one merge. A matched element's children are counted
/// in turn; a single-input element is copied whole and counted once,
/// without its descendants.
struct MergeStats {
  uint64_t matched_elements = 0;  // in two or more inputs: unified
  uint64_t left_only = 0;   // only in the first input
  uint64_t right_only = 0;  // only in one input other than the first
  uint64_t deleted = 0;     // update mode: op="delete", matched or not
  uint64_t replaced = 0;    // update mode: op="replace" on a matched element
};

/// Merge the sorted `inputs` into `output` in one pass. All roots must
/// have the same tag name. Attributes of matched elements are unioned, the
/// earliest input winning a conflict. Update operations
/// (options.apply_update_ops) need exactly two inputs: the base, then the
/// updates.
[[nodiscard]] Status StructuralMerge(const std::vector<ByteSource*>& inputs,
                                     ByteSink* output,
                                     const MergeOptions& options,
                                     MergeStats* stats = nullptr);

}  // namespace nexsort
