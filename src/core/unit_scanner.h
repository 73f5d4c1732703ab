// UnitScanner turns the SAX event stream into ElementUnits with normalized
// sort keys attached — the front half of the paper's Figure 4 loop ("read a
// unit of XML data"). It implements the complex-ordering-criteria extension
// of Section 3.2: for rules whose key comes from an element's subtree
// (kTextContent/kChildText), the scanner runs a constant-space evaluator per
// open element and delivers the resolved key with the element's end event,
// exactly as the paper describes ("this result can be pushed onto the data
// stack with the end tag and used for sorting").
//
// Evaluator states live beside the parser's open-tag bookkeeping (O(depth)
// internal memory); the paper instead augments the external path stack, but
// the states only ever mutate within a rule-path length of the top, so they
// would stay inside the path stack's resident blocks either way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/element_unit.h"
#include "core/order_spec.h"
#include "extmem/stream.h"
#include "util/status.h"
#include "xml/sax_parser.h"
#include "xml/token.h"

namespace nexsort {

/// One scanner step.
struct ScanEvent {
  enum class Kind { kStart, kText, kEnd };
  Kind kind = Kind::kStart;

  /// For kStart/kText: a fully-formed unit ready for the data stack (the
  /// key may be empty when a complex rule resolves later). For kEnd: type
  /// kEnd with level, seq of the element's start, and the resolved key.
  ElementUnit unit;

  /// For kEnd: the closed element's child count (elements + text nodes) —
  /// the per-element fan-out feeding telemetry's fan-out histogram.
  uint64_t children = 0;
};

/// Totals observed during one scan (the workload's N, k, height).
struct ScanStats {
  uint64_t elements = 0;
  uint64_t text_nodes = 0;
  uint64_t units = 0;
  uint64_t max_fanout = 0;  // the paper's k
  uint64_t max_depth = 0;
};

/// The front of NexSorter's one path: a depth-first stream of scan events
/// over some nested format. Every start unit carries its sort key (or an
/// end unit does, for complex rules); levels and seqs number the tree.
class UnitSource {
 public:
  virtual ~UnitSource() = default;

  /// Next scan event; false at clean end of document.
  [[nodiscard]] virtual StatusOr<bool> Next(ScanEvent* event) = 0;

  virtual const ScanStats& stats() const = 0;

  /// Raw input bytes consumed so far.
  virtual uint64_t bytes_consumed() const = 0;
};

/// The XML unit source.
class UnitScanner final : public UnitSource {
 public:
  UnitScanner(ByteSource* input, const OrderSpec* spec);

  [[nodiscard]] StatusOr<bool> Next(ScanEvent* event) override;

  const ScanStats& stats() const override { return stats_; }

  uint64_t bytes_consumed() const override {
    return parser_.bytes_consumed();
  }

 private:
  struct Evaluator {
    int element_depth = 0;           // depth of the element being keyed
    const OrderRule* rule = nullptr;
    int matched = 0;                 // path components matched so far
    bool captured = false;
    std::string raw;                 // captured raw key text
  };

  struct OpenElement {
    uint64_t seq = 0;      // of the start unit
    uint64_t children = 0; // fan-out accounting
  };

  const std::vector<std::string>& PathFor(const OrderRule* rule);
  void FeedStart(std::string_view tag, int depth);
  void FeedText(std::string_view text, int depth);
  void FeedEnd(int depth);

  SaxParser parser_;
  XmlEvent xml_;  // reused across Next calls; see there
  const OrderSpec* spec_;
  uint64_t next_seq_ = 0;
  ScanStats stats_;

  std::vector<OpenElement> open_;
  std::vector<Evaluator> evaluators_;  // sparse stack, by element_depth
  std::vector<std::vector<std::string>> rule_paths_;  // per spec rule index
  int max_path_len_ = 0;
};

}  // namespace nexsort
