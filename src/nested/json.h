// Nested data beyond XML (paper Section 6: "while discussed in the context
// of XML, our results apply to any type of nested data in general").
// JsonSorter sorts JSON documents in external memory with the unchanged
// NEXSORT engine: a JSON unit source feeds it units straight from the
// tokenizer (nested/json_reader.h), and a JSON unit emitter writes the
// sorted units back as compact JSON.
//
// Unit mapping (docs/FORMATS.md, "JSON units"): every JSON value is one
// start unit at level depth + 1, named by its type —
//   object "o", array "a", string "s", number "n", true/false "b", null "z".
// An object member is its value's unit, with the member name in attribute
// k. A scalar carries its value in attribute v: the decoded string, the
// number lexeme verbatim, or true/false. Sort keys ride in unit.key:
//   member      its name, when sort_object_members;
//   array item  the scalar at sort_arrays_by inside it (the item itself
//               for sort_arrays_by_value), through OrderSpec::NormalizeKey.
// An item's key is known only once the item has closed, so a keyed item is
// held in memory, as units, until then: items must fit in memory,
// documents need not.
#pragma once

#include <string>

#include "core/nexsort.h"
#include "env/sort_env.h"
#include "extmem/stream.h"
#include "util/status.h"

namespace nexsort {

struct JsonSortOptions {
  /// Order every object's members by member name.
  bool sort_object_members = true;

  /// Order array items by the scalar at this '/'-separated member path
  /// inside each item (e.g. "id" or "meta/id"); the first member of a
  /// repeated name is the one followed. An empty path with
  /// sort_arrays_by_value sorts scalar arrays by their own values. Items
  /// lacking the key keep document order ahead of keyed items.
  std::string sort_arrays_by;

  /// Sort arrays of scalars by the scalar values themselves.
  bool sort_arrays_by_value = false;

  /// Compare array keys numerically.
  bool numeric_array_keys = false;
};

/// Totals from one JSON sort.
struct JsonSortStats {
  uint64_t values = 0;   // scalar + container count
  uint64_t objects = 0;
  uint64_t arrays = 0;
  NexSortStats sort;     // the underlying NEXSORT run
};

/// External-memory JSON sorter: NEXSORT over JSON units. Working storage
/// lives on the env's device and the budget is the env's, as for XML.
class JsonSorter {
 public:
  /// `env` is not owned and must outlive the sorter.
  JsonSorter(SortEnv* env, JsonSortOptions options);

  /// Sort JSON text from `input` into compact JSON text on `output`.
  /// Single use.
  [[nodiscard]] Status Sort(ByteSource* input, ByteSink* output);

  const JsonSortStats& stats() const { return stats_; }

 private:
  SortEnv* env_;
  JsonSortOptions options_;
  JsonSortStats stats_;
  bool used_ = false;
};

}  // namespace nexsort
