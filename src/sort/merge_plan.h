// Merge planning: turn "a pile of formed runs" into an explicit schedule of
// merge steps before any byte moves. The planner sees the formed runs'
// sizes and the merge fan-in (M-1 readers) and emits a MergePlan — a DAG of
// MergeSteps — that the ExternalMergeSorter executes mechanically.
//
// The planner applies the optimized-merge-pattern techniques from the
// external-merge-sort literature (cf. the CS764 material in SNIPPETS.md):
// size the *first* merge of a pass so every later merge runs at full
// fan-in, carry the largest runs through a pass untouched (zero bytes
// moved for them), and degrade gracefully — when the run count barely
// exceeds the fan-in, merge only enough of the smallest runs to fit
// instead of paying a full extra pass over everything. Its cost baseline
// is the classic left-to-right full-fan-in loop ("greedy"): GreedyPassCount
// is the planner's pass ceiling, and tests/merge_plan_test.cc keeps the
// loop itself as the oracle the planner is checked against.
//
// Stability constraint: the LoserTree breaks equal keys by (tie_seq,
// source index), so a merge of runs is stable in source order. Stable
// merging is associative only over *contiguous* spans — regrouping
// non-adjacent runs can reorder duplicate keys. Every step in a plan
// therefore merges a contiguous span of the current run sequence and
// replaces it in place, which keeps the final output a stable merge of the
// formed runs for any key distribution.
//
// Guarantees (property-tested in tests/merge_plan_test.cc against the
// greedy oracle):
//  * pass count  <= greedy pass count,
//  * bytes moved <= greedy bytes moved,
//  * every input run is consumed exactly once; every step's fan-in is
//    >= 2 (no copy steps) and <= fan_in.
//
// See docs/MERGE_PLANNING.md for the plan model and worked examples.
#pragma once

#include <cstdint>
#include <vector>

namespace nexsort {

class JsonWriter;

/// One merge: read the runs at `inputs` (indices into the plan's node
/// table, always a contiguous span of the current run sequence), write one
/// merged run registered as node `output`.
struct MergeStep {
  std::vector<uint32_t> inputs;
  uint32_t output = 0;
  /// Pass this step belongs to (0-based). Steps are emitted pass by pass;
  /// a step only consumes nodes produced in strictly earlier passes.
  uint32_t pass = 0;
  /// True for the step that produces the plan's root (the sort's result).
  bool final = false;
};

/// A full merge schedule. Nodes 0..num_inputs-1 are the formed runs in
/// formation order; each step appends one node. node_bytes[i] is the exact
/// byte size of node i (outputs are concatenations, so sizes are known
/// before any byte moves — that is the "predicted" side of the stats).
struct MergePlan {
  uint32_t num_inputs = 0;
  uint32_t passes = 0;
  std::vector<uint64_t> node_bytes;
  std::vector<MergeStep> steps;

  uint32_t node_count() const {
    return static_cast<uint32_t>(node_bytes.size());
  }
  /// The node the last step produces (the single surviving run).
  uint32_t root() const { return steps.empty() ? 0 : steps.back().output; }

  /// Total bytes every step will write — the plan's predicted I/O volume
  /// (each step writes the sum of its inputs' bytes).
  uint64_t predicted_bytes_moved() const;
};

/// Builds a MergePlan from formed-run sizes and the memory budget's merge
/// fan-in. Pure function of its inputs: same runs + same fan-in => same
/// plan, so merges replay deterministically.
class MergePlanner {
 public:
  /// `fan_in` >= 2. One run yields an empty plan (no steps); the sorter
  /// skips the merge phase outright in that case.
  static MergePlan Plan(const std::vector<uint64_t>& run_bytes,
                        uint64_t fan_in);

  /// Pass count the classic greedy loop (full fan-in groups, every pass)
  /// pays for `runs` runs at `fan_in` — the ceiling the planner never
  /// exceeds.
  static uint32_t GreedyPassCount(uint64_t runs, uint64_t fan_in);
};

/// Aggregated description of the merge plans one job executed; the
/// `merge_plan` block of nexsort-stats-v1 (docs/OBSERVABILITY.md). A job
/// may run many external sorts (NEXSORT runs one per oversized subtree),
/// so counters accumulate across plans; the invariant
///   fanin_total == input_runs + steps - plans
/// holds because every non-root step output is consumed by a later step.
struct MergePlanStats {
  uint64_t plans = 0;        // merge phases planned (multi-run sorts only)
  uint64_t steps = 0;
  uint64_t input_runs = 0;   // formed runs consumed by those plans
  uint64_t fanin_min = 0;    // 0 until the first step is recorded
  uint64_t fanin_max = 0;
  uint64_t fanin_total = 0;
  uint64_t predicted_bytes = 0;  // planner's byte volume
  uint64_t actual_bytes = 0;     // bytes the executor's writers produced

  void RecordStep(uint64_t fan_in, uint64_t predicted, uint64_t actual) {
    ++steps;
    fanin_min = fanin_min == 0 ? fan_in : (fan_in < fanin_min ? fan_in
                                                              : fanin_min);
    if (fan_in > fanin_max) fanin_max = fan_in;
    fanin_total += fan_in;
    predicted_bytes += predicted;
    actual_bytes += actual;
  }

  void MergeFrom(const MergePlanStats& other) {
    plans += other.plans;
    steps += other.steps;
    input_runs += other.input_runs;
    if (other.fanin_min != 0 &&
        (fanin_min == 0 || other.fanin_min < fanin_min)) {
      fanin_min = other.fanin_min;
    }
    if (other.fanin_max > fanin_max) fanin_max = other.fanin_max;
    fanin_total += other.fanin_total;
    predicted_bytes += other.predicted_bytes;
    actual_bytes += other.actual_bytes;
  }

  /// One JSON object with every counter (telemetry schema `merge_plan`).
  void ToJson(JsonWriter* writer) const;
};

}  // namespace nexsort
