#include "sort/merge_plan.h"

#include <algorithm>
#include <limits>

#include "obs/json_writer.h"
#include "util/dcheck.h"

namespace nexsort {

namespace {

constexpr uint64_t kInfiniteCost = std::numeric_limits<uint64_t>::max();

// One level of the plan under construction: the surviving node indices in
// run-sequence order (contiguity is defined over this order) and their
// byte sizes mirrored for cheap prefix sums.
struct Level {
  std::vector<uint32_t> nodes;
  std::vector<uint64_t> bytes;
};

uint32_t EmitStep(MergePlan* plan, Level* level, size_t begin, size_t count,
                  uint32_t pass) {
  MergeStep step;
  step.pass = pass;
  step.inputs.reserve(count);
  uint64_t total = 0;
  for (size_t i = begin; i < begin + count; ++i) {
    step.inputs.push_back(level->nodes[i]);
    total += level->bytes[i];
  }
  step.output = plan->node_count();
  plan->node_bytes.push_back(total);
  plan->steps.push_back(std::move(step));
  return plan->steps.back().output;
}

// Raise fan_in to `exp` without overflow; saturates at `limit` (callers
// only compare the result against counts <= limit).
uint64_t PowClamped(uint64_t fan_in, uint32_t exp, uint64_t limit) {
  uint64_t result = 1;
  for (uint32_t i = 0; i < exp; ++i) {
    if (result > limit / fan_in) return limit;
    result *= fan_in;
  }
  return result;
}

// One planned pass over `level`: choose a contiguous segmentation into
// merge groups (size 2..fan_in) and carried singletons that minimizes the
// bytes merged this pass, subject to leaving at most `max_next` nodes for
// the following passes. Carried nodes cost zero bytes, so the DP naturally
// merges the smallest window of runs it can get away with — which is what
// yields the classic "first merge takes 1 + (n-1) mod (F-1) runs" pattern
// and the graceful-degradation case (n = F+1 -> one cheapest 2-way merge).
//
// dp[i][j]: minimum bytes merged covering the first i nodes with j nodes
// surviving to the next level; transitions carry node i (free) or close a
// group of s in [2..fan_in] ending at i (costs the window's bytes).
void PlanOnePass(MergePlan* plan, Level* level, uint64_t fan_in,
                 uint64_t max_next, uint32_t pass) {
  const size_t m = level->nodes.size();
  const size_t t_max =
      static_cast<size_t>(std::min<uint64_t>(max_next, m - 1));
  NEXSORT_DCHECK(t_max >= 1);

  std::vector<uint64_t> prefix(m + 1, 0);
  for (size_t i = 0; i < m; ++i) prefix[i + 1] = prefix[i] + level->bytes[i];

  // dp + choice are (m+1) x (t_max+1), row-major. choice[i][j] is the
  // segment length that ends at node i-1 in the optimal solution (1 =
  // carried). Ties prefer the carry / shorter segment (first transition
  // examined), keeping reconstruction deterministic.
  const size_t stride = t_max + 1;
  std::vector<uint64_t> dp((m + 1) * stride, kInfiniteCost);
  std::vector<uint32_t> choice((m + 1) * stride, 0);
  dp[0] = 0;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j <= std::min(i, t_max); ++j) {
      const uint64_t here = dp[i * stride + j];
      if (here == kInfiniteCost || j + 1 > t_max) continue;
      // Carry node i to the next level untouched.
      size_t idx = (i + 1) * stride + (j + 1);
      if (here < dp[idx]) {
        dp[idx] = here;
        choice[idx] = 1;
      }
      // Close a merge group of size s ending at node i+s-1.
      const size_t s_max = std::min<size_t>(fan_in, m - i);
      for (size_t s = 2; s <= s_max; ++s) {
        const uint64_t cost = here + (prefix[i + s] - prefix[i]);
        idx = (i + s) * stride + (j + 1);
        if (cost < dp[idx]) {
          dp[idx] = cost;
          choice[idx] = static_cast<uint32_t>(s);
        }
      }
    }
  }

  // Best surviving-node count. j == m would mean "carry everything" (no
  // progress); it is unreachable because t_max <= m - 1, so any feasible
  // answer contains at least one real merge group.
  size_t best_j = 0;
  uint64_t best_cost = kInfiniteCost;
  for (size_t j = 1; j <= t_max; ++j) {
    if (dp[m * stride + j] < best_cost) {
      best_cost = dp[m * stride + j];
      best_j = j;
    }
  }
  NEXSORT_DCHECK(best_cost != kInfiniteCost);

  // Reconstruct the segmentation back-to-front, then emit in order.
  std::vector<uint32_t> lengths;
  for (size_t i = m, j = best_j; i > 0;) {
    const uint32_t s = choice[i * stride + j];
    NEXSORT_DCHECK(s >= 1);
    lengths.push_back(s);
    i -= s;
    --j;
  }
  std::reverse(lengths.begin(), lengths.end());

  Level next;
  size_t at = 0;
  for (uint32_t s : lengths) {
    if (s == 1) {
      next.nodes.push_back(level->nodes[at]);
      next.bytes.push_back(level->bytes[at]);
    } else {
      uint32_t out = EmitStep(plan, level, at, s, pass);
      next.nodes.push_back(out);
      next.bytes.push_back(plan->node_bytes[out]);
    }
    at += s;
  }
  NEXSORT_DCHECK(at == m);
  NEXSORT_DCHECK(next.nodes.size() == best_j);
  *level = std::move(next);
}

// Optimized merge patterns under a hard pass ceiling. Invariant entering
// pass k: level size <= fan_in^(greedy_passes - k), so capping the nodes
// left after pass k at fan_in^(greedy_passes - k - 1) keeps the remaining
// passes feasible at full fan-in — the planned pass count can never exceed
// the greedy one, while the per-pass DP spends the slack (cap - ceil(m/F))
// on carrying large runs instead of rewriting them.
void PlanOptimized(MergePlan* plan, Level* level, uint64_t fan_in) {
  const uint32_t greedy_passes =
      MergePlanner::GreedyPassCount(level->nodes.size(), fan_in);
  uint32_t pass = 0;
  while (level->nodes.size() > 1) {
    const size_t m = level->nodes.size();
    if (m <= fan_in) {
      uint32_t out = EmitStep(plan, level, 0, m, pass);
      level->nodes.assign(1, out);
      level->bytes.assign(1, plan->node_bytes[out]);
    } else {
      NEXSORT_DCHECK(pass + 1 < greedy_passes);
      const uint64_t cap =
          PowClamped(fan_in, greedy_passes - pass - 1, m - 1);
      PlanOnePass(plan, level, fan_in, cap, pass);
    }
    ++pass;
  }
  NEXSORT_DCHECK(pass <= greedy_passes);
  plan->passes = pass;
}

}  // namespace

uint64_t MergePlan::predicted_bytes_moved() const {
  uint64_t total = 0;
  for (const MergeStep& step : steps) total += node_bytes[step.output];
  return total;
}

uint32_t MergePlanner::GreedyPassCount(uint64_t runs, uint64_t fan_in) {
  NEXSORT_DCHECK(fan_in >= 2);
  uint32_t passes = 0;
  while (runs > 1) {
    runs = (runs + fan_in - 1) / fan_in;
    ++passes;
  }
  return passes;
}

MergePlan MergePlanner::Plan(const std::vector<uint64_t>& run_bytes,
                             uint64_t fan_in) {
  NEXSORT_DCHECK(fan_in >= 2);
  MergePlan plan;
  plan.num_inputs = static_cast<uint32_t>(run_bytes.size());
  plan.node_bytes = run_bytes;
  if (run_bytes.size() <= 1) return plan;

  Level level;
  level.nodes.resize(run_bytes.size());
  for (uint32_t i = 0; i < level.nodes.size(); ++i) level.nodes[i] = i;
  level.bytes = run_bytes;

  PlanOptimized(&plan, &level, fan_in);
  NEXSORT_DCHECK(!plan.steps.empty());
  plan.steps.back().final = true;
  return plan;
}

void MergePlanStats::ToJson(JsonWriter* writer) const {
  writer->BeginObject();
  writer->Key("plans");
  writer->Uint(plans);
  writer->Key("steps");
  writer->Uint(steps);
  writer->Key("input_runs");
  writer->Uint(input_runs);
  writer->Key("fanin_min");
  writer->Uint(fanin_min);
  writer->Key("fanin_max");
  writer->Uint(fanin_max);
  writer->Key("fanin_total");
  writer->Uint(fanin_total);
  writer->Key("predicted_bytes");
  writer->Uint(predicted_bytes);
  writer->Key("actual_bytes");
  writer->Uint(actual_bytes);
  writer->EndObject();
}

}  // namespace nexsort
