// Run-formation policy sweep (docs/RUN_FORMATION.md): quicksort chunks
// vs replacement selection, across memory sizes, on the three places runs
// actually form:
//
//  - the key-path merge-sort baseline on the Figure-5 hierarchical
//    document (every unit goes through one big external sort — the
//    paper's comparison workload);
//  - NEXSORT on a flat randomly-permuted document (one huge fan-out, so
//    the subtree sort spills);
//  - NEXSORT on a nearly-sorted flat document.
//
// Expected shape (Knuth 5.4.1): on random keys replacement selection
// forms runs averaging ~2x memory, roughly halving the run count and
// trimming merge I/O; on nearly-sorted input nothing is ever fenced, the
// whole input becomes ONE run, and the merge phase is skipped entirely.
// NEXSORT outputs are asserted byte-identical between the two policies at
// every point. The streamed rows drain the pull-based SortedStream
// instead of the eager Sort call and report time_to_first_byte_ms.
//
// A second sweep (docs/MERGE_PLANNING.md) records the planned merge
// schedule, whose final run is laid out in contiguous extents: the fig5
// key-path workload at M=64, 52 (just past the fan-in boundary, where the
// planner merges only the cheapest window instead of a full extra pass)
// and 32, and a skewed workload (replacement selection over alternating
// presorted stretches and shuffled bursts, so run lengths vary wildly)
// that exercises the planner's carry DP. That the schedule never costs
// more than the classic greedy loop is property-tested against a greedy
// oracle in tests/merge_plan_test.cc.
#include "bench/bench_common.h"
#include "sort/merge_plan.h"
#include "sort/run_formation.h"
#include "util/string_util.h"

using namespace nexsort;
using namespace nexsort::bench;

namespace {

/// Deterministic flat document: `items` records under one root, payload
/// sizes varied by a multiplicative hash around the paper's ~150 bytes.
/// `ids` supplies the (1-based) key order.
std::string MakeFlatDoc(const std::vector<uint64_t>& ids) {
  std::string xml = "<doc>\n";
  for (size_t i = 0; i < ids.size(); ++i) {
    xml += "<item id=\"";
    xml += std::to_string(ids[i]);
    xml += "\">";
    xml.append(120 + (i * 2654435761ULL) % 64, 'x');
    xml += "</item>\n";
  }
  xml += "</doc>\n";
  return xml;
}

/// ids 1..items, deterministically permuted (Fisher-Yates over an LCG).
std::vector<uint64_t> PermutedIds(uint64_t items, uint64_t seed) {
  std::vector<uint64_t> ids(items);
  for (uint64_t i = 0; i < items; ++i) ids[i] = i + 1;
  uint64_t state = seed;
  for (uint64_t i = items - 1; i > 0; --i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(ids[i], ids[(state >> 33) % (i + 1)]);
  }
  return ids;
}

/// ids ascending except every 64th adjacent pair swapped.
std::vector<uint64_t> NearlySortedIds(uint64_t items) {
  std::vector<uint64_t> ids(items);
  for (uint64_t i = 0; i < items; ++i) ids[i] = i + 1;
  for (uint64_t i = 63; i + 1 < items; i += 64) std::swap(ids[i], ids[i + 1]);
  return ids;
}

/// ids ascending in long stretches with a 256-item burst every 1024 items
/// swapped to random positions across the WHOLE array. A burst shuffled
/// only within itself would never fence (every value still exceeds the
/// running maximum — the nearly_sorted collapse); global swaps plant small
/// values late, so replacement selection cuts runs at the displaced keys
/// and the run lengths vary wildly — the skewed mix the merge planner's
/// carry DP exploits.
std::vector<uint64_t> SkewedSegmentIds(uint64_t items, uint64_t seed) {
  std::vector<uint64_t> ids(items);
  for (uint64_t i = 0; i < items; ++i) ids[i] = i + 1;
  uint64_t state = seed;
  for (uint64_t start = 768; start + 256 <= items; start += 1024) {
    for (uint64_t i = 0; i < 256; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(ids[start + i], ids[(state >> 33) % items]);
    }
  }
  return ids;
}

NexSortOptions NexPolicyOptions(RunFormationPolicy policy) {
  NexSortOptions options = DefaultNexOptions();
  options.run_formation = policy;
  return options;
}

KeyPathSortOptions KeyPathPolicyOptions(RunFormationPolicy policy) {
  KeyPathSortOptions options = DefaultKeyPathOptions();
  options.run_formation = policy;
  return options;
}

double SequentialReadShare(const RunResult& result) {
  uint64_t reads = result.io.reads.load(std::memory_order_relaxed);
  if (reads == 0) return 0;
  return static_cast<double>(
             result.io.sequential_reads.load(std::memory_order_relaxed)) /
         static_cast<double>(reads);
}

void PrintMergeRow(const char* workload, uint64_t memory_blocks,
                   const MergePlanStats& plan, const RunResult& result) {
  std::printf(
      "  %-14s %4llu | %5llu  %3llu-%-3llu  %7.1f | %10llu  %8.2f  "
      "%5.1f%%\n",
      workload, static_cast<unsigned long long>(memory_blocks),
      static_cast<unsigned long long>(plan.steps),
      static_cast<unsigned long long>(plan.fanin_min),
      static_cast<unsigned long long>(plan.fanin_max),
      static_cast<double>(plan.actual_bytes) / (1024.0 * 1024.0),
      static_cast<unsigned long long>(result.io_total),
      result.modeled_seconds, 100.0 * SequentialReadShare(result));
}

void PrintRow(const char* workload, uint64_t memory_blocks,
              const char* policy, const RunFormationStats& runs,
              uint64_t merge_passes, const RunResult& result) {
  std::printf(
      "  %-14s %4llu | %-11s %5llu  %8.1f  %6llu | %10llu  %8.2f\n",
      workload, static_cast<unsigned long long>(memory_blocks), policy,
      static_cast<unsigned long long>(runs.runs_formed),
      runs.avg_run_blocks(),
      static_cast<unsigned long long>(merge_passes),
      static_cast<unsigned long long>(result.io_total),
      result.modeled_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  BenchJsonLog json_log(argc, argv, "run_formation");
  GeneratorStats doc_stats;
  std::string fig5_xml = MakeRandomDoc(/*height=*/7, /*max_fanout=*/10,
                                       /*seed=*/42, &doc_stats);
  std::string random_xml = MakeFlatDoc(PermutedIds(20000, /*seed=*/42));
  std::string sorted_xml = MakeFlatDoc(NearlySortedIds(20000));

  std::printf("Run formation: quicksort chunks vs replacement selection\n");
  std::printf("fig5 document: %s elements, %s (key-path baseline)\n",
              WithCommas(doc_stats.elements).c_str(),
              HumanBytes(doc_stats.bytes).c_str());
  std::printf("flat documents: 20,000 items, %s (random / nearly sorted)\n",
              HumanBytes(random_xml.size()).c_str());

  PrintHeader("Run formation sweep",
              "  workload          M | policy      runs  avg(blk)  passes |"
              "   phys I/O  model(s)");

  // Key-path baseline on the Figure-5 document: one external sort over
  // every unit, random key order — the classic replacement-selection win.
  // M=52 sits on a fan-in boundary: quicksort's run count exceeds the
  // merge fan-in (costing a second pass) while replacement selection's
  // longer runs stay under it.
  for (uint64_t memory_blocks : {64, 52, 32}) {
    RunResult qs = RunKeyPathSort(
        fig5_xml, memory_blocks,
        KeyPathPolicyOptions(RunFormationPolicy::kQuicksortChunks));
    CheckOk(qs, "keypath quicksort");
    RunResult rs = RunKeyPathSort(
        fig5_xml, memory_blocks,
        KeyPathPolicyOptions(RunFormationPolicy::kReplacementSelection));
    CheckOk(rs, "keypath replacement");
    json_log.AddRow("keypath_quicksort_fig5",
                    {{"memory_blocks", memory_blocks}}, qs);
    json_log.AddRow("keypath_replacement_fig5",
                    {{"memory_blocks", memory_blocks}}, rs);
    PrintRow("fig5_keypath", memory_blocks, "quicksort",
             qs.keypath_stats.sort.run_formation,
             qs.keypath_stats.sort.merge_passes, qs);
    PrintRow("fig5_keypath", memory_blocks, "replacement",
             rs.keypath_stats.sort.run_formation,
             rs.keypath_stats.sort.merge_passes, rs);
  }

  // NEXSORT on the flat documents: one huge fan-out forces the subtree
  // sort external; outputs must be byte-identical across policies.
  struct Workload {
    const char* name;
    const std::string* xml;
  };
  const Workload workloads[] = {{"random", &random_xml},
                                {"nearly_sorted", &sorted_xml}};
  for (const Workload& workload : workloads) {
    for (uint64_t memory_blocks : {64, 32}) {
      std::string qs_out;
      std::string rs_out;
      RunResult qs = RunNexSort(
          *workload.xml, memory_blocks,
          NexPolicyOptions(RunFormationPolicy::kQuicksortChunks),
          kBlockSize, json_log.enabled(), &qs_out);
      CheckOk(qs, "nexsort quicksort");
      RunResult rs = RunNexSort(
          *workload.xml, memory_blocks,
          NexPolicyOptions(RunFormationPolicy::kReplacementSelection),
          kBlockSize, json_log.enabled(), &rs_out);
      CheckOk(rs, "nexsort replacement");
      if (qs_out != rs_out) {
        std::fprintf(stderr,
                     "FATAL: policies disagree on %s at M=%llu "
                     "(outputs must be byte-identical)\n",
                     workload.name,
                     static_cast<unsigned long long>(memory_blocks));
        return 1;
      }
      std::string algo_qs =
          std::string("nexsort_quicksort_") + workload.name;
      std::string algo_rs =
          std::string("nexsort_replacement_") + workload.name;
      json_log.AddRow(algo_qs.c_str(), {{"memory_blocks", memory_blocks}},
                      qs);
      json_log.AddRow(algo_rs.c_str(), {{"memory_blocks", memory_blocks}},
                      rs);
      PrintRow(workload.name, memory_blocks, "quicksort",
               qs.nexsort_stats.sorts.run_formation,
               qs.nexsort_stats.sorts.merge_passes, qs);
      PrintRow(workload.name, memory_blocks, "replacement",
               rs.nexsort_stats.sorts.run_formation,
               rs.nexsort_stats.sorts.merge_passes, rs);
    }
  }

  // Streamed rows: the pull-based output path on the headline (M=32)
  // configurations; the row carries time_to_first_byte_ms.
  PrintHeader("Streamed output (M=32)",
              "  workload        | policy       ttfb(ms)   wall(ms)");
  for (const Workload& workload : workloads) {
    for (const auto& [policy_name, policy] :
         {std::pair<const char*, RunFormationPolicy>{
              "quicksort", RunFormationPolicy::kQuicksortChunks},
          {"replacement", RunFormationPolicy::kReplacementSelection}}) {
      RunResult streamed = RunNexSortStream(*workload.xml, /*memory=*/32,
                                            NexPolicyOptions(policy));
      CheckOk(streamed, "streamed sort");
      std::string algo = std::string("nexsort_stream_") + policy_name +
                         "_" + workload.name;
      json_log.AddRow(algo.c_str(), {{"memory_blocks", 32}}, streamed);
      std::printf("  %-14s | %-11s %9.1f  %9.1f\n", workload.name,
                  policy_name, streamed.time_to_first_byte_ms,
                  streamed.wall_seconds * 1e3);
    }
  }

  // Merge scheduling: the planned schedule on the fig5 key-path workload.
  // M=52 sits just past the fan-in boundary, where a full first pass over
  // every run would be pure waste.
  PrintHeader("Merge scheduling: planned (fig5 key-path, skewed)",
              "  workload          M | steps  fan-in   MiB mrg |"
              "   phys I/O  model(s)  seq-rd");
  for (uint64_t memory_blocks : {64, 52, 32}) {
    RunResult planned = RunKeyPathSort(fig5_xml, memory_blocks,
                                       DefaultKeyPathOptions());
    CheckOk(planned, "keypath planned merge");
    json_log.AddRow("keypath_merge_planned_fig5",
                    {{"memory_blocks", memory_blocks}}, planned);
    PrintMergeRow("fig5_keypath", memory_blocks,
                  planned.keypath_stats.sort.merge_plan, planned);
  }

  // Skewed run lengths (replacement selection over alternating presorted
  // stretches and shuffled bursts): the carry DP's home turf.
  std::string skewed_xml = MakeFlatDoc(SkewedSegmentIds(20000, /*seed=*/42));
  for (uint64_t memory_blocks : {32}) {
    RunResult planned = RunNexSort(
        skewed_xml, memory_blocks,
        NexPolicyOptions(RunFormationPolicy::kReplacementSelection),
        kBlockSize, json_log.enabled());
    CheckOk(planned, "nexsort planned merge");
    if (planned.nexsort_stats.sorts.merge_plan.plans == 0) {
      std::fprintf(stderr,
                   "FATAL: the skewed workload formed a single run — no "
                   "merge was planned, the sweep measures nothing\n");
      return 1;
    }
    json_log.AddRow("nexsort_merge_planned_skewed",
                    {{"memory_blocks", memory_blocks}}, planned);
    PrintMergeRow("skewed", memory_blocks,
                  planned.nexsort_stats.sorts.merge_plan, planned);
  }

  std::printf(
      "\nexpected shape: replacement selection roughly halves the run count\n"
      "on random input and collapses nearly-sorted input to a single run\n"
      "with zero merge passes; NEXSORT outputs are byte-identical across\n"
      "run-formation policies; the planned merge rows carry fan-in >= 2\n"
      "on every step.\n");
  json_log.Write();
  return 0;
}
