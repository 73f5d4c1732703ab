// xmlmerge: command-line structural merge of XML documents — the paper's
// Example 1.1 as a tool. Sorts every input with NEXSORT (file-backed
// working storage), then merges them all in one simultaneous pass.
//
//   xmlmerge [options] <in1.xml> <in2.xml> [in3.xml ...] <output.xml>
//
//   --by-attr NAME   match/order elements by attribute NAME (default: id)
//   --numeric        compare keys numerically
//   --concat-text    keep text from every input (default: an input's text
//                    is dropped where an earlier input already has text)
//   --updates        two inputs only: treat the second as a batch of
//                    updates (op="merge|replace|delete" attributes)
//   --memory-mb M    internal memory budget in MiB (default 64)
//   --block-kb B     block size in KiB (default 64)
//   --stats          print match statistics afterwards: elements matched,
//                    only in the first input, only in one other input
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/nexsort.h"
#include "env/sort_env.h"
#include "extmem/stream.h"
#include "merge/structural_merge.h"
#include "service/sort_job.h"

using namespace nexsort;

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: xmlmerge [--by-attr NAME] [--numeric] [--concat-text]"
               "\n                [--updates] [--memory-mb M] [--block-kb B] "
               "[--stats]\n                <in1.xml> <in2.xml> [...] "
               "<output.xml>\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  OrderRule rule;
  rule.element = "*";
  rule.source = KeySource::kAttribute;
  rule.argument = "id";
  bool concat_text = false;
  bool updates = false;
  bool show_stats = false;
  uint64_t memory_mb = 64;
  uint64_t block_kb = 64;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (arg == "--by-attr") rule.argument = next();
    else if (arg == "--numeric") rule.numeric = true;
    else if (arg == "--concat-text") concat_text = true;
    else if (arg == "--updates") updates = true;
    else if (arg == "--memory-mb") memory_mb = std::strtoull(next(), nullptr, 10);
    else if (arg == "--block-kb") block_kb = std::strtoull(next(), nullptr, 10);
    else if (arg == "--stats") show_stats = true;
    else if (arg.rfind("--", 0) == 0) Usage();
    else paths.push_back(arg);
  }
  if (paths.size() < 3) Usage();
  if (updates && paths.size() != 3) {
    std::fprintf(stderr, "--updates takes exactly two inputs\n");
    return 2;
  }
  std::string output_path = paths.back();
  paths.pop_back();

  size_t block_size = static_cast<size_t>(block_kb) * 1024;
  uint64_t memory_blocks = memory_mb * 1024 * 1024 / block_size;
  if (memory_blocks < NexSorter::kMinMemoryBlocks) {
    std::fprintf(stderr, "memory budget too small\n");
    return 2;
  }

  OrderSpec spec;
  spec.AddRule(rule);

  // Working storage and the sorted temp files, removed however xmlmerge
  // ends.
  std::vector<std::string> temp_paths = {output_path + ".work"};
  auto fail = [&temp_paths](const Status& status) {
    for (const std::string& path : temp_paths) std::remove(path.c_str());
    std::fprintf(stderr, "xmlmerge: %s\n", status.ToString().c_str());
    return 1;
  };
  auto env = SortEnvBuilder()
                 .BlockSize(block_size)
                 .MemoryBlocks(memory_blocks)
                 .File(temp_paths[0])
                 .Build();
  if (!env.ok()) return fail(env.status());

  // Phase 1: NEXSORT every input into a temp file, one job each.
  std::vector<std::unique_ptr<FileByteSource>> files;
  std::vector<ByteSource*> inputs;
  for (const std::string& path : paths) {
    SortJob job;
    job.options.order = spec;
    job.inputs.emplace_back().path = path;
    job.output.path = temp_paths.emplace_back(path + ".sorted.tmp");
    SortJobResult result;
    Status sorted = job.Run(env.value()->NewSession(), &result);
    if (!sorted.ok()) return fail(sorted);
    auto file = FileByteSource::Open(job.output.path);
    if (!file.ok()) return fail(file.status());
    files.push_back(std::move(file).value());
    inputs.push_back(files.back().get());
  }

  // Phase 2: one-pass merge of all sorted inputs.
  auto sink = FileByteSink::Open(output_path);
  if (!sink.ok()) return fail(sink.status());
  MergeOptions options;
  options.order = spec;
  options.text_policy = concat_text ? MergeOptions::TextPolicy::kConcat
                                    : MergeOptions::TextPolicy::kPreferLeft;
  options.apply_update_ops = updates;
  MergeStats stats;
  Status status = StructuralMerge(inputs, sink.value().get(), options, &stats);
  if (status.ok()) status = sink.value()->Close();
  if (!status.ok()) return fail(status);
  for (const std::string& path : temp_paths) std::remove(path.c_str());
  if (show_stats) {
    std::fprintf(stderr,
                 "matched %llu, first-input-only %llu, "
                 "other-single-input %llu, "
                 "replaced %llu, deleted %llu\n",
                 static_cast<unsigned long long>(stats.matched_elements),
                 static_cast<unsigned long long>(stats.left_only),
                 static_cast<unsigned long long>(stats.right_only),
                 static_cast<unsigned long long>(stats.replaced),
                 static_cast<unsigned long long>(stats.deleted));
  }
  return 0;
}
