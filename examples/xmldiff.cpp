// xmldiff: compute an update batch between two XML documents — the
// command-line face of StructuralDiff. Inputs are NEXSORT-sorted first, so
// unsorted documents are fine; the emitted batch applies with
// `xmlmerge --updates base.xml batch.xml out.xml`.
//
//   xmldiff [options] <base.xml> <target.xml> <batch.xml>
//
//   --by-attr NAME   element identity attribute (default: id)
//   --numeric        compare keys numerically
//   --order SPEC     full ordering spec (overrides --by-attr)
//   --memory-mb M    internal memory budget in MiB (default 64)
//   --block-kb B     block size in KiB (default 64)
//   --stats          print change counts
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/nexsort.h"
#include "core/order_spec_parse.h"
#include "env/sort_env.h"
#include "extmem/stream.h"
#include "merge/structural_diff.h"
#include "service/sort_job.h"

using namespace nexsort;

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: xmldiff [--by-attr NAME] [--numeric] [--order SPEC]\n"
               "               [--memory-mb M] [--block-kb B] [--stats]\n"
               "               <base.xml> <target.xml> <batch.xml>\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  OrderRule rule;
  rule.element = "*";
  rule.source = KeySource::kAttribute;
  rule.argument = "id";
  std::string order_text;
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
    else if (arg == "--order") order_text = next();
    else if (arg == "--memory-mb") memory_mb = std::strtoull(next(), nullptr, 10);
    else if (arg == "--block-kb") block_kb = std::strtoull(next(), nullptr, 10);
    else if (arg == "--stats") show_stats = true;
    else if (arg.rfind("--", 0) == 0) Usage();
    else paths.push_back(arg);
  }
  if (paths.size() != 3) Usage();

  OrderSpec spec;
  if (!order_text.empty()) {
    auto parsed = ParseOrderSpec(order_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 2;
    }
    spec = *parsed;
  } else {
    spec.AddRule(rule);
  }

  size_t block_size = static_cast<size_t>(block_kb) * 1024;
  uint64_t memory_blocks = memory_mb * 1024 * 1024 / block_size;
  if (memory_blocks < NexSorter::kMinMemoryBlocks) {
    std::fprintf(stderr, "memory budget too small\n");
    return 2;
  }

  // Working storage and the two sorted temp files, removed however
  // xmldiff ends.
  std::vector<std::string> temp_paths = {paths[2] + ".work"};
  auto fail = [&temp_paths](const Status& status) {
    for (const std::string& path : temp_paths) std::remove(path.c_str());
    std::fprintf(stderr, "xmldiff: %s\n", status.ToString().c_str());
    return 1;
  };
  auto env = SortEnvBuilder()
                 .BlockSize(block_size)
                 .MemoryBlocks(memory_blocks)
                 .File(temp_paths[0])
                 .Build();
  if (!env.ok()) return fail(env.status());

  // NEXSORT base and target into temp files, one job each, then diff them.
  std::unique_ptr<FileByteSource> sorted[2];
  for (int i = 0; i < 2; ++i) {
    SortJob job;
    job.options.order = spec;
    job.inputs.emplace_back().path = paths[i];
    job.output.path = temp_paths.emplace_back(paths[i] + ".sorted.tmp");
    SortJobResult result;
    Status status = job.Run(env.value()->NewSession(), &result);
    if (!status.ok()) return fail(status);
    auto file = FileByteSource::Open(job.output.path);
    if (!file.ok()) return fail(file.status());
    sorted[i] = std::move(file).value();
  }
  auto batch = FileByteSink::Open(paths[2]);
  if (!batch.ok()) return fail(batch.status());
  DiffOptions options;
  options.order = spec;
  DiffStats stats;
  Status status = StructuralDiff(sorted[0].get(), sorted[1].get(),
                                 batch.value().get(), options, &stats);
  if (status.ok()) status = batch.value()->Close();
  if (!status.ok()) return fail(status);
  for (const std::string& path : temp_paths) std::remove(path.c_str());
  if (show_stats) {
    std::fprintf(stderr,
                 "inserted %llu, deleted %llu, replaced %llu, unchanged "
                 "%llu, descended %llu\n",
                 static_cast<unsigned long long>(stats.inserted),
                 static_cast<unsigned long long>(stats.deleted),
                 static_cast<unsigned long long>(stats.replaced),
                 static_cast<unsigned long long>(stats.unchanged),
                 static_cast<unsigned long long>(stats.descended));
  }
  // Exit code 1 when differences exist mirrors diff(1)'s convention.
  return (stats.inserted + stats.deleted + stats.replaced) > 0 ? 1 : 0;
}
