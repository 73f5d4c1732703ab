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
#include "merge/structural_merge.h"

using namespace nexsort;

namespace {

class FileSource final : public ByteSource {
 public:
  explicit FileSource(FILE* file) : file_(file) {}
  Status Read(char* buf, size_t n, size_t* out) override {
    *out = std::fread(buf, 1, n, file_);
    if (*out < n && std::ferror(file_)) {
      return Status::IOError("read error");
    }
    return Status::OK();
  }

 private:
  FILE* file_;
};

class FileSink final : public ByteSink {
 public:
  explicit FileSink(FILE* file) : file_(file) {}
  Status Append(std::string_view data) override {
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return Status::IOError("write error");
    }
    return Status::OK();
  }

 private:
  FILE* file_;
};

void Usage() {
  std::fprintf(stderr,
               "usage: xmlmerge [--by-attr NAME] [--numeric] [--concat-text]"
               "\n                [--updates] [--memory-mb M] [--block-kb B] "
               "[--stats]\n                <in1.xml> <in2.xml> [...] "
               "<output.xml>\n");
  std::exit(2);
}

// NEXSORT `path` into a sorted temp file; returns the temp path.
bool SortToTemp(const std::string& path, const OrderSpec& spec,
                size_t block_size, uint64_t memory_blocks,
                std::string* temp_path) {
  FILE* input = std::fopen(path.c_str(), "rb");
  if (input == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  *temp_path = path + ".sorted.tmp";
  FILE* output = std::fopen(temp_path->c_str(), "wb");
  if (output == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", temp_path->c_str());
    std::fclose(input);
    return false;
  }
  std::string work_path = *temp_path + ".work";
  auto env_or = SortEnvBuilder()
                    .BlockSize(block_size)
                    .MemoryBlocks(memory_blocks)
                    .File(work_path)
                    .Build();
  if (!env_or.ok()) {
    std::fprintf(stderr, "working storage: %s\n",
                 env_or.status().ToString().c_str());
    std::fclose(input);
    std::fclose(output);
    return false;
  }
  std::unique_ptr<SortEnv> env = std::move(env_or).value();
  NexSortOptions options;
  options.order = spec;
  NexSorter sorter(env.get(), options);
  FileSource source(input);
  FileSink sink(output);
  Status status = sorter.Sort(&source, &sink);
  std::fclose(input);
  std::fclose(output);
  std::remove(work_path.c_str());
  if (!status.ok()) {
    std::fprintf(stderr, "sorting %s failed: %s\n", path.c_str(),
                 status.ToString().c_str());
    return false;
  }
  return true;
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
  if (memory_blocks < 8) {
    std::fprintf(stderr, "memory budget too small\n");
    return 2;
  }

  OrderSpec spec;
  spec.AddRule(rule);

  // Phase 1: sort every input.
  std::vector<std::string> sorted_paths(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    if (!SortToTemp(paths[i], spec, block_size, memory_blocks,
                    &sorted_paths[i])) {
      return 1;
    }
  }

  // Phase 2: one-pass merge of all sorted inputs.
  std::vector<FILE*> files;
  std::vector<std::unique_ptr<FileSource>> sources;
  std::vector<ByteSource*> inputs;
  for (const std::string& path : sorted_paths) {
    FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot reopen %s\n", path.c_str());
      return 1;
    }
    files.push_back(file);
    sources.push_back(std::make_unique<FileSource>(file));
    inputs.push_back(sources.back().get());
  }
  FILE* output = std::fopen(output_path.c_str(), "wb");
  if (output == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", output_path.c_str());
    return 1;
  }
  FileSink sink(output);
  MergeOptions options;
  options.order = spec;
  options.text_policy = concat_text ? MergeOptions::TextPolicy::kConcat
                                    : MergeOptions::TextPolicy::kPreferLeft;
  options.apply_update_ops = updates;
  MergeStats stats;
  Status status = StructuralMerge(inputs, &sink, options, &stats);
  for (FILE* file : files) std::fclose(file);
  std::fclose(output);
  for (const std::string& path : sorted_paths) std::remove(path.c_str());
  if (!status.ok()) {
    std::fprintf(stderr, "merge failed: %s\n", status.ToString().c_str());
    return 1;
  }
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
