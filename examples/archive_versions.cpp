// XML archiving (the paper's related work: Buneman et al. merge new
// versions of a scientific document into an archive with Nested Merge,
// "which needs to sort the input documents at every level" — the paper
// positions NEXSORT as the scalable sort underneath). This example sorts
// three versions of a dataset and folds them into one archive document in
// a single simultaneous pass.
//
//   build/examples/archive_versions
#include <cstdio>
#include <memory>

#include "core/nexsort.h"
#include "env/sort_env.h"
#include "merge/structural_merge.h"

using namespace nexsort;

namespace {

OrderSpec ArchiveSpec() {
  OrderSpec spec;
  OrderRule rule;
  rule.element = "*";
  rule.source = KeySource::kAttribute;
  rule.argument = "id";
  spec.AddRule(rule);
  return spec;
}

bool Sort(const std::string& xml, std::string* out) {
  auto env_or = SortEnvBuilder().BlockSize(4096).MemoryBlocks(32).Build();
  if (!env_or.ok()) {
    std::fprintf(stderr, "env failed: %s\n",
                 env_or.status().ToString().c_str());
    return false;
  }
  std::unique_ptr<SortEnv> env = std::move(env_or).value();
  NexSortOptions options;
  options.order = ArchiveSpec();
  NexSorter sorter(env.get(), options);
  StringByteSource source(xml);
  StringByteSink sink(out);
  Status status = sorter.Sort(&source, &sink);
  if (!status.ok()) {
    std::fprintf(stderr, "sort failed: %s\n", status.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main() {
  // Three snapshots of a measurement dataset. Each version adds stations
  // or readings; overlapping readings appear in several versions (the
  // oldest version's attributes win in the archive).
  const std::vector<std::string> versions = {
      "<observations>"
      "<station id=\"S2\"><reading id=\"r1\" temp=\"18.2\"/></station>"
      "<station id=\"S1\"><reading id=\"r1\" temp=\"21.0\"/></station>"
      "</observations>",

      "<observations>"
      "<station id=\"S1\">"
      "<reading id=\"r2\" temp=\"20.4\"/><reading id=\"r1\" temp=\"21.9\"/>"
      "</station>"
      "</observations>",

      "<observations>"
      "<station id=\"S3\"><reading id=\"r1\" temp=\"15.5\"/></station>"
      "<station id=\"S1\"><reading id=\"r3\" temp=\"19.7\"/></station>"
      "</observations>",
  };

  std::vector<std::string> sorted(versions.size());
  for (size_t i = 0; i < versions.size(); ++i) {
    if (!Sort(versions[i], &sorted[i])) return 1;
    std::printf("version %zu (sorted):\n%s\n\n", i + 1, sorted[i].c_str());
  }

  std::vector<std::unique_ptr<StringByteSource>> owned;
  std::vector<ByteSource*> inputs;
  for (const std::string& doc : sorted) {
    owned.push_back(std::make_unique<StringByteSource>(doc));
    inputs.push_back(owned.back().get());
  }
  MergeOptions options;
  options.order = ArchiveSpec();
  std::string archive;
  StringByteSink sink(&archive);
  MergeStats stats;
  Status status = StructuralMerge(inputs, &sink, options, &stats);
  if (!status.ok()) {
    std::fprintf(stderr, "merge failed: %s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("archive (one pass over all versions):\n%s\n\n",
              archive.c_str());
  std::printf("matched across versions: %llu, only in version 1: %llu, "
              "only in one later version: %llu\n",
              static_cast<unsigned long long>(stats.matched_elements),
              static_cast<unsigned long long>(stats.left_only),
              static_cast<unsigned long long>(stats.right_only));
  return 0;
}
