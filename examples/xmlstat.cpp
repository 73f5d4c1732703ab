// xmlstat: profile an XML document and report the quantities NEXSORT's
// analysis is parameterized by (N, k, height, element sizes, per-level
// fan-outs), plus the paper's suggested sort threshold.
//
//   xmlstat [--block-kb B] <input.xml>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "extmem/stream.h"
#include "xml/doc_stats.h"

using namespace nexsort;

int main(int argc, char** argv) {
  uint64_t block_kb = 64;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--block-kb" && i + 1 < argc) {
      block_kb = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg.rfind("--", 0) != 0 && path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "usage: xmlstat [--block-kb B] <input.xml>\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: xmlstat [--block-kb B] <input.xml>\n");
    return 2;
  }
  auto input = FileByteSource::Open(path);
  if (!input.ok()) {
    std::fprintf(stderr, "%s\n", input.status().ToString().c_str());
    return 1;
  }
  auto stats = ProfileDocument(input.value().get());
  if (!stats.ok()) {
    std::fprintf(stderr, "profile failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  std::fputs(stats->ToString(block_kb * 1024).c_str(), stdout);
  return 0;
}
