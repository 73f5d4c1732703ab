// Seeded input generator of the end-to-end benchmark. It links nothing from
// src/, so no change to the library can change a workload's bytes.
//
//   e2e_gen --shape deep|flat --mib N --seed S --out FILE
//
// deep: the paper's Table-2 shape {top, 85, 60} (root -> top -> 85 -> 60
//       leaves), top chosen so the document lands near N MiB.
// flat: one root with enough leaf children to land near N MiB.
//
// Every element serializes to exactly 150 bytes and every key has ten
// digits, so a document's size, unit sizes and run boundaries depend on the
// shape and size only; the seed changes keys and text, never the layout.
// Prints one JSON line: {"elements": E, "bytes": B}.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {

constexpr uint64_t kElementBytes = 150;
constexpr size_t kPadBytes = 122;   // internal: 28 bytes of tags + pad
constexpr size_t kTextBytes = 127;  // leaf: 23 bytes of tags + text

struct SplitMix64 {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

class Writer {
 public:
  Writer(std::FILE* file, uint64_t seed) : file_(file), rng_{seed} {
    buffer_.reserve(kFlushBytes + 4096);
  }

  bool Finish() {
    Flush();
    return ok_ && std::fflush(file_) == 0;
  }

  void Raw(const char* text) { buffer_.append(text); }

  void Id() {
    uint64_t id = 1000000000ULL + rng_.Next() % 9000000000ULL;
    char digits[10];
    for (int i = 9; i >= 0; --i) {
      digits[i] = static_cast<char>('0' + id % 10);
      id /= 10;
    }
    buffer_.append(digits, sizeof(digits));
  }

  void Letters(size_t n) {
    while (n > 0) {
      uint64_t bits = rng_.Next();
      for (int i = 0; i < 8 && n > 0; ++i, --n) {
        buffer_.push_back(static_cast<char>('a' + (bits & 0xff) % 26));
        bits >>= 8;
      }
    }
  }

  void OpenInternal() {
    Raw("<n id=\"");
    Id();
    Raw("\" p=\"");
    Letters(kPadBytes);
    Raw("\">");
    ++elements_;
  }
  void CloseInternal() {
    Raw("</n>");
    MaybeFlush();
  }
  void Leaf() {
    Raw("<l id=\"");
    Id();
    Raw("\">");
    Letters(kTextBytes);
    Raw("</l>");
    ++elements_;
    MaybeFlush();
  }

  uint64_t elements() const { return elements_; }
  uint64_t bytes() const { return bytes_; }
  void CountRoot() { ++elements_; }

 private:
  static constexpr size_t kFlushBytes = 1 << 20;

  void MaybeFlush() {
    if (buffer_.size() >= kFlushBytes) Flush();
  }
  void Flush() {
    if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
        buffer_.size()) {
      ok_ = false;
    }
    bytes_ += buffer_.size();
    buffer_.clear();
  }

  std::FILE* file_;
  SplitMix64 rng_;
  std::string buffer_;
  uint64_t elements_ = 0;
  uint64_t bytes_ = 0;
  bool ok_ = true;
};

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: e2e_gen --shape deep|flat --mib N --seed S --out FILE\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string shape, out_path;
  double mib = 0;
  uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) Usage();
    const char* value = argv[++i];
    if (arg == "--shape") {
      shape = value;
    } else if (arg == "--mib") {
      mib = std::strtod(value, nullptr);
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--out") {
      out_path = value;
    } else {
      Usage();
    }
  }
  if ((shape != "deep" && shape != "flat") || mib <= 0 || !have_seed ||
      out_path.empty()) {
    Usage();
  }

  std::FILE* file = std::fopen(out_path.c_str(), "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "e2e_gen: cannot open %s\n", out_path.c_str());
    return 1;
  }
  const double target_elements = mib * 1024 * 1024 / kElementBytes;
  Writer writer(file, seed);
  writer.Raw("<root>");
  writer.CountRoot();
  if (shape == "deep") {
    const uint64_t level3 = 85, level4 = 60;
    uint64_t top = static_cast<uint64_t>(
        target_elements / static_cast<double>(1 + level3 + level3 * level4) +
        0.5);
    if (top == 0) top = 1;
    for (uint64_t a = 0; a < top; ++a) {
      writer.OpenInternal();
      for (uint64_t b = 0; b < level3; ++b) {
        writer.OpenInternal();
        for (uint64_t c = 0; c < level4; ++c) writer.Leaf();
        writer.CloseInternal();
      }
      writer.CloseInternal();
    }
  } else {
    uint64_t children = static_cast<uint64_t>(target_elements + 0.5);
    if (children == 0) children = 1;
    for (uint64_t i = 0; i < children; ++i) writer.Leaf();
  }
  writer.Raw("</root>");
  bool ok = writer.Finish();
  ok = std::fclose(file) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "e2e_gen: write to %s failed\n", out_path.c_str());
    return 1;
  }
  std::printf("{\"elements\": %llu, \"bytes\": %llu}\n",
              static_cast<unsigned long long>(writer.elements()),
              static_cast<unsigned long long>(writer.bytes()));
  return 0;
}
