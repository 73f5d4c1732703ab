// SortJob, the one job path behind xmlsort and nexsortd: its sort, merge
// and batch-update kinds produce the bytes of the direct library calls, a
// sort job reports its time to first byte, and a path output is replaced
// only by a job that succeeds — a failed job leaves the previous file as
// it was and no staging file behind.
#include "service/sort_job.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/order_spec_parse.h"
#include "extmem/stream.h"
#include "merge/batch_update.h"
#include "merge/structural_merge.h"
#include "tests/test_util.h"

namespace nexsort {
namespace {

using ::nexsort::testing::Env;
using ::nexsort::testing::NexSortString;

std::string ShuffledItems(int count) {
  std::string xml = "<list>";
  for (int i = 0; i < count; ++i) {
    int id = (i * 37 + 11) % count;
    xml += "<item id=\"" + std::to_string(id) + "\"><v>payload " +
           std::to_string(id) + "</v></item>";
  }
  return xml + "</list>";
}

NexSortOptions NumericIds() {
  NexSortOptions options;
  auto spec = ParseOrderSpec("item:attr(id)n");
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  options.order = *spec;
  return options;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class SortJobFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("nexsort_sort_job_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Write(const std::string& name, const std::string& text) {
    std::ofstream(dir_ / name, std::ios::binary) << text;
    return (dir_ / name).string();
  }

  std::vector<std::string> Files() const {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  std::filesystem::path dir_;
};

TEST(SortJob, SourceAndSinkMatchNexSorterAndReportFirstByte) {
  const std::string xml = ShuffledItems(2000);
  Env env(1024, 16);  // small enough that the root sorts externally
  StringByteSource source(xml);
  std::string out;
  StringByteSink sink(&out);
  SortJob job;
  job.options = NumericIds();
  job.inputs.emplace_back().source = &source;
  job.output.sink = &sink;
  SortJobResult result;
  NEX_ASSERT_OK(job.Run(env.get()->NewSession(), &result));

  EXPECT_EQ(out, NexSortString(xml, NumericIds(), 1024, 16));
  EXPECT_GT(result.time_to_first_byte_ms, 0.0);
  EXPECT_LE(result.time_to_first_byte_ms, result.wall_ms);
  EXPECT_EQ(result.input_bytes, xml.size());
  EXPECT_EQ(result.output_bytes, out.size());
  EXPECT_EQ(result.nexsort.input_bytes, xml.size());
  EXPECT_GT(result.nexsort.sorts.external_sorts, 0u);
}

TEST(SortJob, MergeAndBatchUpdateMatchDirectCalls) {
  auto spec = ParseOrderSpec("*:attr(id)n");
  ASSERT_TRUE(spec.ok());
  const std::string left = R"(<l><e id="1"/><e id="3"><a>x</a></e></l>)";
  const std::string right = R"(<l><e id="2"/><e id="3"><b>y</b></e></l>)";
  const std::string updates = R"(<l><e id="1" op="delete"/><e id="4"/></l>)";

  std::string direct_merge;
  {
    StringByteSource a(left), b(right);
    StringByteSink sink(&direct_merge);
    MergeOptions options;
    options.order = *spec;
    NEX_ASSERT_OK(StructuralMerge({&a, &b}, &sink, options));
  }
  std::string direct_update;
  {
    Env env;
    StringByteSource base(left);
    StringByteSink sink(&direct_update);
    BatchUpdateOptions options;
    options.order = *spec;
    NEX_ASSERT_OK(
        ApplyBatchUpdates(&base, updates, env.get(), &sink, options));
  }

  Env env;
  StringByteSource a(left), b(right), base(left);
  std::string merged, updated;
  StringByteSink merge_sink(&merged), update_sink(&updated);
  SortJob merge;
  merge.kind = SortJob::Kind::kMerge;
  merge.options.order = *spec;
  merge.inputs.emplace_back().source = &a;
  merge.inputs.emplace_back().source = &b;
  merge.output.sink = &merge_sink;
  SortJobResult result;
  NEX_ASSERT_OK(merge.Run(env.get()->NewSession(), &result));
  EXPECT_EQ(merged, direct_merge);
  EXPECT_EQ(result.input_bytes, left.size() + right.size());
  EXPECT_LT(result.time_to_first_byte_ms, 0.0) << "sort jobs only";

  SortJob update;
  update.kind = SortJob::Kind::kBatchUpdate;
  update.options.order = *spec;
  update.inputs.emplace_back().source = &base;
  update.updates = updates;
  update.output.sink = &update_sink;
  NEX_ASSERT_OK(update.Run(env.get()->NewSession(), &result));
  EXPECT_EQ(updated, direct_update);
}

TEST(SortJob, RejectsInputCountsItsKindCannotTake) {
  Env env;
  StringByteSource a("<a/>"), b("<b/>");
  std::string out;
  StringByteSink sink(&out);
  SortJobResult result;
  SortJob none;
  none.kind = SortJob::Kind::kMerge;
  none.output.sink = &sink;
  EXPECT_TRUE(none.Run(env.get()->NewSession(), &result).IsInvalidArgument());
  SortJob two;
  two.inputs.emplace_back().source = &a;
  two.inputs.emplace_back().source = &b;
  two.output.sink = &sink;
  EXPECT_TRUE(two.Run(env.get()->NewSession(), &result).IsInvalidArgument());
  EXPECT_TRUE(out.empty());
}

TEST_F(SortJobFiles, PathOutputIsReplacedOnlyOnSuccess) {
  const std::string xml = ShuffledItems(300);
  const std::string good = Write("good.xml", xml);
  const std::string truncated =
      Write("truncated.xml", xml.substr(0, xml.size() / 2));
  const std::string output = Write("out.xml", "<previous/>");
  Env env;

  // Failures: a truncated document, a missing input file, a budget too
  // small to sort in. Each leaves the previous output and no staging file.
  Env tiny(1024, 6);
  for (auto [input, job_env] : {std::pair{truncated, env.get()},
                                std::pair{(dir_ / "gone.xml").string(),
                                          env.get()},
                                std::pair{good, tiny.get()}}) {
    SortJob job;
    job.options = NumericIds();
    job.inputs.emplace_back().path = input;
    job.output.path = output;
    SortJobResult result;
    EXPECT_FALSE(job.Run(job_env->NewSession(), &result).ok()) << input;
    EXPECT_EQ(ReadFile(output), "<previous/>") << input;
    EXPECT_EQ(Files(), (std::vector<std::string>{"good.xml", "out.xml",
                                                 "truncated.xml"}))
        << input;
  }

  // Success, with the sink beside the file: both get every byte.
  std::string copy;
  StringByteSink sink(&copy);
  SortJob job;
  job.options = NumericIds();
  job.inputs.emplace_back().path = good;
  job.output.path = output;
  job.output.sink = &sink;
  SortJobResult result;
  NEX_ASSERT_OK(job.Run(env.get()->NewSession(), &result));
  const std::string expected = NexSortString(xml, NumericIds());
  EXPECT_EQ(ReadFile(output), expected);
  EXPECT_EQ(copy, expected);
  EXPECT_EQ(result.input_bytes, xml.size());
  EXPECT_EQ(result.output_bytes, expected.size());
  EXPECT_EQ(Files(), (std::vector<std::string>{"good.xml", "out.xml",
                                               "truncated.xml"}));
}

}  // namespace
}  // namespace nexsort
