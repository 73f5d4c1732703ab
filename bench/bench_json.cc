// The nested-data extension, measured: cost of sorting JSON as NEXSORT
// units, versus sorting the equivalent XML directly. A JSON record is four
// units (the object and its three members) where the XML record is one
// element with three attributes; that is a constant factor, nothing
// superlinear.
#include "bench/bench_common.h"
#include "nested/json.h"
#include "util/random.h"
#include "util/string_util.h"

using namespace nexsort;
using namespace nexsort::bench;

namespace {

// Paired workloads: a JSON array of records and the equivalent XML.
void MakeRecordWorkload(int records, uint64_t seed, std::string* json,
                        std::string* xml) {
  Random rng(seed);
  *json = "[";
  *xml = "<all>";
  for (int i = 0; i < records; ++i) {
    uint64_t id = rng.Uniform(1000000);
    std::string name = rng.Identifier(12);
    std::string city = rng.Identifier(8);
    if (i) *json += ",";
    *json += "{\"id\":" + std::to_string(id) + ",\"name\":\"" + name +
             "\",\"city\":\"" + city + "\"}";
    *xml += "<rec id=\"" + std::to_string(id) + "\" name=\"" + name +
            "\" city=\"" + city + "\"></rec>";
  }
  *json += "]";
  *xml += "</all>";
}

}  // namespace

int main() {
  std::printf("JSON front-end: sorting records by id, JSON units vs "
              "native XML\n");
  std::printf("block size %zu, memory 24 blocks\n", kBlockSize);
  const uint64_t kMemoryBlocks = 24;

  PrintHeader("JSON vs XML sort",
              "    records | json bytes  sort I/O  model(s) | xml bytes  "
              "sort I/O  model(s) | I/O ratio");
  for (int records : {1000, 5000, 20000, 60000}) {
    std::string json;
    std::string xml;
    MakeRecordWorkload(records, 7, &json, &xml);

    uint64_t json_io = 0;
    double json_model = 0;
    {
      SortEnvOptions env_options;
      env_options.block_size = kBlockSize;
      env_options.memory_blocks = kMemoryBlocks;
      auto env_or = SortEnv::Create(std::move(env_options));
      if (!env_or.ok()) {
        std::fprintf(stderr, "env failed: %s\n",
                     env_or.status().ToString().c_str());
        return 1;
      }
      std::unique_ptr<SortEnv> env = std::move(env_or).value();
      JsonSortOptions options;
      options.sort_object_members = false;
      options.sort_arrays_by = "id";
      options.numeric_array_keys = true;
      JsonSorter sorter(env.get(), options);
      StringByteSource source(json);
      std::string out;
      StringByteSink sink(&out);
      Status st = sorter.Sort(&source, &sink);
      if (!st.ok()) {
        std::fprintf(stderr, "json sort failed: %s\n", st.ToString().c_str());
        return 1;
      }
      json_io = env->physical_device()->stats().total();
      json_model = env->physical_device()->stats().modeled_seconds;
    }

    NexSortOptions options = DefaultNexOptions();
    RunResult xml_run = RunNexSort(xml, kMemoryBlocks, options);
    CheckOk(xml_run, "xml sort");

    std::printf("  %9d | %10s %9llu  %8.2f | %9s %9llu  %8.2f | %8.2fx\n",
                records, HumanBytes(json.size()).c_str(),
                static_cast<unsigned long long>(json_io), json_model,
                HumanBytes(xml.size()).c_str(),
                static_cast<unsigned long long>(xml_run.io_total),
                xml_run.modeled_seconds,
                static_cast<double>(json_io) / xml_run.io_total);
  }
  std::printf(
      "\nexpected shape: a constant I/O factor (four units per record\n"
      "against one) once the XML no longer fits in memory, flat across\n"
      "scales — the NEXSORT asymptotics carry over to nested data\n"
      "unchanged, as the paper's Section 6 claims.\n");
  return 0;
}
