// Sorting nested data that is not XML (paper Section 6: "our results apply
// to any type of nested data in general"): JSON documents sorted in
// external memory by the NEXSORT engine, which sees each JSON value as one
// unit (docs/FORMATS.md, "JSON units").
//
//   build/examples/json_sort
#include <cstdio>

#include "env/sort_env.h"
#include "nested/json.h"

using namespace nexsort;

int main() {
  // An API response with members in arrival order and records unsorted.
  const std::string json = R"({
    "total": 3,
    "items": [
      {"id": 214, "name": "osmium"},
      {"id": 7,   "name": "argon"},
      {"id": 92,  "name": "radon"}
    ],
    "cursor": null,
    "aggregates": {"sum": 313, "max": 214, "count": 3}
  })";

  auto env_or = SortEnvBuilder().BlockSize(4096).MemoryBlocks(32).Build();
  if (!env_or.ok()) {
    std::fprintf(stderr, "env failed: %s\n",
                 env_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<SortEnv> env = std::move(env_or).value();

  JsonSortOptions options;
  options.sort_object_members = true;   // canonicalize member order
  options.sort_arrays_by = "id";        // order records by their id member
  options.numeric_array_keys = true;

  JsonSorter sorter(env.get(), options);
  StringByteSource input(json);
  std::string sorted;
  StringByteSink output(&sorted);
  Status status = sorter.Sort(&input, &output);
  if (!status.ok()) {
    std::fprintf(stderr, "sort failed: %s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("input:\n%s\n\nsorted (canonical member order, items by id):\n"
              "%s\n\n",
              json.c_str(), sorted.c_str());
  std::printf("values: %llu (objects %llu, arrays %llu); "
              "underlying NEXSORT subtree sorts: %llu\n",
              static_cast<unsigned long long>(sorter.stats().values),
              static_cast<unsigned long long>(sorter.stats().objects),
              static_cast<unsigned long long>(sorter.stats().arrays),
              static_cast<unsigned long long>(
                  sorter.stats().sort.subtree_sorts));
  return 0;
}
