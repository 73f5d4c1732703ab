// The paper's running example (Example 1.1 / Figure 1): merging a
// personnel document with a payroll document.
//
//   build/examples/payroll_merge
//
// Both documents are NEXSORT-sorted under the same criterion (region and
// branch by name, employee by ID), then combined in a single pass with
// StructuralMerge — the XML analogue of sort-merge join. Matching
// employees end up with both their personal and salary information, and
// regions/branches appearing in only one document are preserved (outer
// join).
#include <cstdio>

#include "core/nexsort.h"
#include "env/sort_env.h"
#include "merge/structural_merge.h"

using namespace nexsort;

namespace {

// D1 and D2 from Figure 1 of the paper.
const char kPersonnel[] =
    "<company>"
    "<region name=\"NE\"></region>"
    "<region name=\"AC\">"
    "<branch name=\"Durham\">"
    "<employee ID=\"454\"></employee>"
    "<employee ID=\"323\"><name>Smith</name><phone>5552345</phone>"
    "</employee>"
    "</branch>"
    "<branch name=\"Atlanta\"></branch>"
    "</region>"
    "</company>";

const char kPayroll[] =
    "<company>"
    "<region name=\"NW\"></region>"
    "<region name=\"AC\">"
    "<branch name=\"Durham\">"
    "<employee ID=\"844\"></employee>"
    "<employee ID=\"323\"><salary>45000</salary><bonus>5000</bonus>"
    "</employee>"
    "</branch>"
    "<branch name=\"Miami\"></branch>"
    "</region>"
    "</company>";

OrderSpec MakeSpec() {
  OrderSpec spec;
  OrderRule employee;
  employee.element = "employee";
  employee.source = KeySource::kAttribute;
  employee.argument = "ID";
  spec.AddRule(employee);
  OrderRule by_name;  // region and branch both key on name
  by_name.element = "*";
  by_name.source = KeySource::kAttribute;
  by_name.argument = "name";
  spec.AddRule(by_name);
  return spec;
}

bool Sort(const std::string& xml, const OrderSpec& spec, std::string* out) {
  auto env_or = SortEnvBuilder().BlockSize(4096).MemoryBlocks(32).Build();
  if (!env_or.ok()) {
    std::fprintf(stderr, "env failed: %s\n",
                 env_or.status().ToString().c_str());
    return false;
  }
  std::unique_ptr<SortEnv> env = std::move(env_or).value();
  NexSortOptions options;
  options.order = spec;
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
  OrderSpec spec = MakeSpec();

  // Step 1: sort both documents under the shared criterion.
  std::string personnel_sorted;
  std::string payroll_sorted;
  if (!Sort(kPersonnel, spec, &personnel_sorted) ||
      !Sort(kPayroll, spec, &payroll_sorted)) {
    return 1;
  }
  std::printf("personnel (sorted):\n%s\n\n", personnel_sorted.c_str());
  std::printf("payroll (sorted):\n%s\n\n", payroll_sorted.c_str());

  // Step 2: one-pass structural merge.
  MergeOptions merge_options;
  merge_options.order = spec;
  StringByteSource left(personnel_sorted);
  StringByteSource right(payroll_sorted);
  std::string merged;
  StringByteSink sink(&merged);
  MergeStats stats;
  Status status =
      StructuralMerge({&left, &right}, &sink, merge_options, &stats);
  if (!status.ok()) {
    std::fprintf(stderr, "merge failed: %s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("merged (Figure 1, bottom):\n%s\n\n", merged.c_str());
  std::printf("matched elements: %llu, personnel-only: %llu, "
              "payroll-only: %llu\n",
              static_cast<unsigned long long>(stats.matched_elements),
              static_cast<unsigned long long>(stats.left_only),
              static_cast<unsigned long long>(stats.right_only));
  return 0;
}
