// The benchmark's metric catalog, result accumulation and output format.
//
// Every metric the benchmark can print is declared once in catalog(), with
// its unit, its direction and whether it is an end-to-end metric (printed
// by untraced runs, bounded by BENCHMARK.json) or a per-layer metric
// (printed by traced runs). The self-test and run.py check BENCHMARK.json
// against this table, so the two cannot drift apart.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class Scope { kEndToEnd, kPerLayer };

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
  Scope scope;
};

const std::vector<MetricDef>& catalog();

/// Metric values of one run, by catalog name.
using Values = std::map<std::string, double>;

/// Operations attempted and failed across a run; every failed correctness
/// check is one failed operation, and its reason is kept for the log.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void fail(std::uint64_t count, std::string reason);
  void merge(const Tally& other);
};

/// Median and linearly interpolated quantile (numpy's default method) of
/// an unsorted sample; 0 for an empty sample.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

/// The final stdout line: {"correct", "attempted", "failed", "metrics"},
/// holding exactly the catalog metrics of `scope`. Throws CheckError when a
/// metric of that scope is missing or not finite.
std::string result_json(bool correct, const Tally& tally, const Values& values,
                        Scope scope);

/// The catalog as JSON ({"name": {"unit", "better", "scope"}}), for
/// run.py's cross-check against BENCHMARK.json.
std::string catalog_json();

}  // namespace perfbench
