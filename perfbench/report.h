// One workload's result: the metric catalog (the names BENCHMARK.json
// lists), the output checks, the operation tally, and the two renderings —
// a human-readable table and the single JSON line the benchmark ends with.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "logic.h"

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Metrics of an untraced run, measured on every workload.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Metrics of a traced run. A layer the workload bypasses reads 0.
const std::vector<MetricSpec>& per_layer_metrics();

class Report {
 public:
  Report(std::string workload, bool traced);

  /// Records a catalog metric of this run's kind; throws mmr::CheckError
  /// for a name outside the catalog.
  void set(const std::string& name, double value);
  /// Records a figure that is printed in the table but is not a catalog
  /// metric (e.g. the paper's per-policy results).
  void info(const std::string& name, double value, const std::string& unit);
  /// Records an output check; a failed one makes the run incorrect.
  void check(const std::string& what, bool ok, const std::string& detail = "");

  Tally& ops() { return ops_; }
  bool correct() const;

  void print_table(std::ostream& os) const;
  /// {"correct", "attempted", "failed", "metrics"} on one line. In an
  /// untraced run every end-to-end metric must have been set.
  void print_json_line(std::ostream& os) const;

 private:
  const std::vector<MetricSpec>& catalog() const;

  std::string workload_;
  bool traced_;
  std::map<std::string, double> values_;
  struct Info {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Info> info_;
  struct Check {
    std::string what;
    bool ok;
    std::string detail;
  };
  std::vector<Check> checks_;
  Tally ops_;
};

}  // namespace perfbench
