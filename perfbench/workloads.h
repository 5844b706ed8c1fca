// The benchmark's four workloads (README.md says why each was chosen).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  /// Where des-observed writes its artifacts; created and emptied by the
  /// caller.
  std::string scratch_dir;
};

const std::vector<std::string>& workload_names();

/// Runs one workload and fills `report`. Throws on a malformed option or a
/// library error; failed output checks are recorded in the report instead.
void run_workload(const Options& options, Report& report);

}  // namespace perfbench
