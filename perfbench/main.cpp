// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             --scratch-dir=DIR
//
// Prints a table, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics when
// --trace=0, the per-layer metrics when --trace=1. Exits 0 when every
// output check passed, 1 when one failed, and 2 without a JSON line when
// the run could not complete. perfbench/run.py builds and runs it.
#include <exception>
#include <iostream>

#include "report.h"
#include "util/flags.h"
#include "util/log.h"
#include "workloads.h"

int main(int argc, char** argv) {
  try {
    mmr::Flags flags = mmr::Flags::parse(argc, argv);
    flags.describe("workload", "solve-large, des-calibrated, paper-fig1 or "
                               "des-observed")
        .describe("seed", "workload seed")
        .describe("seconds", "how long the timed calls run")
        .describe("trace", "1 = traced pass with the per-layer metrics")
        .describe("scratch-dir", "directory for written artifacts");
    if (flags.help_requested()) {
      std::cout << flags.help();
      return 0;
    }
    perfbench::Options options;
    options.workload = flags.get_string("workload", "");
    options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    options.seconds = flags.get_double("seconds", 10);
    options.traced = flags.get_int("trace", 0) != 0;
    options.scratch_dir = flags.get_string("scratch-dir", ".");
    mmr::set_log_level(mmr::LogLevel::kError);

    perfbench::Report report(options.workload, options.traced);
    perfbench::run_workload(options, report);
    report.print_table(std::cout);
    report.print_json_line(std::cout);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
