// The benchmark's own arithmetic, kept apart from the workloads so that
// logic_test.cpp can pin it: span self times, the tail-quantile rule, the
// load calibration and the failure tally.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/trace.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Self time.
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover (the union, so overlapping children count once).
// Children are found without parent ids, from the tracer's timestamps:
//   * on one thread, spans nest by RAII, so a span's children are the
//     spans it contains on its own thread;
//   * a span with no enclosing span on its own thread (a worker's task) is
//     a child of the innermost span of `main_tid` that contains it. Every
//     pool task in the library is submitted by a caller that blocks until
//     the task ends, and the benchmark submits all its calls from one
//     thread, so that span is the one that caused the task.
// Async spans (async_id != 0, the DES causal request traces) are not
// layer boundaries and are ignored.

/// Self time of each event in nanoseconds, indexed like `events`; async
/// events get 0.
std::vector<std::uint64_t> self_times_ns(
    const std::vector<mmr::TraceEvent>& events, std::uint32_t main_tid);

/// For every span of `main_tid` named `window`, in start order: the summed
/// self time of every span contained in it, per span name (the window span
/// itself included under its own name).
std::vector<std::map<std::string, double>> self_seconds_per_window(
    const std::vector<mmr::TraceEvent>& events, std::uint32_t main_tid,
    const std::string& window);

// ---------------------------------------------------------------------------
// Tail quantile.

/// The highest quantile of the form 1 - 10^-k (k >= 1) that still has at
/// least `min_beyond` of `n` samples strictly beyond its interpolation
/// position (SampleSet::quantile puts quantile q at index q * (n - 1)).
struct TailQuantile {
  double q = 0;
  std::uint64_t beyond = 0;  ///< samples strictly beyond the quantile
};

/// Throws mmr::CheckError when even the 0.9 quantile has fewer than
/// `min_beyond` samples beyond it.
TailQuantile tail_quantile(std::uint64_t n, std::uint64_t min_beyond = 10);

// ---------------------------------------------------------------------------
// Load calibration.

/// Highest station utilisation a pilot run may show and still count as
/// "too low to queue": below it, utilisation is linear in the arrival rate.
inline constexpr double kPilotMaxRho = 0.1;

/// The arrival-rate scale at which the busiest station reaches
/// `target_rho`, extrapolated linearly from a pilot run at `pilot_scale`
/// that measured utilisations `pilot_rho_repo` and `pilot_rho_server`.
/// Throws mmr::CheckError when the pilot shows no load, queues (busiest
/// utilisation >= kPilotMaxRho), or the target is not in (0, 1).
double calibrated_rate_scale(double pilot_scale, double pilot_rho_repo,
                             double pilot_rho_server, double target_rho);

// ---------------------------------------------------------------------------
// Failure accounting.

/// Operations attempted and failed over a run, with failed_frac over them.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Throws mmr::CheckError when failed > attempted.
  void add(std::uint64_t attempted_ops, std::uint64_t failed_ops);
  /// failed / attempted; throws mmr::CheckError when nothing was attempted.
  double failed_frac() const;
  /// 1 - failed_frac().
  double ok_frac() const { return 1.0 - failed_frac(); }
};

// ---------------------------------------------------------------------------
// Statistics.

/// Median of `samples` after the io/benchfmt outlier rejection (Tukey
/// fences) that the repository's BENCH series use. Requires samples.
double robust_median(const std::vector<double>& samples);

/// FNV-1a over raw bytes, chained through `h`: output digests for the
/// byte-identity checks.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

}  // namespace perfbench
