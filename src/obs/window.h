// SLO evaluation over virtual-time windows.
//
// Requests are bucketed into virtual-time windows; each window cell holds a
// small response-time sketch plus good/total counters, where "good" means
// the request met BOTH thresholds of the SLO (absolute response time and
// stretch relative to the unloaded ideal). The evaluator turns the cells
// into per-window attainment, the per-window p99 trajectory, and
// multi-window burn rates in the style of SRE error-budget alerts:
// burn = (1 - attainment) / (1 - target), so burn 1.0 consumes the budget
// exactly at the sustainable rate and burn 10 means the window is failing
// ten times faster than the SLO allows.
//
// The windows are a CappedWindows<WindowCell> (obs/capped_windows.h), the
// engine the queue-dynamics series uses: `window_s` is the base width, and
// past kDefaultMaxWindows cells the width doubles and cells fold pairwise. Cells
// fold and merge exactly (sketch merge + counter adds), so a coarsened
// aggregator equals one built directly at its final width, and per-shard
// aggregators combined in canonical order are byte-identical to a
// sequential run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/capped_windows.h"
#include "obs/sketch.h"

namespace mmr {

struct SloConfig {
  double response_s = 2.0;  ///< absolute download-time threshold [s]
  double stretch_x = 1.5;   ///< max response / unloaded-ideal ratio
  double target = 0.99;     ///< attainment target in [0, 1)
};

/// Parses "RESP_S,STRETCH_X,TARGET" (e.g. "2.0,1.5,0.99"); ':' is also
/// accepted as a separator. Throws CheckError on malformed input.
SloConfig parse_slo_spec(const std::string& spec);

struct WindowCell {
  WindowCell(double alpha, std::uint32_t sketch_buckets)
      : response(alpha, sketch_buckets) {}
  QuantileSketch response;
  std::uint64_t good = 0;
  std::uint64_t total = 0;

  /// Coarsening fold: the sketch merges, the counters add.
  void fold(const WindowCell& o) {
    response.merge(o.response);
    good += o.good;
    total += o.total;
  }
};

struct SloWindowRow {
  std::uint64_t index = 0;   ///< window number (t / width)
  double t_start_s = 0.0;
  std::uint64_t total = 0;
  std::uint64_t good = 0;
  double attainment = 1.0;
  double burn = 0.0;
  double p99_s = 0.0;
};

struct SloReport {
  double window_s = 0.0;              ///< width of every row (coarsened)
  std::vector<SloWindowRow> windows;  ///< ascending index, occupied only
  std::uint64_t total = 0;
  std::uint64_t good = 0;
  double attainment = 1.0;
  double worst_burn_1 = 0.0;  ///< worst single-window burn rate
  double worst_burn_6 = 0.0;  ///< worst burn over any 6 consecutive windows
};

class WindowedAggregator {
 public:
  /// `window_s` is the base width; past kDefaultMaxWindows cells the width
  /// doubles as often as the largest observed instant needs.
  WindowedAggregator(double window_s, SloConfig slo, double alpha = 0.01,
                     std::uint32_t sketch_buckets = 512);

  void observe(double t, double response_s, double stretch_x);

  /// observe() with the response bucket index precomputed by a caller
  /// whose sketch shares this aggregator's alpha (see
  /// QuantileSketch::add_indexed).
  void observe_indexed(double t, double response_s,
                       std::int32_t response_index, double stretch_x);

  /// Exact merge; requires the same SLO and sketch resolution, and widths a
  /// power-of-two ratio apart (the finer side folds to the coarser first).
  void merge(const WindowedAggregator& other);

  SloReport evaluate() const;

  const std::map<std::uint64_t, WindowCell>& cells() const {
    return windows_.cells();
  }
  /// Current width: the base doubled once per coarsening fold.
  double window_s() const { return windows_.window_s(); }
  const SloConfig& slo() const { return slo_; }
  std::uint64_t total() const { return total_; }

  std::size_t approx_bytes() const;

 private:
  void count(WindowCell& cell, double response_s, double stretch_x);

  SloConfig slo_;
  std::uint64_t total_ = 0;
  CappedWindows<WindowCell> windows_;
};

}  // namespace mmr
