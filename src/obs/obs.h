// Streaming telemetry for million-request simulations
// (docs/OBSERVABILITY.md "Streaming telemetry").
//
// Sample capture (SimParams::capture_samples) stores every response and the
// flight recorder subsamples 1-in-N; both lose the tail once request counts
// explode. This module keeps bounded-memory summaries instead: a response
// and a stretch QuantileSketch, a SpaceSaving hot-set tracker over
// (page, server) request keys weighted by remote miss cost, and a windowed
// SLO aggregator — all exactly mergeable.
//
// Determinism follows the provenance discipline: each simulate call
// produces one ObsShard tagged (run, policy, mode); snapshot() sorts the
// shards canonically and merges per (policy, mode) group, so the
// mmr-sketch artifact bytes are independent of thread count and of the
// order runs finished in. Everything is off by default (set_obs_enabled)
// and costs nothing when disabled.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/provenance.h"
#include "model/entities.h"
#include "obs/heavy_hitters.h"
#include "obs/sketch.h"
#include "obs/window.h"

namespace mmr {

/// Master switch; simulators only ingest while enabled.
bool obs_enabled();
void set_obs_enabled(bool enabled);

struct ObsConfig {
  double alpha = 0.01;               ///< sketch relative-error bound
  std::uint32_t max_buckets = 2048;  ///< per-metric sketch span
  std::uint32_t window_buckets = 512;  ///< per-window cell sketch span
  std::uint32_t hot_capacity = 64;   ///< heavy-hitter entries
  /// Base SLO window width [s]; past kDefaultMaxWindows windows the width
  /// doubles and windows fold pairwise (exactly), bounding memory, the
  /// artifact and the cost of collection.
  double window_s = 60.0;
  SloConfig slo;
};

/// Config applied to shards created AFTER the call; set it before enabling.
ObsConfig obs_config();
void set_obs_config(const ObsConfig& config);

/// One simulate call's worth of telemetry, tagged for canonical merging.
struct ObsShard {
  explicit ObsShard(const ObsConfig& config);

  void observe(PageId page, ServerId server, double t, double response_s,
               double stretch_x, double miss_cost_s);
  void merge(const ObsShard& other);
  std::size_t approx_bytes() const;

  std::uint64_t run = 0;    ///< provenance_run_or_zero() at creation
  std::string policy;       ///< current_metric_label() at creation
  FlightMode mode = FlightMode::kStatic;
  std::uint64_t requests = 0;
  QuantileSketch response;
  QuantileSketch stretch;
  SpaceSavingTracker hot;
  WindowedAggregator windows;
};

/// Thread-safe shard sink. Shards are appended by simulate calls (cheap:
/// one move under the mutex per call) and merged at snapshot time.
class ObsLog {
 public:
  void add(ObsShard&& shard);
  void clear();
  std::size_t size() const;        ///< shards currently held
  std::uint64_t dropped() const;   ///< shards rejected past the cap
  void set_max_shards(std::size_t max_shards);

  /// Shards sorted by (policy, mode, run) and merged per (policy, mode)
  /// group — the canonical order that makes artifact bytes independent of
  /// thread count. The returned shards' `run` is the group's smallest run.
  std::vector<ObsShard> snapshot() const;

 private:
  struct Impl;
  Impl& impl() const;
};

ObsLog& global_obs_log();

/// Merges every group in `groups` into one summary pair; returns false when
/// there is nothing to merge. Used for the overall gauges and CLI table.
bool merge_obs_groups(const std::vector<ObsShard>& groups,
                      QuantileSketch* response_out,
                      QuantileSketch* stretch_out);

/// Sets the main-thread obs.* gauges (obs.response_p50/p95/p99/p999,
/// obs.stretch_p50/p95/p99/p999, obs.requests) from the global log's merged
/// snapshot. Call from the MAIN thread only, after the measured work, so
/// the gauges land deterministically in metrics/bench artifacts. No-op when
/// the log is empty.
void set_obs_gauges();

}  // namespace mmr
