// Queue-dynamics time series for the discrete-event simulator
// (docs/OBSERVABILITY.md "Watching the queues").
//
// The DES end-of-run aggregates (sim/des.h DesMetrics) say *how much*
// queueing happened; this module records *when and where*: per station
// (every site server plus the repository), virtual time is cut into
// windows that coarsen under a cell cap (obs/capped_windows.h), and each
// window accumulates queue-depth samples taken at event
// boundaries, busy time spread over the windows a service interval
// overlaps, in-flight high-water marks and arrival/served/redirected/
// rejected counts. Alongside the windows, each station keeps the exact
// conservation totals the invariant auditor (obs/invariants.h) needs:
// the occupancy time-integral ∫(queue + in-service) dt, the summed
// time-in-station of admitted jobs, and a virtual-time monotonicity
// violation count.
//
// Determinism follows the obs/sketch discipline: one TimeseriesShard per
// simulate call, tagged (run, policy, mode). Inside a shard every station
// is filled by exactly one deterministic event loop (phase A owns each
// server wholly; phase B fills the repository row sequentially), so no
// cross-thread merge ever happens mid-run; TimeseriesLog::snapshot() sorts
// shards canonically and merges per (policy, mode) group, making the
// mmr-timeseries artifact bytes identical at any shard × thread count.
// Everything is off by default (set_timeseries_enabled) and costs nothing
// when disabled.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "io/artifacts.h"
#include "io/jsonl.h"
#include "io/provenance.h"
#include "obs/capped_windows.h"
#include "util/json.h"

namespace mmr {

/// Master switch; the DES only collects while enabled.
bool timeseries_enabled();
void set_timeseries_enabled(bool enabled);

struct TimeseriesConfig {
  double window_s = 60.0;  ///< base (minimum) virtual-time window width [s]
  /// Per-station cell cap. When a station's virtual time outgrows
  /// max_windows cells, its window width doubles and adjacent cells fold
  /// pairwise (sums add, maxima max — exact, nothing is lost), so memory,
  /// artifact size and collection cost stay bounded no matter how long the
  /// simulated horizon runs. 0 disables coarsening (fixed window_s).
  std::uint64_t max_windows = kDefaultMaxWindows;
};

/// Config applied to shards created AFTER the call; set it before enabling.
TimeseriesConfig timeseries_config();
void set_timeseries_config(const TimeseriesConfig& config);

/// Station id of the repository row in the artifact (site servers are their
/// ServerId); matches the audit headroom convention of serializing R as -1.
inline constexpr std::int32_t kRepositoryStation = -1;

/// One occupied virtual-time window of one station.
struct TsCell {
  std::uint64_t arrivals = 0;    ///< jobs offered in this window
  std::uint64_t served = 0;      ///< service completions in this window
  std::uint64_t redirected = 0;  ///< overflow → repository wholesale
  std::uint64_t rejected = 0;    ///< overflow → dropped
  std::uint64_t depth_samples = 0;
  double depth_sum = 0;          ///< Σ queue depth over the samples
  std::uint32_t depth_max = 0;
  std::uint32_t inflight_max = 0;  ///< max jobs in service
  double busy_s = 0;             ///< service time overlapping this window

  /// Coarsening fold: sums add, maxima max.
  void fold(const TsCell& o) {
    arrivals += o.arrivals;
    served += o.served;
    redirected += o.redirected;
    rejected += o.rejected;
    depth_samples += o.depth_samples;
    depth_sum += o.depth_sum;
    depth_max = std::max(depth_max, o.depth_max);
    inflight_max = std::max(inflight_max, o.inflight_max);
    busy_s += o.busy_s;
  }
};

/// One station's windowed series plus exact conservation totals. All
/// mutators must be called in nondecreasing virtual time (backwards steps
/// are tolerated and counted in time_violations — the auditor's monotone-
/// time law). The windows are a CappedWindows<TsCell> (obs/capped_windows.h):
/// a hot-cell cache, and auto-coarsening under `max_windows` cells. On top
/// of it this class keeps only the busy-spread scratch and the conservation
/// totals.
class StationSeries {
 public:
  void reset(double window_s, std::uint64_t max_windows = 0) {
    *this = StationSeries();
    windows_ =
        CappedWindows<TsCell>(window_s > 0 ? window_s : 1.0, max_windows);
  }

  /// A job was offered to the station at time t (admitted or not).
  void on_arrival(double t) {
    ++cell(t).arrivals;
    ++arrivals;
  }
  void on_redirected(double t) {
    ++cell(t).redirected;
    ++redirected;
  }
  void on_rejected(double t) {
    ++cell(t).rejected;
    ++rejected;
  }
  /// One service completion at time t.
  void on_served(double t) {
    ++cell(t).served;
    ++served;
  }

  /// An admitted job entered service: `time_in_station` is its queue wait
  /// plus effective service — Little's law's per-job W contribution.
  void on_admitted(double time_in_station) {
    ++admitted;
    time_in_station_s += time_in_station;
  }

  /// Spreads one service interval [start, end) over the windows it overlaps
  /// (utilization numerator per window). O(1) no matter how many windows
  /// the interval spans: only the partial head window (usually the current,
  /// cache-hot cell) is charged immediately; the tail partial and the count
  /// of fully covered interiors land in flat per-window scratch vectors —
  /// plain array stores, no tree walk, no allocation — and are materialized
  /// into busy_s when the cells are read, folded or merged.
  void on_service(double start, double end) {
    if (end <= start) return;
    fit(end);
    const std::uint64_t w = windows_.window_of(start);
    spread_from(windows_.cell_at(w), w, start, end);
  }

  /// Depth sample at an event boundary; also advances the occupancy
  /// time-integral from the previous event. `queue_len` and `in_service`
  /// must partition the station's occupancy (for quasi-PS the caller splits
  /// total occupancy into the slot count and the excess).
  void sample(double t, std::uint32_t queue_len, std::uint32_t in_service) {
    sample_into(cell(t), t, queue_len, in_service);
  }

  // Fused per-event mutators. Each covers one whole DES event with a single
  // window lookup instead of one per granular call — on the event-loop hot
  // path the bucketing (double→index convert plus hot-cell check) costs as
  // much as the counter updates themselves, so collapsing an event's 2–4
  // granular calls into one roughly halves collection overhead. Every fused
  // call updates exactly the same fields as the granular sequence named in
  // its comment; the depth sample is last, matching the caller's
  // read-station-after-mutation order.

  /// on_arrival + sample (job offered and queued, or no slot taken).
  void on_arrival_sampled(double t, std::uint32_t queue_len,
                          std::uint32_t in_service) {
    TsCell& c = cell(t);
    ++c.arrivals;
    ++arrivals;
    sample_into(c, t, queue_len, in_service);
  }
  /// on_arrival + on_redirected + sample (overflow → repository).
  void on_arrival_redirected_sampled(double t, std::uint32_t queue_len,
                                     std::uint32_t in_service) {
    TsCell& c = cell(t);
    ++c.arrivals;
    ++arrivals;
    ++c.redirected;
    ++redirected;
    sample_into(c, t, queue_len, in_service);
  }
  /// on_arrival + on_rejected + sample (overflow → dropped).
  void on_arrival_rejected_sampled(double t, std::uint32_t queue_len,
                                   std::uint32_t in_service) {
    TsCell& c = cell(t);
    ++c.arrivals;
    ++arrivals;
    ++c.rejected;
    ++rejected;
    sample_into(c, t, queue_len, in_service);
  }
  /// on_arrival + on_admitted(done−t) + on_service(t, done) + sample: a job
  /// that started service the instant it arrived.
  void on_arrival_started_sampled(double t, double done,
                                  std::uint32_t queue_len,
                                  std::uint32_t in_service) {
    fit(done >= t ? done : t);
    const std::uint64_t w = windows_.window_of(t);
    TsCell& c = windows_.cell_at(w);
    ++c.arrivals;
    ++arrivals;
    ++admitted;
    time_in_station_s += done - t;
    if (done > t) spread_from(c, w, t, done);
    sample_into(c, t, queue_len, in_service);
  }
  /// on_admitted(wait + done−t) + on_service(t, done): a queued job popped
  /// into a freed slot at t (no sample — the caller samples after the whole
  /// completion event settles).
  void on_started(double t, double wait, double done) {
    ++admitted;
    time_in_station_s += wait + (done - t);
    if (done > t) {
      fit(done);
      const std::uint64_t w = windows_.window_of(t);
      spread_from(windows_.cell_at(w), w, t, done);
    }
  }
  /// on_served + sample (completion with no queued successor).
  void on_served_sampled(double t, std::uint32_t queue_len,
                         std::uint32_t in_service) {
    TsCell& c = cell(t);
    ++c.served;
    ++served;
    sample_into(c, t, queue_len, in_service);
  }
  /// on_admitted(wait + done−t) + on_service(t, done) + on_served + sample:
  /// a completion at t that hands the slot straight to a queued job.
  void on_complete_started_sampled(double t, double wait, double done,
                                   std::uint32_t queue_len,
                                   std::uint32_t in_service) {
    fit(done >= t ? done : t);
    const std::uint64_t w = windows_.window_of(t);
    TsCell& c = windows_.cell_at(w);
    ++admitted;
    time_in_station_s += wait + (done - t);
    if (done > t) spread_from(c, w, t, done);
    ++c.served;
    ++served;
    sample_into(c, t, queue_len, in_service);
  }

  /// Sums another station's series into this one. Widths may differ by a
  /// power of two (both grew from the same base by coarsening): the finer
  /// side folds to the coarser width first. Throws on any other ratio.
  void merge(const StationSeries& other);

  /// Current width: the reset() base doubled once per coarsening fold.
  double window_s() const { return windows_.window_s(); }
  std::uint64_t max_windows() const { return windows_.max_windows(); }
  double last_t() const { return last_t_; }
  /// Settles the pending busy scratch into busy_s first, so readers always
  /// see fully materialized cells.
  const std::map<std::uint64_t, TsCell>& cells() const {
    materialize();
    return windows_.cells();
  }
  std::size_t approx_bytes() const;

  // Conservation totals (read by the auditor and the artifact writer).
  std::uint64_t arrivals = 0;
  std::uint64_t served = 0;
  std::uint64_t redirected = 0;
  std::uint64_t rejected = 0;
  std::uint64_t admitted = 0;          ///< jobs that entered service
  double occupancy_area_s = 0;         ///< ∫ occupancy dt (Little's L·T)
  double time_in_station_s = 0;        ///< Σ per-job wait + service (λW·T)
  double busy_spread_s = 0;            ///< Σ intervals given to on_service
  std::uint64_t time_violations = 0;   ///< backwards virtual-time steps

 private:
  /// Coarsens until instant t fits under the cap, settling the busy scratch
  /// (indexed at the current width) before the first fold.
  void fit(double t) {
    if (windows_.fits(t)) return;
    materialize();
    windows_.fit(t);
  }
  /// Flushes the busy scratch vectors: each window gains its deferred tail
  /// partial plus covering-count × width of busy time. O(scratch size),
  /// and a no-op when nothing is pending. Logically const — it only settles
  /// deferred bookkeeping — hence the mutable members below.
  void materialize() const;
  /// Core of sample(): the occupancy integral plus depth stats into an
  /// already-located cell.
  void sample_into(TsCell& c, double t, std::uint32_t queue_len,
                   std::uint32_t in_service) {
    if (t < last_t_) {
      ++time_violations;
    } else {
      occupancy_area_s += (t - last_t_) * static_cast<double>(prev_occupancy_);
      last_t_ = t;
    }
    prev_occupancy_ = queue_len + in_service;
    ++c.depth_samples;
    c.depth_sum += queue_len;
    if (queue_len > c.depth_max) c.depth_max = queue_len;
    if (in_service > c.inflight_max) c.inflight_max = in_service;
  }
  /// Core of on_service(): spread [start, end) given the head cell `c` for
  /// window w = window_of(start). Requires end > start and fit(end) done.
  void spread_from(TsCell& c, std::uint64_t w, double start, double end) {
    busy_spread_s += end - start;
    const std::uint64_t w_end = windows_.window_of(end);
    if (w == w_end) {
      c.busy_s += end - start;
      return;
    }
    const double width = windows_.window_s();
    c.busy_s += static_cast<double>(w + 1) * width - start;
    ensure_busy_scratch(w_end);
    // An interval ending exactly on a boundary leaves nothing for the
    // trailing window; materialize() skips zero entries so no empty cell
    // appears for it.
    busy_tail_[w_end] += end - static_cast<double>(w_end) * width;
    if (w_end > w + 1) {
      ++busy_cover_[w + 1];
      --busy_cover_[w_end];
    }
  }
  /// Grows the scratch vectors (geometrically, clamped to the cell cap) so
  /// index w is addressable. fit() has already bounded w below the cap.
  void ensure_busy_scratch(std::uint64_t w) {
    if (w < busy_tail_.size()) return;
    std::size_t n = std::max<std::size_t>(
        static_cast<std::size_t>(w) + 1, busy_tail_.size() * 2);
    const std::uint64_t cap = windows_.max_windows();
    if (cap != 0 && n > cap) n = static_cast<std::size_t>(cap);
    busy_tail_.resize(n, 0.0);
    busy_cover_.resize(n, 0);
  }
  TsCell& cell(double t) {
    fit(t);
    return windows_.cell_at(windows_.window_of(t));
  }

  mutable CappedWindows<TsCell> windows_;
  /// Deferred busy time, indexed by window: tail partials of spread service
  /// intervals, and ±1 interior-coverage deltas (+1 at the first fully
  /// covered window, −1 one past the last; prefix-summed on materialize).
  mutable std::vector<double> busy_tail_;
  mutable std::vector<std::int64_t> busy_cover_;
  double last_t_ = 0;
  std::uint32_t prev_occupancy_ = 0;
};

/// One DES simulate call's worth of queue dynamics: per-station series
/// (stations[0..n-1] are the site servers, stations[n] the repository) plus
/// the run-level flow totals the invariant auditor cross-checks.
struct TimeseriesShard {
  TimeseriesShard(const TimeseriesConfig& config, std::uint32_t num_servers);

  /// Site-server rows; the repository is the last element.
  StationSeries& server(std::uint32_t i) { return stations[i]; }
  StationSeries& repository() { return stations.back(); }
  const StationSeries& repository() const { return stations.back(); }
  std::uint32_t num_servers() const {
    return static_cast<std::uint32_t>(stations.size()) - 1;
  }

  /// Sums `other` into this shard (same station count and window width).
  void merge(const TimeseriesShard& other);
  std::size_t approx_bytes() const;

  std::uint64_t run = 0;    ///< provenance_run_or_zero() at creation
  std::string policy;       ///< current_metric_label() at creation
  FlightMode mode = FlightMode::kDes;
  double window_s = 60.0;  ///< configured base width; stations may coarsen
  std::uint64_t runs = 1;   ///< simulate calls merged into this shard
  std::uint32_t server_concurrency = 0;  ///< slots per site station
  std::uint32_t repo_concurrency = 0;
  double horizon_s = 0;     ///< Σ per-run horizons (utilization denominator)

  // Run-level DES totals (DesMetrics), for the flow-conservation law.
  std::uint64_t des_arrivals = 0;
  std::uint64_t des_completions = 0;
  std::uint64_t des_rejects = 0;
  std::uint64_t des_redirects = 0;
  double des_server_busy_s = 0;
  double des_repo_busy_s = 0;

  std::vector<StationSeries> stations;
};

/// Thread-safe shard sink; same add/snapshot contract as ObsLog. Held bytes
/// are charged to memacct's obs.timeseries category.
class TimeseriesLog {
 public:
  void add(TimeseriesShard&& shard);
  void clear();
  std::size_t size() const;
  std::uint64_t dropped() const;
  void set_max_shards(std::size_t max_shards);

  /// Shards sorted by (policy, mode, run) and merged per (policy, mode)
  /// group — the canonical order that makes artifact bytes independent of
  /// thread count. The returned shards' `run` is the group's smallest run.
  std::vector<TimeseriesShard> snapshot() const;

 private:
  struct Impl;
  Impl& impl() const;
};

TimeseriesLog& global_timeseries_log();

// ---------------------------------------------------------------------------
// mmr-timeseries artifact (schema in docs/FORMATS.md).

/// mmr-timeseries schema version the writer emits and the parser accepts.
inline constexpr int kTimeseriesVersion = 1;

void write_timeseries_jsonl(std::ostream& os,
                            const std::vector<TimeseriesShard>& groups,
                            const TimeseriesConfig& config,
                            std::uint64_t dropped, const RunMeta& meta);

/// Snapshots the global log and writes it; creates/truncates `path`.
void write_timeseries_file(const std::string& path, const TimeseriesLog& log,
                           const RunMeta& meta);

/// Parsed mmr-timeseries document; `events` holds every record line.
struct TimeseriesDoc : JsonlDoc {
  double window_s = 0;  ///< the header's base window width
};

/// Strict parse: the io/jsonl.h envelope and record fields, then per-station
/// window widths and ordering, and that each station's window counts sum to
/// its totals line. Throws CheckError on violation.
TimeseriesDoc parse_timeseries_jsonl(const std::string& text);
TimeseriesDoc read_timeseries_file(const std::string& path);

}  // namespace mmr
