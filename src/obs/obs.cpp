#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <tuple>

#include "util/check.h"
#include "util/memacct.h"
#include "util/metrics.h"

namespace mmr {

namespace {

std::atomic<bool> g_obs_enabled{false};

std::mutex& config_mutex() {
  static std::mutex* m = new std::mutex();
  return *m;
}

ObsConfig& mutable_config() {
  static ObsConfig* cfg = new ObsConfig();
  return *cfg;
}

}  // namespace

bool obs_enabled() {
  return g_obs_enabled.load(std::memory_order_relaxed);
}

void set_obs_enabled(bool enabled) {
  g_obs_enabled.store(enabled, std::memory_order_relaxed);
}

ObsConfig obs_config() {
  std::lock_guard<std::mutex> lock(config_mutex());
  return mutable_config();
}

void set_obs_config(const ObsConfig& config) {
  MMR_CHECK_MSG(config.window_s > 0, "SLO window_s must be > 0");
  std::lock_guard<std::mutex> lock(config_mutex());
  mutable_config() = config;
}

ObsShard::ObsShard(const ObsConfig& config)
    : response(config.alpha, config.max_buckets),
      stretch(config.alpha, config.max_buckets),
      hot(config.hot_capacity),
      windows(config.window_s, config.slo, config.alpha,
              config.window_buckets) {}

void ObsShard::observe(PageId page, ServerId server, double t,
                       double response_s, double stretch_x,
                       double miss_cost_s) {
  ++requests;
  // The response value feeds two same-alpha sketches (the shard-global one
  // and the window cell's), so compute its log-bucket index once.
  const std::int32_t idx = response_s <= QuantileSketch::kMinTrackable
                               ? 0
                               : response.bucket_index(response_s);
  response.add_indexed(response_s, idx);
  stretch.add(stretch_x);
  hot.add(pack_hot_key(page, server), miss_cost_s);
  windows.observe_indexed(t, response_s, idx, stretch_x);
}

void ObsShard::merge(const ObsShard& other) {
  requests += other.requests;
  response.merge(other.response);
  stretch.merge(other.stretch);
  hot.merge(other.hot);
  windows.merge(other.windows);
}

std::size_t ObsShard::approx_bytes() const {
  return sizeof(*this) + policy.capacity() + response.approx_bytes() +
         stretch.approx_bytes() + hot.approx_bytes() +
         windows.approx_bytes();
}

struct ObsLog::Impl {
  mutable std::mutex mutex;
  std::vector<ObsShard> shards;
  std::uint64_t dropped = 0;
  std::uint64_t held_bytes = 0;
  std::size_t max_shards = 100000;
};

ObsLog::Impl& ObsLog::impl() const {
  // Leaked on purpose: the global log must outlive static destructors.
  static Impl* impl = new Impl();
  return *impl;
}

void ObsLog::add(ObsShard&& shard) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  if (i.shards.size() >= i.max_shards) {
    ++i.dropped;
    return;
  }
  const std::size_t bytes = shard.approx_bytes();
  memacct::charge(memacct::Category::kObsSketches, bytes);
  i.held_bytes += bytes;
  i.shards.push_back(std::move(shard));
}

void ObsLog::clear() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  memacct::release(memacct::Category::kObsSketches, i.held_bytes);
  i.held_bytes = 0;
  i.shards.clear();
  i.dropped = 0;
}

std::size_t ObsLog::size() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  return i.shards.size();
}

std::uint64_t ObsLog::dropped() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  return i.dropped;
}

void ObsLog::set_max_shards(std::size_t max_shards) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  i.max_shards = max_shards;
}

std::vector<ObsShard> ObsLog::snapshot() const {
  Impl& i = impl();
  std::vector<ObsShard> shards;
  {
    std::lock_guard<std::mutex> lock(i.mutex);
    shards = i.shards;
  }
  std::stable_sort(shards.begin(), shards.end(),
                   [](const ObsShard& a, const ObsShard& b) {
                     return std::tie(a.policy, a.mode, a.run) <
                            std::tie(b.policy, b.mode, b.run);
                   });
  std::vector<ObsShard> groups;
  for (ObsShard& shard : shards) {
    if (!groups.empty() && groups.back().policy == shard.policy &&
        groups.back().mode == shard.mode) {
      groups.back().merge(shard);
    } else {
      groups.push_back(std::move(shard));
    }
  }
  return groups;
}

ObsLog& global_obs_log() {
  static ObsLog* log = new ObsLog();
  return *log;
}

bool merge_obs_groups(const std::vector<ObsShard>& groups,
                      QuantileSketch* response_out,
                      QuantileSketch* stretch_out) {
  bool any = false;
  for (const ObsShard& g : groups) {
    if (g.requests == 0) continue;
    if (!any) {
      *response_out = g.response;
      *stretch_out = g.stretch;
      any = true;
    } else {
      response_out->merge(g.response);
      stretch_out->merge(g.stretch);
    }
  }
  return any;
}

void set_obs_gauges() {
  const std::vector<ObsShard> groups = global_obs_log().snapshot();
  const ObsConfig cfg = obs_config();
  QuantileSketch response(cfg.alpha, cfg.max_buckets);
  QuantileSketch stretch(cfg.alpha, cfg.max_buckets);
  if (!merge_obs_groups(groups, &response, &stretch)) return;
  MMR_GAUGE("obs.requests", static_cast<double>(response.count()));
  MMR_GAUGE("obs.response_p50", response.quantile(0.50));
  MMR_GAUGE("obs.response_p95", response.quantile(0.95));
  MMR_GAUGE("obs.response_p99", response.quantile(0.99));
  MMR_GAUGE("obs.response_p999", response.quantile(0.999));
  MMR_GAUGE("obs.stretch_p50", stretch.quantile(0.50));
  MMR_GAUGE("obs.stretch_p95", stretch.quantile(0.95));
  MMR_GAUGE("obs.stretch_p99", stretch.quantile(0.99));
  MMR_GAUGE("obs.stretch_p999", stretch.quantile(0.999));
}

}  // namespace mmr
