#include "report.h"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/check.h"
#include "util/json.h"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"run_s", "s"},
      {"solve_s", "s"},          {"objective_ratio", "1"},
      {"download_ratio", "1"},   {"peak_rss_bytes", "bytes"},
      {"ok_frac", "1"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"trace.overhead", "x"},
        {"failed_frac", "1"},
        {"workload.gen_s", "s"},
        {"core.partition_s", "s"},
        {"core.storage_restore_s", "s"},
        {"core.processing_restore_s", "s"},
        {"core.offload_s", "s"},
        {"core.storage_restore.deallocations", "count"},
        {"core.storage_restore.repartitioned_pages", "count"},
        {"core.storage_restore.repartition_improvements", "count"},
        {"core.storage_restore.useful_frac", "1"},
        {"core.offload.rounds", "count"},
        {"core.offload.slots_absorbed", "count"},
        {"core.offload.swaps", "count"},
        {"core.speedup", "x"},
        {"model.tracked_peak_bytes", "bytes"},
        {"des.servers_s", "s"},
        {"des.repository_s", "s"},
        {"des.score_s", "s"},
        {"des.events_per_s", "1/s"},
        {"des.requests_per_s", "1/s"},
        {"des.speedup", "x"},
        {"des.rho_repo", "1"},
        {"des.rho_server", "1"},
        {"des.repo_queue_peak", "count"},
        {"des.queue_peak", "count"},
        {"des.wait_mean_s", "s"},
        {"des.redirect_frac", "1"},
        {"des.sojourn_p50_s", "s"},
        {"des.sojourn_tail_s", "s"},
        {"des.sojourn_tail_q", "1"},
        {"des.sojourn_tail_beyond", "count"},
        {"sim.simulate_s", "s"},
        {"sim.simulate_lru_s", "s"},
        {"runner.run_single_s", "s"},
        {"baselines.lru_hit_ratio", "1"},
        {"baselines.download_lru_s", "s"},
        {"obs.ns_per_event", "ns"},
        {"obs.dropped", "count"},
        {"io.artifact_bytes", "bytes"},
    };
    // Artifact families: bytes, write and strict re-read per family.
    for (const char* family : {"audit", "flight", "sketch", "timeseries",
                               "invariants", "trace", "metrics"}) {
      const std::string base = std::string("io.") + family;
      s.push_back({base + "_bytes", "bytes"});
      s.push_back({base + ".write_s", "s"});
      s.push_back({base + ".parse_s", "s"});
    }
    return s;
  }();
  return specs;
}

Report::Report(std::string workload, bool traced)
    : workload_(std::move(workload)), traced_(traced) {}

const std::vector<MetricSpec>& Report::catalog() const {
  return traced_ ? per_layer_metrics() : end_to_end_metrics();
}

void Report::set(const std::string& name, double value) {
  for (const MetricSpec& spec : catalog()) {
    if (name == spec.name) {
      values_[name] = value;
      return;
    }
  }
  MMR_CHECK_MSG(false, "metric " << name << " is not in the "
                                 << (traced_ ? "per-layer" : "end-to-end")
                                 << " catalog");
}

void Report::info(const std::string& name, double value,
                  const std::string& unit) {
  info_.push_back({name, value, unit});
}

void Report::check(const std::string& what, bool ok,
                   const std::string& detail) {
  checks_.push_back({what, ok, detail});
}

bool Report::correct() const {
  for (const Check& c : checks_) {
    if (!c.ok) return false;
  }
  return !checks_.empty();
}

void Report::print_table(std::ostream& os) const {
  const auto row = [&](const std::string& name, const std::string& value,
                       const std::string& unit) {
    os << "  " << std::left << std::setw(48) << name << std::right
       << std::setw(22) << value << "  " << unit << "\n";
  };
  const auto num = [](double v) {
    std::ostringstream s;
    s << std::setprecision(6) << v;
    return s.str();
  };
  os << "== " << workload_ << (traced_ ? " (traced)" : "") << " ==\n";
  for (const MetricSpec& spec : catalog()) {
    const auto it = values_.find(spec.name);
    row(spec.name, it == values_.end() ? "bypassed" : num(it->second),
        spec.unit);
  }
  for (const Info& i : info_) row(i.name, num(i.value), i.unit);
  os << "  operations: " << ops_.attempted << " attempted, " << ops_.failed
     << " failed\n";
  for (const Check& c : checks_) {
    os << "  check " << (c.ok ? "ok  " : "FAIL") << "  " << c.what;
    if (!c.detail.empty()) os << " (" << c.detail << ")";
    os << "\n";
  }
}

void Report::print_json_line(std::ostream& os) const {
  std::ostringstream line;
  mmr::JsonWriter w(line);
  w.begin_object();
  w.kv("correct", correct());
  w.kv("attempted", static_cast<std::uint64_t>(ops_.attempted));
  w.kv("failed", static_cast<std::uint64_t>(ops_.failed));
  w.key("metrics").begin_object();
  for (const MetricSpec& spec : catalog()) {
    const auto it = values_.find(spec.name);
    MMR_CHECK_MSG(traced_ || it != values_.end(),
                  "end-to-end metric " << spec.name << " was not measured");
    w.key(spec.name).begin_object();
    w.kv("value", it == values_.end() ? 0.0 : it->second);
    w.kv("unit", spec.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  os << line.str() << "\n";
}

}  // namespace perfbench
