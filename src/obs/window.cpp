#include "obs/window.h"

#include <algorithm>
#include <cstdlib>

#include "util/check.h"

namespace mmr {

namespace {

double burn_rate(std::uint64_t good, std::uint64_t total, double target) {
  if (total == 0) return 0.0;
  const double attainment =
      static_cast<double>(good) / static_cast<double>(total);
  return (1.0 - attainment) / (1.0 - target);
}

}  // namespace

SloConfig parse_slo_spec(const std::string& spec) {
  std::string s = spec;
  std::replace(s.begin(), s.end(), ':', ',');
  SloConfig cfg;
  double* fields[3] = {&cfg.response_s, &cfg.stretch_x, &cfg.target};
  std::size_t pos = 0;
  for (int i = 0; i < 3; ++i) {
    const std::size_t next = s.find(',', pos);
    const bool last = i == 2;
    MMR_CHECK_MSG(last == (next == std::string::npos),
                  "--slo expects RESP_S,STRETCH_X,TARGET, got '" + spec +
                      "'");
    const std::string field =
        s.substr(pos, last ? std::string::npos : next - pos);
    char* end = nullptr;
    *fields[i] = std::strtod(field.c_str(), &end);
    MMR_CHECK_MSG(end != field.c_str() && *end == '\0',
                  "bad number '" + field + "' in --slo spec '" + spec + "'");
    pos = next + 1;
  }
  MMR_CHECK_MSG(cfg.response_s > 0.0, "SLO response threshold must be > 0");
  MMR_CHECK_MSG(cfg.stretch_x >= 1.0, "SLO stretch threshold must be >= 1");
  MMR_CHECK_MSG(cfg.target >= 0.0 && cfg.target < 1.0,
                "SLO target must be in [0, 1)");
  return cfg;
}

WindowedAggregator::WindowedAggregator(double window_s, SloConfig slo,
                                       double alpha,
                                       std::uint32_t sketch_buckets)
    : slo_(slo),
      windows_(window_s, kDefaultMaxWindows,
               WindowCell(alpha, sketch_buckets)) {
  MMR_CHECK_MSG(window_s > 0.0, "window width must be > 0");
  MMR_CHECK_MSG(slo.target >= 0.0 && slo.target < 1.0,
                "SLO target must be in [0, 1)");
}

void WindowedAggregator::count(WindowCell& cell, double response_s,
                               double stretch_x) {
  ++cell.total;
  if (response_s <= slo_.response_s && stretch_x <= slo_.stretch_x) {
    ++cell.good;
  }
  ++total_;
}

void WindowedAggregator::observe(double t, double response_s,
                                 double stretch_x) {
  WindowCell& cell = windows_.cell(t);
  cell.response.add(response_s);
  count(cell, response_s, stretch_x);
}

void WindowedAggregator::observe_indexed(double t, double response_s,
                                         std::int32_t response_index,
                                         double stretch_x) {
  WindowCell& cell = windows_.cell(t);
  cell.response.add_indexed(response_s, response_index);
  count(cell, response_s, stretch_x);
}

void WindowedAggregator::merge(const WindowedAggregator& other) {
  MMR_CHECK_MSG(slo_.response_s == other.slo_.response_s &&
                    slo_.stretch_x == other.slo_.stretch_x &&
                    slo_.target == other.slo_.target,
                "cannot merge aggregators with different SLO config");
  windows_.merge(other.windows_);
  total_ += other.total_;
}

SloReport WindowedAggregator::evaluate() const {
  SloReport report;
  report.window_s = windows_.window_s();
  for (const auto& [index, cell] : windows_.cells()) {
    SloWindowRow row;
    row.index = index;
    row.t_start_s = static_cast<double>(index) * report.window_s;
    row.total = cell.total;
    row.good = cell.good;
    row.attainment =
        cell.total == 0
            ? 1.0
            : static_cast<double>(cell.good) / static_cast<double>(cell.total);
    row.burn = burn_rate(cell.good, cell.total, slo_.target);
    row.p99_s = cell.response.empty() ? 0.0 : cell.response.quantile(0.99);
    report.total += cell.total;
    report.good += cell.good;
    report.worst_burn_1 = std::max(report.worst_burn_1, row.burn);
    report.windows.push_back(row);
  }
  report.attainment = report.total == 0
                          ? 1.0
                          : static_cast<double>(report.good) /
                                static_cast<double>(report.total);
  // Worst burn over any 6 consecutive window indices; windows with no
  // traffic contribute nothing to either counter (no traffic, no burn).
  for (std::size_t i = 0; i < report.windows.size(); ++i) {
    const std::uint64_t first = report.windows[i].index;
    std::uint64_t good = 0, total = 0;
    for (std::size_t j = i;
         j < report.windows.size() && report.windows[j].index < first + 6;
         ++j) {
      good += report.windows[j].good;
      total += report.windows[j].total;
    }
    report.worst_burn_6 =
        std::max(report.worst_burn_6, burn_rate(good, total, slo_.target));
  }
  return report;
}

std::size_t WindowedAggregator::approx_bytes() const {
  std::size_t bytes = sizeof(*this) + windows_.node_bytes();
  for (const auto& [index, cell] : windows_.cells()) {
    bytes += cell.response.approx_bytes() - sizeof(QuantileSketch);
  }
  return bytes;
}

}  // namespace mmr
