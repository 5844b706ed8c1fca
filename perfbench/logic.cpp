#include "logic.h"

#include <algorithm>
#include <cmath>

#include "io/benchfmt.h"
#include "util/check.h"

namespace perfbench {

namespace {

std::uint64_t end_ns(const mmr::TraceEvent& e) { return e.start_ns + e.dur_ns; }

bool contains(const mmr::TraceEvent& outer, const mmr::TraceEvent& inner) {
  return outer.start_ns <= inner.start_ns && end_ns(inner) <= end_ns(outer);
}

/// Non-async event indices, sorted so that a parent precedes its children:
/// by start, then longest first, then input order.
std::vector<std::size_t> nesting_order(
    const std::vector<mmr::TraceEvent>& events) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].async_id == 0) order.push_back(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (events[a].start_ns != events[b].start_ns) {
                       return events[a].start_ns < events[b].start_ns;
                     }
                     return events[a].dur_ns > events[b].dur_ns;
                   });
  return order;
}

}  // namespace

std::vector<std::uint64_t> self_times_ns(
    const std::vector<mmr::TraceEvent>& events, std::uint32_t main_tid) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::vector<std::size_t> order = nesting_order(events);

  // Same-thread parents from a per-thread stack of open spans.
  std::vector<std::size_t> parent(events.size(), kNone);
  std::map<std::uint32_t, std::vector<std::size_t>> open;
  for (const std::size_t i : order) {
    std::vector<std::size_t>& stack = open[events[i].tid];
    while (!stack.empty() && !contains(events[stack.back()], events[i])) {
      stack.pop_back();
    }
    if (!stack.empty()) parent[i] = stack.back();
    stack.push_back(i);
  }

  // A worker thread's roots hang off the innermost containing main span;
  // `order` visits containing spans outer to inner, so the last hit wins.
  for (const std::size_t i : order) {
    if (parent[i] != kNone || events[i].tid == main_tid) continue;
    for (const std::size_t m : order) {
      if (events[m].start_ns > events[i].start_ns) break;
      if (events[m].tid == main_tid && contains(events[m], events[i])) {
        parent[i] = m;
      }
    }
  }

  std::vector<std::vector<std::size_t>> children(events.size());
  for (const std::size_t i : order) {
    if (parent[i] != kNone) children[parent[i]].push_back(i);
  }

  std::vector<std::uint64_t> self(events.size(), 0);
  for (const std::size_t i : order) {
    const mmr::TraceEvent& p = events[i];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
    for (const std::size_t c : children[i]) {
      spans.emplace_back(std::max(events[c].start_ns, p.start_ns),
                         std::min(end_ns(events[c]), end_ns(p)));
    }
    std::sort(spans.begin(), spans.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = p.start_ns;  // end of the union so far
    for (const auto& [lo, hi] : spans) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[i] = p.dur_ns - std::min(covered, p.dur_ns);
  }
  return self;
}

std::vector<std::map<std::string, double>> self_seconds_per_window(
    const std::vector<mmr::TraceEvent>& events, std::uint32_t main_tid,
    const std::string& window) {
  const std::vector<std::uint64_t> self = self_times_ns(events, main_tid);
  std::vector<std::map<std::string, double>> out;
  for (const std::size_t w : nesting_order(events)) {
    if (events[w].tid != main_tid || events[w].name != window) continue;
    std::map<std::string, double>& sums = out.emplace_back();
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].async_id == 0 && contains(events[w], events[i])) {
        sums[events[i].name] += static_cast<double>(self[i]) * 1e-9;
      }
    }
  }
  return out;
}

TailQuantile tail_quantile(std::uint64_t n, std::uint64_t min_beyond) {
  MMR_CHECK_MSG(min_beyond > 0, "tail quantile needs min_beyond >= 1");
  // Quantile 1 - 10^-k sits at index (n-1) - (n-1)/10^k, so exactly
  // ceil((n-1) / 10^k) samples lie strictly beyond it.
  TailQuantile best;
  std::uint64_t scale = 1;
  for (int k = 1; k <= 18; ++k) {
    scale *= 10;
    const std::uint64_t beyond = n == 0 ? 0 : (n - 1 + scale - 1) / scale;
    if (beyond < min_beyond) break;
    best.q = 1.0 - std::pow(10.0, -k);
    best.beyond = beyond;
  }
  MMR_CHECK_MSG(best.beyond > 0, "too few samples for a tail quantile: "
                                     << n << " samples, need "
                                     << min_beyond << " beyond p90");
  return best;
}

double calibrated_rate_scale(double pilot_scale, double pilot_rho_repo,
                             double pilot_rho_server, double target_rho) {
  MMR_CHECK_MSG(pilot_scale > 0, "pilot arrival-rate scale must be > 0");
  MMR_CHECK_MSG(target_rho > 0 && target_rho < 1,
                "target utilisation must be in (0, 1), got " << target_rho);
  const double busiest = std::max(pilot_rho_repo, pilot_rho_server);
  MMR_CHECK_MSG(busiest > 0, "pilot run put no load on any station");
  MMR_CHECK_MSG(busiest < kPilotMaxRho,
                "pilot run is too loaded to extrapolate: busiest station "
                "utilisation "
                    << busiest << " >= " << kPilotMaxRho);
  return pilot_scale * target_rho / busiest;
}

void Tally::add(std::uint64_t attempted_ops, std::uint64_t failed_ops) {
  MMR_CHECK_MSG(failed_ops <= attempted_ops,
                "failed " << failed_ops << " of only " << attempted_ops
                          << " attempted operations");
  attempted += attempted_ops;
  failed += failed_ops;
}

double Tally::failed_frac() const {
  MMR_CHECK_MSG(attempted > 0, "failed_frac of zero attempted operations");
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

double robust_median(const std::vector<double>& samples) {
  MMR_CHECK_MSG(!samples.empty(), "median of no samples");
  return mmr::compute_bench_stats(samples, 0).p50;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
