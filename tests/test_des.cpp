#include "sim/des.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/static_policies.h"
#include "io/provenance.h"
#include "obs/invariants.h"
#include "obs/obs.h"
#include "obs/sketch_artifact.h"
#include "obs/timeseries.h"
#include "sim/queueing.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "workload/generator.h"

namespace mmr {
namespace {

DesParams fast_params() {
  DesParams p;
  p.requests_per_server = 400;
  return p;
}

/// A workload wide enough that 8 shards are non-trivial.
SystemModel wide_workload(std::uint64_t seed) {
  WorkloadParams wp = testing::small_params();
  wp.num_servers = 10;
  return generate_workload(wp, seed);
}

void expect_identical(const DesMetrics& a, const DesMetrics& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.rejects, b.rejects);
  EXPECT_EQ(a.redirects, b.redirects);
  EXPECT_EQ(a.optional_fetches, b.optional_fetches);
  EXPECT_EQ(a.optional_rejects, b.optional_rejects);
  EXPECT_EQ(a.repo_jobs, b.repo_jobs);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.queue_peak, b.queue_peak);
  EXPECT_EQ(a.repo_queue_peak, b.repo_queue_peak);
  EXPECT_EQ(a.sojourn.count(), b.sojourn.count());
  // Bit-equality, not near-equality: the merge order is canonical.
  EXPECT_DOUBLE_EQ(a.sojourn.mean(), b.sojourn.mean());
  EXPECT_DOUBLE_EQ(a.sojourn.max(), b.sojourn.max());
  EXPECT_DOUBLE_EQ(a.wait.mean(), b.wait.mean());
  EXPECT_DOUBLE_EQ(a.stretch.mean(), b.stretch.mean());
  EXPECT_DOUBLE_EQ(a.optional_time.mean(), b.optional_time.mean());
  EXPECT_DOUBLE_EQ(a.server_busy_s, b.server_busy_s);
  EXPECT_DOUBLE_EQ(a.repo_busy_s, b.repo_busy_s);
  EXPECT_DOUBLE_EQ(a.horizon_s, b.horizon_s);
  ASSERT_EQ(a.per_server_sojourn.size(), b.per_server_sojourn.size());
  for (std::size_t i = 0; i < a.per_server_sojourn.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.per_server_sojourn[i].mean(),
                     b.per_server_sojourn[i].mean());
  }
}

TEST(Des, DeterministicInSeed) {
  const SystemModel sys = generate_workload(testing::small_params(), 301);
  const DesSimulator sim(sys, fast_params());
  const Assignment asg = make_local_assignment(sys);
  const DesMetrics a = sim.simulate(asg, 5);
  const DesMetrics b = sim.simulate(asg, 5);
  expect_identical(a, b);
  const DesMetrics c = sim.simulate(asg, 6);
  EXPECT_NE(a.sojourn.mean(), c.sojourn.mean());
}

TEST(Des, ConservationUnderRedirect) {
  const SystemModel sys = generate_workload(testing::small_params(), 302);
  DesParams p = fast_params();
  p.server_concurrency = 2;
  p.queue_cap = 4;  // force overflow at nominal load
  p.overflow = OverflowPolicy::kRedirect;
  const DesSimulator sim(sys, p);
  const DesMetrics m = sim.simulate(make_local_assignment(sys), 7);
  EXPECT_EQ(m.arrivals,
            static_cast<std::uint64_t>(p.requests_per_server) *
                sys.num_servers());
  // Redirected requests still complete (via R); nothing is lost.
  EXPECT_EQ(m.completions, m.arrivals);
  EXPECT_EQ(m.rejects, 0u);
  EXPECT_GT(m.redirects, 0u);
  EXPECT_EQ(m.sojourn.count(), m.completions);
}

TEST(Des, ConservationUnderReject) {
  const SystemModel sys = generate_workload(testing::small_params(), 303);
  DesParams p = fast_params();
  p.server_concurrency = 1;
  p.queue_cap = 0;  // no waiting room at all
  p.overflow = OverflowPolicy::kReject;
  const DesSimulator sim(sys, p);
  const DesMetrics m = sim.simulate(make_local_assignment(sys), 7);
  EXPECT_GT(m.rejects, 0u);
  EXPECT_EQ(m.arrivals, m.completions + m.rejects);
  EXPECT_EQ(m.sojourn.count(), m.completions);
  EXPECT_EQ(m.redirects, 0u);
}

TEST(Des, ByteIdenticalAcrossShardsAndThreads) {
  const SystemModel sys = wide_workload(304);
  const Assignment asg = make_local_assignment(sys);

  global_flight_log().clear();
  global_obs_log().clear();
  global_timeseries_log().clear();
  set_flight_enabled(true);
  set_flight_sample_every(7);
  set_obs_enabled(true);
  set_timeseries_enabled(true);
  // A base this small puts the horizon past the window cap, so the SLO
  // windows coarsen in every configuration and the matrix below also proves
  // folding is shard/thread independent.
  ObsConfig ocfg;
  ocfg.window_s = 1e-3;
  set_obs_config(ocfg);

  struct Run {
    DesMetrics metrics;
    double slo_window_s = 0;
    std::string flight;
    std::string sketch;
    std::string timeseries;
    std::string invariants;
  };
  auto run_config = [&](std::uint32_t shards, std::size_t threads) {
    global_flight_log().clear();
    global_obs_log().clear();
    global_timeseries_log().clear();
    DesParams p = fast_params();
    p.shards = shards;
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads);
      p.pool = pool.get();
    }
    const DesSimulator sim(sys, p);
    Run r;
    r.metrics = sim.simulate(asg, 11);
    const RunMeta meta;  // no wall-clock fields: byte-comparable
    std::ostringstream flight;
    write_flight_jsonl(flight, global_flight_log().snapshot(),
                       global_flight_log().dropped(), meta);
    r.flight = flight.str();
    const std::vector<ObsShard> obs_groups = global_obs_log().snapshot();
    if (!obs_groups.empty()) {
      r.slo_window_s = obs_groups.front().windows.window_s();
    }
    std::ostringstream sketch;
    write_sketch_jsonl(sketch, obs_groups, obs_config(),
                       global_obs_log().dropped(), meta);
    r.sketch = sketch.str();
    const std::vector<TimeseriesShard> groups =
        global_timeseries_log().snapshot();
    std::ostringstream ts;
    write_timeseries_jsonl(ts, groups, timeseries_config(),
                           global_timeseries_log().dropped(), meta);
    r.timeseries = ts.str();
    std::ostringstream inv;
    write_invariants_jsonl(inv, audit_timeseries(groups),
                           InvariantTolerances{}, meta);
    r.invariants = inv.str();
    return r;
  };

  const Run ref = run_config(1, 1);
  EXPECT_GT(ref.metrics.arrivals, 0u);
  EXPECT_FALSE(ref.flight.empty());
  EXPECT_FALSE(ref.sketch.empty());
  EXPECT_GT(ref.slo_window_s, ocfg.window_s);  // the SLO windows folded
  // The reference run's audit must already be clean.
  EXPECT_NE(ref.invariants.find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(ref.invariants.find("\"ok\":false"), std::string::npos);
  for (std::uint32_t shards : {1u, 2u, 8u}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
      const Run r = run_config(shards, threads);
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      expect_identical(ref.metrics, r.metrics);
      EXPECT_EQ(ref.flight, r.flight);
      EXPECT_EQ(ref.sketch, r.sketch);
      EXPECT_EQ(ref.timeseries, r.timeseries);
      EXPECT_EQ(ref.invariants, r.invariants);
    }
  }

  set_flight_enabled(false);
  set_obs_enabled(false);
  set_timeseries_enabled(false);
  set_obs_config(ObsConfig{});
  global_flight_log().clear();
  global_obs_log().clear();
  global_timeseries_log().clear();
}

TEST(Des, PairedArrivalStreamsAcrossPlacements) {
  // The page-request stream is a pure function of the seed: two different
  // placements must see the same (server, index) -> page arrivals, so
  // policy comparisons are paired.
  const SystemModel sys = wide_workload(305);
  global_flight_log().clear();
  set_flight_enabled(true);
  set_flight_sample_every(1);

  auto arrival_pages = [&](const Assignment& asg) {
    global_flight_log().clear();
    const DesSimulator sim(sys, fast_params());
    (void)sim.simulate(asg, 13);
    std::vector<std::uint64_t> keyed;
    for (const FlightRecord& r : global_flight_log().snapshot()) {
      keyed.push_back((static_cast<std::uint64_t>(r.server) << 48) |
                      (static_cast<std::uint64_t>(r.index) << 24) | r.page);
    }
    return keyed;
  };

  const auto local = arrival_pages(make_local_assignment(sys));
  const auto remote = arrival_pages(make_remote_assignment(sys));
  EXPECT_EQ(local.size(),
            static_cast<std::size_t>(sys.num_servers()) * 400);
  EXPECT_EQ(local, remote);

  set_flight_enabled(false);
  global_flight_log().clear();
}

TEST(Des, NearZeroLoadMatchesClosedFormEq5) {
  // With arrivals spread so far apart that no two requests ever share a
  // station, every sojourn must equal the closed-form simulator's Eq. 5
  // response at nominal rates, request for request (same seed pairing).
  const SystemModel sys = generate_workload(testing::small_params(), 306);
  const Assignment asg = make_local_assignment(sys);

  SimParams sp;
  sp.requests_per_server = 500;
  sp.perturb.severity = 0.0;
  sp.p_interested = 0.0;
  sp.capture_samples = true;
  const Simulator closed(sys, sp);
  const SimMetrics cf = closed.simulate(asg, 17);

  DesParams dp;
  dp.requests_per_server = 500;
  dp.arrival_rate_scale = 1e-9;  // inter-arrival gaps ~1e9x the demands
  dp.p_interested = 0.0;
  dp.capture_samples = true;
  const DesSimulator des(sys, dp);
  const DesMetrics dm = des.simulate(asg, 17);

  EXPECT_EQ(dm.redirects, 0u);
  EXPECT_EQ(dm.rejects, 0u);
  EXPECT_DOUBLE_EQ(dm.wait.max(), 0.0);
  // Uncontended: stretch is 1 for every request, up to the cancellation
  // noise of `done - arrival` at virtual times near 1e12 (ulp ~1e-4 s).
  EXPECT_NEAR(dm.stretch.min(), 1.0, 1e-6);
  EXPECT_NEAR(dm.stretch.max(), 1.0, 1e-6);

  const auto& a = cf.page_samples.samples();
  const auto& b = dm.sojourn_samples.samples();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // 1e-6 relative: the dominant error is not the per-object-vs-summed
    // transfer pricing (1e-15ish) but subtracting ~1e12-second arrival
    // clocks, which quantizes each sojourn at ulp(arrival) ~1e-4 s.
    ASSERT_NEAR(a[i], b[i], 1e-6 * std::max(1.0, a[i])) << "request " << i;
  }
}

TEST(Des, MD1WaitMatchesTheory) {
  // One server, one page, HTML only: a textbook M/D/1 queue. Service
  // D = ovhd_local + html/local_rate = 0.1 + 100/1000 = 0.2 s; arrivals
  // Poisson at f = 2.5/s, so rho = 0.5 and the Pollaczek-Khinchine mean
  // wait is lambda D^2 / (2 (1 - rho)) = 2.5 * 0.04 / 1 = 0.1 s.
  SystemModel sys;
  Server s;
  s.ovhd_local = 0.1;
  s.ovhd_repo = 0.2;
  s.local_rate = 1000.0;
  s.repo_rate = 100.0;
  s.storage_capacity = testing::kMB;
  s.proc_capacity = kUnlimited;
  sys.add_server(s);
  sys.set_repository({kUnlimited});
  Page p;
  p.host = 0;
  p.html_bytes = 100;
  p.frequency = 2.5;
  sys.add_page(std::move(p));
  sys.finalize();

  DesParams dp;
  dp.requests_per_server = 200000;
  dp.server_concurrency = 1;
  dp.queue_cap = kUnboundedQueue;
  dp.discipline = QueueDiscipline::kFifo;
  const DesSimulator sim(sys, dp);
  const DesMetrics m = sim.simulate(make_local_assignment(sys), 19);

  EXPECT_EQ(m.completions, 200000u);
  EXPECT_EQ(m.repo_jobs, 0u);  // HTML only: nothing comes from R
  EXPECT_NEAR(m.wait.mean(), 0.1, 0.01);
  // Sojourn = wait + deterministic service.
  EXPECT_NEAR(m.sojourn.mean(), 0.3, 0.01);
  // Utilization ~ rho (horizon is the last completion, slightly past the
  // last arrival, so the estimate sits just under 0.5).
  EXPECT_NEAR(m.server_utilization, 0.5, 0.02);
}

TEST(Des, OptionalFetchesFollowInterest) {
  const SystemModel sys = generate_workload(testing::small_params(), 307);
  DesParams off = fast_params();
  off.p_interested = 0.0;
  const DesSimulator sim_off(sys, off);
  EXPECT_EQ(sim_off.simulate(make_local_assignment(sys), 23).optional_fetches,
            0u);

  DesParams on = fast_params();
  on.p_interested = 0.5;
  const DesSimulator sim_on(sys, on);
  const DesMetrics m = sim_on.simulate(make_local_assignment(sys), 23);
  EXPECT_GT(m.optional_fetches, 0u);
  EXPECT_GT(m.optional_time.count(), 0u);
}

TEST(Des, PsDisciplineStretchesUnderLoad) {
  const SystemModel sys = generate_workload(testing::small_params(), 308);
  DesParams fifo = fast_params();
  fifo.discipline = QueueDiscipline::kFifo;
  DesParams ps = fast_params();
  ps.discipline = QueueDiscipline::kPs;
  const Assignment asg = make_local_assignment(sys);
  const DesMetrics mf =
      DesSimulator(sys, fifo).simulate(asg, 29);
  const DesMetrics mp = DesSimulator(sys, ps).simulate(asg, 29);
  // PS admits everyone immediately: no admission queue, so no waits and no
  // overflow redirects, at the price of stretched in-service times.
  EXPECT_DOUBLE_EQ(mp.wait.max(), 0.0);
  EXPECT_EQ(mp.redirects, 0u);
  EXPECT_EQ(mf.arrivals, mp.arrivals);
  EXPECT_EQ(mp.completions, mp.arrivals);
}

TEST(Des, TimeseriesMirrorsDesMetrics) {
  const SystemModel sys = generate_workload(testing::small_params(), 310);
  set_timeseries_enabled(true);
  global_timeseries_log().clear();
  DesParams p = fast_params();
  p.server_concurrency = 2;
  p.queue_cap = 4;
  p.overflow = OverflowPolicy::kRedirect;
  const DesSimulator sim(sys, p);
  const DesMetrics m = sim.simulate(make_local_assignment(sys), 31);

  const std::vector<TimeseriesShard> groups =
      global_timeseries_log().snapshot();
  ASSERT_EQ(groups.size(), 1u);
  const TimeseriesShard& g = groups[0];
  EXPECT_EQ(g.num_servers(), sys.num_servers());
  EXPECT_EQ(g.des_arrivals, m.arrivals);
  EXPECT_EQ(g.des_completions, m.completions);
  EXPECT_EQ(g.des_redirects, m.redirects);
  EXPECT_EQ(g.des_rejects, m.rejects);
  EXPECT_DOUBLE_EQ(g.des_server_busy_s, m.server_busy_s);
  EXPECT_DOUBLE_EQ(g.des_repo_busy_s, m.repo_busy_s);
  EXPECT_DOUBLE_EQ(g.horizon_s, m.horizon_s);
  // Redirected requests land at the repository, so it saw traffic too.
  EXPECT_GT(g.repository().arrivals, 0u);
  // The collected series must satisfy every conservation law.
  EXPECT_TRUE(audit_timeseries(groups).all_ok());

  set_timeseries_enabled(false);
  global_timeseries_log().clear();
}

TEST(Des, CausalSpansEmittedForSampledRequests) {
  const SystemModel sys = generate_workload(testing::small_params(), 311);
  Tracer::instance().clear();
  set_trace_enabled(true);
  set_flight_sample_every(5);
  DesParams p = fast_params();
  p.server_concurrency = 2;
  p.queue_cap = 4;
  p.overflow = OverflowPolicy::kRedirect;
  const DesSimulator sim(sys, p);
  (void)sim.simulate(make_local_assignment(sys), 37);
  set_trace_enabled(false);

  std::uint64_t requests = 0, stages = 0;
  bool saw_local_service = false;
  for (const TraceEvent& e : Tracer::instance().snapshot()) {
    if (e.async_id == 0) continue;
    ASSERT_NE(e.cat, nullptr);
    EXPECT_STREQ(e.cat, "mmr.des");
    ++stages;
    if (e.name == "request") ++requests;
    if (e.name == "local.service") saw_local_service = true;
  }
  // Every 5th request per server gets a causal span family.
  EXPECT_EQ(requests,
            static_cast<std::uint64_t>(sys.num_servers()) * 400 / 5);
  EXPECT_GT(stages, requests);  // lifecycle stages accompany the root span
  EXPECT_TRUE(saw_local_service);

  // The Chrome writer renders async spans as "b"/"e" pairs.
  std::ostringstream chrome;
  Tracer::instance().write_chrome_json(chrome);
  EXPECT_NE(chrome.str().find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(chrome.str().find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(chrome.str().find("\"cat\":\"mmr.des\""), std::string::npos);

  Tracer::instance().clear();
  set_flight_sample_every(1);
}

TEST(Des, FlightRecordsCarryStageSplit) {
  const SystemModel sys = generate_workload(testing::small_params(), 312);
  global_flight_log().clear();
  set_flight_enabled(true);
  set_flight_sample_every(1);
  DesParams p = fast_params();
  p.server_concurrency = 2;
  p.queue_cap = 4;
  p.overflow = OverflowPolicy::kRedirect;
  const DesSimulator sim(sys, p);
  (void)sim.simulate(make_local_assignment(sys), 41);
  set_flight_enabled(false);

  std::uint64_t waited = 0, queued_depth = 0;
  const std::vector<FlightRecord> records = global_flight_log().snapshot();
  ASSERT_FALSE(records.empty());
  for (const FlightRecord& r : records) {
    ASSERT_EQ(r.mode, FlightMode::kDes);
    // The stage split must reassemble the per-leg totals exactly.
    EXPECT_NEAR(r.local_wait + r.local_service, r.t_local,
                1e-9 * std::max(1.0, r.t_local));
    EXPECT_NEAR(r.repo_wait + r.repo_service, r.t_remote,
                1e-9 * std::max(1.0, r.t_remote));
    EXPECT_GE(r.local_wait, 0.0);
    EXPECT_GE(r.repo_wait, 0.0);
    if (r.local_wait > 0) ++waited;
    if (r.queue_depth > 0) ++queued_depth;
  }
  // The workload is contended: some requests queued, and the admission
  // queue depth they observed was recorded.
  EXPECT_GT(waited, 0u);
  EXPECT_GT(queued_depth, 0u);

  global_flight_log().clear();
}

// ---------------------------------------------------------------------------
// Station edge cases (sim/queueing.h)

TEST(Station, ZeroQueueCapOverflowsImmediately) {
  StationConfig cfg;
  cfg.concurrency = 1;
  cfg.queue_cap = 0;
  Station st(cfg);
  Station::Started s;
  EXPECT_EQ(st.offer(0.0, 2.0, 1, &s), Station::Offer::kStarted);
  EXPECT_DOUBLE_EQ(s.done, 2.0);
  // No waiting room: the next job can neither start nor queue.
  EXPECT_EQ(st.offer(1.0, 2.0, 2, &s), Station::Offer::kOverflow);
  EXPECT_EQ(st.queue_len(), 0u);
  EXPECT_EQ(st.queue_peak(), 0u);
  // After the slot frees, admission resumes with zero wait.
  EXPECT_FALSE(st.on_complete(2.0, &s));
  EXPECT_EQ(st.offer(2.0, 1.0, 3, &s), Station::Offer::kStarted);
  EXPECT_DOUBLE_EQ(s.wait, 0.0);
  EXPECT_EQ(st.jobs_started(), 2u);
}

TEST(Station, PsSimultaneousDepartures) {
  StationConfig cfg;
  cfg.concurrency = 2;
  cfg.discipline = QueueDiscipline::kPs;
  Station st(cfg);
  Station::Started a, b, c;
  // Two jobs fill the slots: no stretch at or below full concurrency.
  EXPECT_EQ(st.offer(0.0, 4.0, 1, &a), Station::Offer::kStarted);
  EXPECT_EQ(st.offer(0.0, 4.0, 2, &b), Station::Offer::kStarted);
  EXPECT_DOUBLE_EQ(a.done, 4.0);
  EXPECT_DOUBLE_EQ(b.done, 4.0);
  // A third stretches by the occupancy it finds (3 jobs on 2 slots).
  EXPECT_EQ(st.offer(0.0, 4.0, 3, &c), Station::Offer::kStarted);
  EXPECT_DOUBLE_EQ(c.done, 6.0);
  EXPECT_EQ(st.in_service(), 3u);
  EXPECT_EQ(st.queue_len(), 1u);  // occupancy beyond the slots
  EXPECT_EQ(st.queue_peak(), 1u);
  // Both jobs depart at the same instant; PS never promotes from a queue.
  EXPECT_FALSE(st.on_complete(4.0, &a));
  EXPECT_FALSE(st.on_complete(4.0, &a));
  EXPECT_EQ(st.in_service(), 1u);
  EXPECT_EQ(st.queue_len(), 0u);
  EXPECT_FALSE(st.on_complete(6.0, &a));
  EXPECT_EQ(st.in_service(), 0u);
  // Intrinsic demand was 4+4+4, but the third was stretched to 6.
  EXPECT_DOUBLE_EQ(st.busy_seconds(), 14.0);
}

TEST(Station, SameTimeOverflowBatchLeavesStateUntouched) {
  StationConfig cfg;
  cfg.concurrency = 1;
  cfg.queue_cap = 1;
  Station st(cfg);
  Station::Started s;
  EXPECT_EQ(st.offer(0.0, 5.0, 1, &s), Station::Offer::kStarted);
  EXPECT_EQ(st.offer(0.0, 5.0, 2, &s), Station::Offer::kQueued);
  const double busy_before = st.busy_seconds();
  // A same-time arrival batch finds the queue full: whether the caller then
  // redirects or rejects, every overflow verdict must be identical and the
  // station must be left exactly as it was.
  for (std::uint64_t tag = 3; tag < 6; ++tag) {
    EXPECT_EQ(st.offer(0.0, 5.0, tag, &s), Station::Offer::kOverflow);
    EXPECT_EQ(st.in_service(), 1u);
    EXPECT_EQ(st.queue_len(), 1u);
    EXPECT_DOUBLE_EQ(st.busy_seconds(), busy_before);
    EXPECT_EQ(st.jobs_started(), 1u);
  }
  // The queued job is untouched by the overflow storm and starts in order.
  ASSERT_TRUE(st.on_complete(5.0, &s));
  EXPECT_EQ(s.tag, 2u);
  EXPECT_DOUBLE_EQ(s.wait, 5.0);
  EXPECT_EQ(st.queue_peak(), 1u);
}

}  // namespace
}  // namespace mmr
