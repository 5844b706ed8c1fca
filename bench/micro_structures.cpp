// google-benchmark microbenchmarks for the supporting data structures:
// RNG, alias table, LRU cache, event queue, workload generation, the
// response-time simulator, the streaming-telemetry sketches, and artifact
// I/O (the audit log's JSONL writer and strict parser). Accepts
// --bench-out/--reps/--quick on top of the usual --benchmark_* flags
// (bench/micro_common.h).
#include <benchmark/benchmark.h>

#include "micro_common.h"

#include <sstream>
#include <string>

#include "baselines/lru_cache.h"
#include "baselines/static_policies.h"
#include "core/policy.h"
#include "io/provenance.h"
#include "obs/heavy_hitters.h"
#include "obs/obs.h"
#include "obs/sketch.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mmr {
namespace {

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNext);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) benchmark::DoNotOptimize(rng.uniform(0.0, 10.0));
}
BENCHMARK(BM_RngUniform);

void BM_AliasTableSample(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> weights(static_cast<std::size_t>(state.range(0)));
  for (auto& w : weights) w = rng.uniform(0.1, 10.0);
  const AliasTable table(weights);
  for (auto _ : state) benchmark::DoNotOptimize(table.sample(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasTableSample)->Arg(600)->Arg(15000);

void BM_LruCacheAccessHit(benchmark::State& state) {
  LruCache cache(1 << 20);
  for (ObjectId k = 0; k < 256; ++k) cache.insert(k, 1024);
  ObjectId k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(k));
    k = (k + 1) % 256;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheAccessHit);

// Constant churn once full: 64 entries fit, ids cycle through 4096. Ids
// stay in a fixed universe, as object ids do (the cache's node array is
// sized by the largest id).
void BM_LruCacheChurnBoundedIds(benchmark::State& state) {
  LruCache cache(64 * 1024);
  ObjectId k = 0;
  for (auto _ : state) {
    cache.insert(k, 1024);
    k = (k + 1) % 4096;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruCacheChurnBoundedIds);

// Floyd k-of-n sampling on both sides of its scan/bitmap crossover at
// per-page slot draws (n ~ 3000), and pool draws out of the Table 1
// universe (4500 of 15000) and out of the large tier's.
void BM_SampleWithoutReplacement(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto k = static_cast<std::uint32_t>(state.range(1));
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.sample_without_replacement(n, k).data());
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_SampleWithoutReplacement)
    ->Args({3000, 32})
    ->Args({3000, 64})
    ->Args({3000, 128})
    ->Args({15000, 4500})
    ->Args({3000000, 1500});

void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueue<int> q;
  Rng rng(4);
  double t = 0;
  for (auto _ : state) {
    t += rng.uniform(0.0, 1.0);
    q.push(t, 1);
    if (q.size() > 1024) benchmark::DoNotOptimize(q.pop().event);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop);

void BM_GenerateWorkload(benchmark::State& state) {
  WorkloadParams wl;  // paper scale
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_workload(wl, seed++).num_pages());
  }
  state.SetLabel("paper-scale Table 1 instance");
}
BENCHMARK(BM_GenerateWorkload)->Unit(benchmark::kMillisecond);

void BM_SimulateStatic(benchmark::State& state) {
  WorkloadParams wl;
  const SystemModel sys = generate_workload(wl, 42);
  SimParams sp;
  sp.requests_per_server = static_cast<std::uint32_t>(state.range(0));
  const Simulator sim(sys, sp);
  const Assignment asg = make_local_assignment(sys);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.simulate(asg, seed++).page_response.mean());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(sys.num_servers()));
}
BENCHMARK(BM_SimulateStatic)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_SimulateLru(benchmark::State& state) {
  WorkloadParams wl;
  const SystemModel sys = generate_workload(wl, 42);
  SimParams sp;
  sp.requests_per_server = static_cast<std::uint32_t>(state.range(0));
  const Simulator sim(sys, sp);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.simulate_lru(seed++).page_response.mean());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(sys.num_servers()));
}
BENCHMARK(BM_SimulateLru)->Arg(1000)->Unit(benchmark::kMillisecond);

// Per-observation cost of the streaming telemetry path: one sketch add is
// what every simulated request pays when --obs is on, so this series is the
// "ingest overhead <5%" evidence next to BM_SimulateStatic.
void BM_SketchIngest(benchmark::State& state) {
  Rng rng(7);
  std::vector<double> values(4096);
  for (double& v : values) v = 0.05 + rng.uniform() * 12.0;
  QuantileSketch sketch(0.01, 2048);
  std::size_t i = 0;
  for (auto _ : state) {
    sketch.add(values[i]);
    i = (i + 1) & (values.size() - 1);
    benchmark::DoNotOptimize(sketch.count());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchIngest);

void BM_SpaceSavingAdd(benchmark::State& state) {
  Rng rng(11);
  std::vector<std::uint64_t> keys(4096);
  for (std::uint64_t& k : keys) {
    k = pack_hot_key(static_cast<PageId>(rng() % 600),
                     static_cast<ServerId>(rng() % 10));
  }
  SpaceSavingTracker tracker(64);
  std::size_t i = 0;
  for (auto _ : state) {
    tracker.add(keys[i], 0.25);
    i = (i + 1) & (keys.size() - 1);
    benchmark::DoNotOptimize(tracker.total());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpaceSavingAdd);

// The full per-request telemetry path — both global sketches, the hot-set
// tracker, and the windowed SLO cell — exactly what the simulator calls
// per completed request when --obs is on.
void BM_ObsIngest(benchmark::State& state) {
  Rng rng(13);
  struct Obs {
    PageId page;
    ServerId server;
    double t, response, stretch, miss_cost;
  };
  std::vector<Obs> observations(4096);
  double t = 0.0;
  for (Obs& o : observations) {
    t += rng.uniform() * 0.4;
    const double ideal = 0.05 + rng.uniform() * 2.0;
    const double stretch = 1.0 + rng.uniform() * 3.0;
    o = Obs{static_cast<PageId>(rng() % 600),
            static_cast<ServerId>(rng() % 10),
            t,
            ideal * stretch,
            stretch,
            rng.uniform() * 0.5};
  }
  ObsShard shard{ObsConfig{}};
  std::size_t i = 0;
  for (auto _ : state) {
    const Obs& o = observations[i];
    shard.observe(o.page, o.server, o.t, o.response, o.stretch, o.miss_cost);
    i = (i + 1) & (observations.size() - 1);
  }
  benchmark::DoNotOptimize(shard.requests);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsIngest);

// Artifact I/O: the audit log of one audited solve of a two-site Table 1
// instance (about 30k events), written to JSONL and strictly re-read. This
// is the layer behind io.audit.write_s / io.audit.parse_s of the operator
// pipeline, without the file system.
const AuditSnapshot& audit_fixture() {
  static const AuditSnapshot snapshot = [] {
    WorkloadParams wl;
    wl.num_servers = 2;
    const SystemModel sys = generate_workload(wl, 42);
    set_audit_enabled(true);
    {
      ProvenanceRunScope run(1);
      MetricLabelScope label("ours");
      run_replication_policy(sys, PolicyOptions{});
    }
    set_audit_enabled(false);
    AuditSnapshot out = global_audit_log().snapshot();
    global_audit_log().clear();
    return out;
  }();
  return snapshot;
}

std::string audit_fixture_text() {
  std::ostringstream os;
  write_audit_jsonl(os, audit_fixture(), RunMeta{});
  return os.str();
}

void BM_AuditJsonlWrite(benchmark::State& state) {
  const AuditSnapshot& snapshot = audit_fixture();
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    write_audit_jsonl(os, snapshot, RunMeta{});
    bytes = os.str().size();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.SetLabel(std::to_string(snapshot.total_events()) + " events");
}
BENCHMARK(BM_AuditJsonlWrite)->Unit(benchmark::kMillisecond);

void BM_AuditJsonlParse(benchmark::State& state) {
  const std::string text = audit_fixture_text();
  for (auto _ : state) {
    std::size_t records = 0;
    parse_provenance_jsonl(text, [&](const JsonValue&) { ++records; });
    benchmark::DoNotOptimize(records);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_AuditJsonlParse)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mmr

int main(int argc, char** argv) { return mmr::bench::micro_main(argc, argv); }
