// google-benchmark microbenchmarks for the supporting data structures:
// RNG, alias table, LRU cache, event queue, workload generation, the
// response-time simulator, and the streaming-telemetry sketches. Accepts
// --bench-out/--reps/--quick on top of the usual --benchmark_* flags
// (bench/micro_common.h).
#include <benchmark/benchmark.h>

#include "micro_common.h"

#include "baselines/lru_cache.h"
#include "baselines/static_policies.h"
#include "obs/heavy_hitters.h"
#include "obs/obs.h"
#include "obs/sketch.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
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

}  // namespace
}  // namespace mmr

int main(int argc, char** argv) { return mmr::bench::micro_main(argc, argv); }
