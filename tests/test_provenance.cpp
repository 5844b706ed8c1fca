#include "io/provenance.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/policy.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/metrics.h"

namespace mmr {
namespace {

/// Every test must leave the process-wide recorders exactly as it found
/// them: disabled, empty, default caps and sampling.
class ProvenanceTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    set_audit_enabled(false);
    set_flight_enabled(false);
    set_flight_sample_every(100);
    global_audit_log().clear();
    global_audit_log().set_max_events(1'000'000);
    global_flight_log().clear();
    global_flight_log().set_max_records(1'000'000);
  }
};

ExperimentConfig fast_config() {
  ExperimentConfig cfg;
  cfg.workload = testing::small_params();
  cfg.sim.requests_per_server = 300;
  cfg.runs = 2;
  cfg.base_seed = 7;
  return cfg;
}

TEST_F(ProvenanceTest, RunScopeNestsAndRestores) {
  EXPECT_EQ(current_provenance_run(), kProvenanceNoRun);
  EXPECT_EQ(provenance_run_or_zero(), 0u);
  {
    ProvenanceRunScope outer(42);
    EXPECT_EQ(current_provenance_run(), 42u);
    EXPECT_EQ(provenance_run_or_zero(), 42u);
    {
      ProvenanceRunScope inner(7);
      EXPECT_EQ(current_provenance_run(), 7u);
    }
    EXPECT_EQ(current_provenance_run(), 42u);
  }
  EXPECT_EQ(current_provenance_run(), kProvenanceNoRun);
}

TEST_F(ProvenanceTest, SampleEveryClampsToOne) {
  set_flight_sample_every(0);
  EXPECT_EQ(flight_sample_every(), 1u);
  set_flight_sample_every(25);
  EXPECT_EQ(flight_sample_every(), 25u);
}

TEST_F(ProvenanceTest, AuditArtifactRoundTrips) {
  std::vector<PartitionDecision> parts(2);
  parts[0].run = 1;
  parts[0].policy = "ours";
  parts[0].page = 3;
  parts[0].server = 0;
  parts[0].object = 9;
  parts[0].step = 0;
  parts[0].local = true;
  parts[0].gain = 0.5;
  parts[1] = parts[0];
  parts[1].step = 1;
  parts[1].local = false;
  global_audit_log().add_partitions(std::move(parts));

  std::vector<HeadroomStamp> headroom(2);
  headroom[0].run = 1;
  headroom[0].policy = "ours";
  headroom[0].phase = 0;
  headroom[0].server = 0;
  headroom[0].proc_load = 10;
  headroom[0].proc_capacity = 25;
  headroom[0].storage_used = 100;
  headroom[0].storage_capacity = 150;
  headroom[1] = headroom[0];
  headroom[1].server = kInvalidId;  // repository row
  headroom[1].proc_capacity = kUnlimited;
  global_audit_log().add_headroom(std::move(headroom));

  RunMeta meta;
  meta.tool = "test";
  meta.add("seed", std::uint64_t{11});
  std::ostringstream os;
  write_audit_jsonl(os, global_audit_log().snapshot(), meta);

  const ProvenanceDoc doc = parse_provenance_jsonl(os.str());
  EXPECT_EQ(doc.schema, "mmr-audit");
  EXPECT_EQ(doc.version, 1);
  EXPECT_TRUE(doc.has_summary);
  EXPECT_EQ(doc.declared_dropped, 0u);
  ASSERT_EQ(doc.events.size(), 4u);
  EXPECT_EQ(doc.header.at("run_meta").at("tool").str_v, "test");
  EXPECT_EQ(doc.header.at("run_meta").at("seed").num_v, 11);

  EXPECT_EQ(doc.events[0].at("type").str_v, "partition");
  EXPECT_EQ(doc.events[0].at("policy").str_v, "ours");
  EXPECT_TRUE(doc.events[0].at("local").bool_v);
  EXPECT_FALSE(doc.events[1].at("local").bool_v);

  // Server headroom row carries storage fields; the repository row (server
  // -1) does not, and its unlimited proc capacity serializes as null.
  EXPECT_EQ(doc.events[2].at("type").str_v, "headroom");
  EXPECT_EQ(doc.events[2].at("server").num_v, 0);
  EXPECT_EQ(doc.events[2].at("storage_headroom").num_v, 50);
  EXPECT_EQ(doc.events[2].at("proc_headroom").num_v, 15);
  EXPECT_EQ(doc.events[3].at("server").num_v, -1);
  EXPECT_TRUE(doc.events[3].at("proc_capacity").is_null());
  EXPECT_TRUE(doc.events[3].at("proc_headroom").is_null());
  EXPECT_FALSE(doc.events[3].has("storage_used"));
}

TEST_F(ProvenanceTest, FlightArtifactRoundTrips) {
  set_flight_sample_every(10);
  std::vector<FlightRecord> records(1);
  records[0].run = 2;
  records[0].policy = "lru";
  records[0].mode = FlightMode::kLru;
  records[0].server = 1;
  records[0].page = 5;
  records[0].index = 20;
  records[0].t_local = 1.5;
  records[0].t_remote = 3.0;
  records[0].response = 3.0;
  records[0].remote_bound = true;
  records[0].cache_hits = 2;
  records[0].cache_misses = 1;
  global_flight_log().add(std::move(records));

  RunMeta meta;
  meta.tool = "test";
  std::ostringstream os;
  write_flight_jsonl(os, global_flight_log().snapshot(),
                     global_flight_log().dropped(), meta);

  const ProvenanceDoc doc = parse_provenance_jsonl(os.str());
  EXPECT_EQ(doc.schema, "mmr-flight");
  EXPECT_EQ(doc.header.at("sample_every").num_v, 10);
  ASSERT_EQ(doc.events.size(), 1u);
  const JsonValue& e = doc.events[0];
  EXPECT_EQ(e.at("type").str_v, "request");
  EXPECT_EQ(e.at("mode").str_v, "lru");
  EXPECT_EQ(e.at("bound").str_v, "remote");
  EXPECT_EQ(e.at("cache_hits").num_v, 2);
  EXPECT_EQ(e.at("response").num_v, 3.0);
}

TEST_F(ProvenanceTest, ParserRejectsMalformedDocuments) {
  EXPECT_THROW(parse_provenance_jsonl(""), CheckError);
  EXPECT_THROW(parse_provenance_jsonl("{\"schema\":\"bogus\",\"version\":1}"),
               CheckError);
  // Summary count disagreeing with the lines present.
  EXPECT_THROW(parse_provenance_jsonl(
                   "{\"schema\":\"mmr-flight\",\"version\":1}\n"
                   "{\"type\":\"summary\",\"events\":3,\"dropped\":0}\n"),
               CheckError);
  // Event after the summary line.
  EXPECT_THROW(parse_provenance_jsonl(
                   "{\"schema\":\"mmr-flight\",\"version\":1}\n"
                   "{\"type\":\"summary\",\"events\":0,\"dropped\":0}\n"
                   "{\"type\":\"request\"}\n"),
               CheckError);
}

TEST_F(ProvenanceTest, ParserRequiresSummaryAndKnownTypes) {
  AuditSnapshot snap;
  snap.partitions.resize(2);
  snap.partitions[1].step = 1;
  std::ostringstream os;
  write_audit_jsonl(os, snap, RunMeta{});
  const std::string good = os.str();
  ASSERT_NO_THROW(parse_provenance_jsonl(good));

  // A truncated log (header + events, no summary) must not read as
  // "0 dropped".
  const std::size_t summary = good.find("{\"type\":\"summary\"");
  ASSERT_NE(summary, std::string::npos);
  EXPECT_THROW(parse_provenance_jsonl(good.substr(0, summary)), CheckError);

  // An audit record type the writer never emits.
  const std::size_t type = good.find("\"type\":\"partition\"");
  ASSERT_NE(type, std::string::npos);
  std::string bogus = good;
  bogus.replace(type, std::string("\"type\":\"partition\"").size(),
                "\"type\":\"bogus\"");
  EXPECT_THROW(parse_provenance_jsonl(bogus), CheckError);

  // A flight record is not an audit record, and vice versa.
  std::string swapped = good;
  swapped.replace(type, std::string("\"type\":\"partition\"").size(),
                  "\"type\":\"request\"");
  EXPECT_THROW(parse_provenance_jsonl(swapped), CheckError);
}

TEST_F(ProvenanceTest, CapCountsDroppedInsteadOfSilentLoss) {
  global_audit_log().set_max_events(3);
  std::vector<PartitionDecision> batch(5);
  global_audit_log().add_partitions(std::move(batch));
  EXPECT_EQ(global_audit_log().size(), 3u);
  EXPECT_EQ(global_audit_log().dropped(), 2u);

  global_flight_log().set_max_records(2);
  std::vector<FlightRecord> records(4);
  global_flight_log().add(std::move(records));
  EXPECT_EQ(global_flight_log().size(), 2u);
  EXPECT_EQ(global_flight_log().dropped(), 2u);

  // The summary line carries the dropped count through the round trip.
  std::ostringstream os;
  write_flight_jsonl(os, global_flight_log().snapshot(),
                     global_flight_log().dropped(), RunMeta{});
  EXPECT_EQ(parse_provenance_jsonl(os.str()).declared_dropped, 2u);
}

TEST_F(ProvenanceTest, PolicyRunRecordsAuditTrail) {
  set_audit_enabled(true);
  // Half the storage forces evictions; the solver records every decision.
  const SystemModel sys =
      testing::two_server_system(1000.0, 60 * testing::kKB);
  PolicyOptions options;
  ProvenanceRunScope run(99);
  MetricLabelScope label("ours");
  run_replication_policy(sys, options);

  const AuditSnapshot snap = global_audit_log().snapshot();
  EXPECT_GT(snap.partitions.size(), 0u);
  EXPECT_GT(snap.evictions.size(), 0u);
  EXPECT_GT(snap.headroom.size(), 0u);
  EXPECT_GT(snap.replicas.size(), 0u);
  for (const PartitionDecision& d : snap.partitions) {
    EXPECT_EQ(d.run, 99u);
    EXPECT_EQ(d.policy, "ours");
  }
  // Headroom is stamped for both servers plus the repository, per phase.
  bool saw_repo = false;
  for (const HeadroomStamp& h : snap.headroom) {
    EXPECT_LT(h.phase, kAuditPhaseCount);
    if (h.server == kInvalidId) saw_repo = true;
  }
  EXPECT_TRUE(saw_repo);
  // Every eviction frees bytes and lands within the server's pass sequence.
  for (const EvictionEvent& e : snap.evictions) {
    EXPECT_GT(e.bytes, 0u);
    EXPECT_LE(e.storage_after, e.storage_before);
  }
}

TEST_F(ProvenanceTest, AuditRecordingIsBitExact) {
  const SystemModel sys =
      testing::two_server_system(1000.0, 60 * testing::kKB);
  PolicyOptions options;
  const PolicyResult off = run_replication_policy(sys, options);

  set_audit_enabled(true);
  const PolicyResult on = run_replication_policy(sys, options);

  EXPECT_EQ(off.assignment.comp_bits(), on.assignment.comp_bits());
  EXPECT_EQ(off.assignment.opt_bits(), on.assignment.opt_bits());
  EXPECT_DOUBLE_EQ(off.d_after_offload, on.d_after_offload);
}

TEST_F(ProvenanceTest, FlightSamplerIsDeterministic) {
  set_flight_enabled(true);
  set_flight_sample_every(7);
  const SystemModel sys = testing::two_server_system();
  Assignment asg(sys);
  asg.recompute_caches();
  SimParams params;
  params.requests_per_server = 100;
  const Simulator sim(sys, params);
  sim.simulate(asg, 5);

  const std::vector<FlightRecord> records = global_flight_log().snapshot();
  // ceil(100 / 7) = 15 samples per server, indices 0, 7, 14, ...
  ASSERT_EQ(records.size(), 2u * 15u);
  for (const FlightRecord& r : records) {
    EXPECT_EQ(r.index % 7, 0u);
    EXPECT_EQ(r.mode, FlightMode::kStatic);
    EXPECT_DOUBLE_EQ(r.response, std::max(r.t_local, r.t_remote));
    EXPECT_EQ(r.remote_bound, r.t_remote > r.t_local);
  }

  // Same seed, same stream: a second simulation appends identical records.
  global_flight_log().clear();
  sim.simulate(asg, 5);
  const std::vector<FlightRecord> again = global_flight_log().snapshot();
  ASSERT_EQ(again.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(again[i].page, records[i].page);
    EXPECT_DOUBLE_EQ(again[i].response, records[i].response);
  }
}

TEST_F(ProvenanceTest, CacheBaselinesRecordFlight) {
  set_flight_enabled(true);
  set_flight_sample_every(11);
  const SystemModel sys = testing::two_server_system();
  SimParams params;
  params.requests_per_server = 60;
  const Simulator sim(sys, params);
  sim.simulate_lru(5);
  sim.simulate_threshold(5, ThresholdParams{});

  bool saw_lru = false;
  bool saw_threshold = false;
  for (const FlightRecord& r : global_flight_log().snapshot()) {
    EXPECT_EQ(r.index % 11, 0u);
    if (r.mode == FlightMode::kLru) saw_lru = true;
    if (r.mode == FlightMode::kThreshold) saw_threshold = true;
    // Every compulsory object is either a hit or a miss.
    EXPECT_GT(r.cache_hits + r.cache_misses, 0u);
  }
  EXPECT_TRUE(saw_lru);
  EXPECT_TRUE(saw_threshold);
}

TEST_F(ProvenanceTest, ArtifactsAreByteIdenticalAcrossThreadCounts) {
  const ExperimentConfig cfg = fast_config();
  ScenarioSpec spec;
  spec.storage_fraction = 0.5;
  RunMeta meta;
  meta.tool = "test";

  auto render = [&](ThreadPool* pool) {
    global_audit_log().clear();
    global_flight_log().clear();
    set_audit_enabled(true);
    set_flight_enabled(true);
    set_flight_sample_every(40);
    set_next_provenance_scenario(1);
    run_scenario(cfg, spec, pool);
    set_audit_enabled(false);
    set_flight_enabled(false);
    std::ostringstream audit_os;
    write_audit_jsonl(audit_os, global_audit_log().snapshot(), meta);
    std::ostringstream flight_os;
    write_flight_jsonl(flight_os, global_flight_log().snapshot(),
                       global_flight_log().dropped(), meta);
    return std::make_pair(audit_os.str(), flight_os.str());
  };

  const auto serial = render(nullptr);
  ThreadPool pool(3);
  const auto parallel = render(&pool);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  EXPECT_GT(serial.first.size(), 1000u);   // events actually recorded
  EXPECT_GT(serial.second.size(), 1000u);
}

TEST_F(ProvenanceTest, RunSingleTagsEventsWithSeed) {
  set_audit_enabled(true);
  const ExperimentConfig cfg = fast_config();
  ScenarioSpec spec;
  run_single(cfg, spec, 31);
  const AuditSnapshot snap = global_audit_log().snapshot();
  ASSERT_GT(snap.partitions.size(), 0u);
  for (const PartitionDecision& d : snap.partitions) EXPECT_EQ(d.run, 31u);
}

}  // namespace
}  // namespace mmr
