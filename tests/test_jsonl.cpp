// The shared JSONL envelope (io/jsonl.h): golden bytes for all six mmr-*
// families, plus the envelope's strictness rules (version, record types,
// required fields, the summary line) and the artifact file reader.
//
// Golden bytes: each family is written from a small fixed input and
// compared byte for byte with tests/data/golden/<family>.jsonl, with
// run_meta.git_describe masked (and the timeline's run_meta.timestamp_utc,
// its only wall-clock field once the snapshot is hand-built). A failure
// here means the on-disk format changed: that needs a version bump and a
// FORMATS.md entry, not a re-recorded golden file.
#include "io/jsonl.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <regex>
#include <sstream>
#include <string>

#include "baselines/static_policies.h"
#include "core/policy.h"
#include "io/artifacts.h"
#include "io/provenance.h"
#include "obs/invariants.h"
#include "obs/obs.h"
#include "obs/sketch_artifact.h"
#include "obs/timeseries.h"
#include "sim/des.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/metrics.h"

namespace mmr {
namespace {

/// Every test leaves the process-wide collectors disabled, empty and at
/// their default settings.
class JsonlTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }

  static void reset() {
    set_audit_enabled(false);
    set_flight_enabled(false);
    set_flight_sample_every(100);
    set_obs_enabled(false);
    set_timeseries_enabled(false);
    global_audit_log().clear();
    global_flight_log().clear();
    global_obs_log().clear();
    global_timeseries_log().clear();
    set_obs_config(ObsConfig{});
    set_timeseries_config(TimeseriesConfig{});
  }
};

RunMeta golden_meta() {
  RunMeta meta;
  meta.tool = "golden";
  meta.add("seed", std::uint64_t{7});
  return meta;
}

std::string mask(const std::string& text) {
  static const std::regex kWallClock(
      "\"(git_describe|timestamp_utc)\":\"[^\"]*\"");
  return std::regex_replace(text, kWallClock, "\"$1\":\"X\"");
}

// The fixed inputs: one audited solve of the two-server fixture at 60 kB of
// storage (forces evictions), one flight-recorded closed-form simulate, and
// one tiny DES run of the solved placement with obs + timeseries on.

std::string render_audit() {
  set_audit_enabled(true);
  {
    ProvenanceRunScope run(1);
    MetricLabelScope label("ours");
    run_replication_policy(
        testing::two_server_system(1000.0, 60 * testing::kKB),
        PolicyOptions{});
  }
  set_audit_enabled(false);
  std::ostringstream os;
  write_audit_jsonl(os, global_audit_log().snapshot(), golden_meta());
  return mask(os.str());
}

std::string render_flight() {
  set_flight_enabled(true);
  set_flight_sample_every(7);
  const SystemModel sys = testing::two_server_system();
  SimParams params;
  params.requests_per_server = 30;
  {
    ProvenanceRunScope run(2);
    MetricLabelScope label("ours");
    Simulator(sys, params).simulate(make_local_assignment(sys), 5);
  }
  set_flight_enabled(false);
  std::ostringstream os;
  write_flight_jsonl(os, global_flight_log().snapshot(),
                     global_flight_log().dropped(), golden_meta());
  return mask(os.str());
}

/// Runs the DES once over the solved placement with obs + timeseries on.
/// The run spans ~460 s of virtual time: 1 s SLO windows give a few dozen
/// rows, and 10 s station windows capped at 8 cells coarsen twice.
void run_golden_des() {
  const SystemModel sys =
      testing::two_server_system(1000.0, 60 * testing::kKB);
  const Assignment placement =
      run_replication_policy(sys, PolicyOptions{}).assignment;
  ObsConfig ocfg;
  ocfg.window_s = 1.0;
  set_obs_config(ocfg);
  TimeseriesConfig tscfg;
  tscfg.window_s = 10.0;
  tscfg.max_windows = 8;
  set_timeseries_config(tscfg);
  set_obs_enabled(true);
  set_timeseries_enabled(true);
  DesParams params;
  params.requests_per_server = 40;
  {
    MetricLabelScope label("ours");
    DesSimulator(sys, params).simulate(placement, 3);
  }
  set_obs_enabled(false);
  set_timeseries_enabled(false);
}

std::string render_sketch() {
  run_golden_des();
  std::ostringstream os;
  write_sketch_jsonl(os, global_obs_log().snapshot(), obs_config(),
                     global_obs_log().dropped(), golden_meta());
  return mask(os.str());
}

std::string render_timeseries() {
  run_golden_des();
  std::ostringstream os;
  write_timeseries_jsonl(os, global_timeseries_log().snapshot(),
                         timeseries_config(), global_timeseries_log().dropped(),
                         golden_meta());
  return mask(os.str());
}

std::string render_invariants() {
  run_golden_des();
  std::ostringstream os;
  write_invariants_jsonl(
      os, audit_timeseries(global_timeseries_log().snapshot()),
      InvariantTolerances{}, golden_meta());
  return mask(os.str());
}

/// A hand-built snapshot: two samples (one with counters and metric
/// deltas) and one phase's perf totals, so no value is wall-clock.
std::string render_timeline() {
  TimelineSnapshot snap;
  snap.interval_ms = 50;
  snap.counters_available = true;
  TimelineSample a;
  a.t_ms = 0;
  a.rss_bytes = 1 << 20;
  a.peak_rss_bytes = 1 << 20;
  a.mem_current[0] = 4096;
  a.mem_peak[0] = 8192;
  TimelineSample b = a;
  b.t_ms = 50;
  b.phase = "partition";
  b.rss_bytes = 3 << 20;
  b.peak_rss_bytes = 3 << 20;
  b.counters_valid = true;
  b.counters = {1000, 2000, 30, 40};
  b.metric_deltas = {{"solver.partition.pages", 12}};
  snap.samples = {a, b};
  snap.phase_perf["partition"] = {1, {900, 1800, 25, 35}};
  std::ostringstream os;
  write_timeline_jsonl(os, snap, 2, golden_meta());
  return mask(os.str());
}

std::string read_golden(const std::string& family) {
  return read_artifact_file(std::string(MMR_TEST_DATA_DIR) + "/golden/" +
                            family + ".jsonl");
}

/// Compares line by line first, so a failure names the first line that
/// moved instead of dumping two whole files.
void expect_golden(const std::string& family, const std::string& actual) {
  const std::string expected = read_golden(family);
  std::istringstream a(actual);
  std::istringstream e(expected);
  std::string al;
  std::string el;
  for (int line = 1; std::getline(e, el); ++line) {
    ASSERT_TRUE(static_cast<bool>(std::getline(a, al)))
        << family << ": output ends before golden line " << line;
    ASSERT_EQ(al, el) << family << ": line " << line << " differs";
  }
  EXPECT_EQ(actual, expected) << family << ": output has extra bytes";
}

TEST_F(JsonlTest, GoldenAudit) { expect_golden("audit", render_audit()); }
TEST_F(JsonlTest, GoldenFlight) { expect_golden("flight", render_flight()); }
TEST_F(JsonlTest, GoldenTimeline) {
  expect_golden("timeline", render_timeline());
}
TEST_F(JsonlTest, GoldenSketch) { expect_golden("sketch", render_sketch()); }
TEST_F(JsonlTest, GoldenTimeseries) {
  expect_golden("timeseries", render_timeseries());
}
TEST_F(JsonlTest, GoldenInvariants) {
  expect_golden("invariants", render_invariants());
}

/// The golden files are real documents: each one parses strictly.
TEST_F(JsonlTest, GoldenFilesParse) {
  EXPECT_EQ(parse_provenance_jsonl(read_golden("audit")).schema, "mmr-audit");
  EXPECT_EQ(parse_provenance_jsonl(read_golden("flight")).schema,
            "mmr-flight");
  EXPECT_GT(parse_timeline_jsonl(read_golden("timeline")).events.size(), 0u);
  EXPECT_GT(parse_sketch_jsonl(read_golden("sketch")).of_type("window").size(),
            1u);
  EXPECT_GT(parse_timeseries_jsonl(read_golden("timeseries")).events.size(),
            0u);
  EXPECT_TRUE(parse_invariants_jsonl(read_golden("invariants")).declared_ok);
}

/// Replaces the first occurrence of `from` (the header's version field).
std::string replace_first(std::string text, const std::string& from,
                          const std::string& to) {
  const std::size_t pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << "needle not found: " << from;
  if (pos != std::string::npos) text.replace(pos, from.size(), to);
  return text;
}

TEST_F(JsonlTest, EveryFamilyRejectsAnotherVersion) {
  struct Case {
    const char* family;
    const char* written;
    const char* other;
    void (*parse)(const std::string&);
  };
  const Case cases[] = {
      {"audit", "\"version\":1", "\"version\":2",
       [](const std::string& t) { parse_provenance_jsonl(t); }},
      {"flight", "\"version\":1", "\"version\":2",
       [](const std::string& t) { parse_provenance_jsonl(t); }},
      {"timeline", "\"version\":1", "\"version\":2",
       [](const std::string& t) { parse_timeline_jsonl(t); }},
      {"timeseries", "\"version\":1", "\"version\":2",
       [](const std::string& t) { parse_timeseries_jsonl(t); }},
      {"invariants", "\"version\":1", "\"version\":2",
       [](const std::string& t) { parse_invariants_jsonl(t); }},
      {"sketch", "\"version\":2", "\"version\":1",
       [](const std::string& t) { parse_sketch_jsonl(t); }},
  };
  for (const Case& c : cases) {
    const std::string good = read_golden(c.family);
    EXPECT_NO_THROW(c.parse(good)) << c.family;
    EXPECT_THROW(c.parse(replace_first(good, c.written, c.other)), CheckError)
        << c.family << " accepted " << c.other;
  }
}

TEST_F(JsonlTest, UnknownTypeAndMissingFieldsAreRejected) {
  const std::string good = read_golden("invariants");
  EXPECT_THROW(parse_invariants_jsonl(
                   replace_first(good, "\"type\":\"check\"", "\"type\":\"x\"")),
               CheckError);
  EXPECT_THROW(parse_invariants_jsonl(
                   replace_first(good, "\"tolerance\":", "\"tol\":")),
               CheckError);
  EXPECT_THROW(parse_invariants_jsonl(
                   replace_first(good, "\"little_rel\":", "\"little\":")),
               CheckError);
  EXPECT_THROW(parse_invariants_jsonl(replace_first(
                   good, "\"law\":\"little\"", "\"law\":\"gravity\"")),
               CheckError);
  // A second summary line, or any record after the summary.
  const std::size_t cut = good.find("{\"type\":\"summary\"");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_THROW(parse_invariants_jsonl(good + good.substr(cut)), CheckError);
}

TEST_F(JsonlTest, ArtifactReaderNamesMissingAndEmptyFiles) {
  const std::string missing = "/no/such/dir/artifact.jsonl";
  try {
    read_artifact_file(missing);
    ADD_FAILURE() << "missing file was read";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("missing or unreadable"),
              std::string::npos);
  }
  const std::string empty = ::testing::TempDir() + "mmr_empty_artifact.jsonl";
  write_artifact_file(empty, [](std::ostream& os) { os << " \n"; });
  try {
    read_artifact_file(empty);
    ADD_FAILURE() << "empty file was read";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("is empty"), std::string::npos);
  }
  std::remove(empty.c_str());
}

}  // namespace
}  // namespace mmr
