// Shared fixtures: hand-built tiny systems with numbers chosen so every
// cost-model quantity is easy to verify by hand, plus a shrunken Table 1
// parameter set for fast randomized tests.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "io/jsonl.h"
#include "model/system.h"
#include "util/json.h"
#include "workload/params.h"

namespace mmr::testing {

inline constexpr std::uint64_t kKB = 1024;
inline constexpr std::uint64_t kMB = 1024 * kKB;

/// One server, one page, two compulsory + one optional object.
///
/// Server: ovhd_local = 1, ovhd_repo = 2, local_rate = 100 B/s,
///         repo_rate = 10 B/s, storage = 10 kB, proc = 100 req/s.
/// Page: html = 200 B, f = 2 req/s, optional_scale = 1.
/// Objects: M0 = 300 B, M1 = 500 B (compulsory), M2 = 400 B (optional,
/// probability 0.25).
///
/// Hand numbers (all-remote): Eq.3 = 1 + 200/100 = 3; Eq.4 = 2 + 800/10 = 82;
/// Eq.5 = 82; Eq.6 = 0.25 * (2 + 400/10) = 10.5.
inline SystemModel tiny_system(double proc_capacity = 100.0,
                               std::uint64_t storage = 10 * kKB,
                               double repo_capacity = kUnlimited) {
  SystemModel sys;
  Server s;
  s.proc_capacity = proc_capacity;
  s.storage_capacity = storage;
  s.ovhd_local = 1.0;
  s.ovhd_repo = 2.0;
  s.local_rate = 100.0;
  s.repo_rate = 10.0;
  sys.add_server(s);
  sys.set_repository({repo_capacity});

  const ObjectId m0 = sys.add_object({300});
  const ObjectId m1 = sys.add_object({500});
  const ObjectId m2 = sys.add_object({400});

  Page p;
  p.host = 0;
  p.html_bytes = 200;
  p.frequency = 2.0;
  p.compulsory = {m0, m1};
  p.optional = {{m2, 0.25}};
  sys.add_page(std::move(p));
  sys.finalize();
  return sys;
}

/// Two servers, three pages, five objects with cross-page sharing — used by
/// restoration/offload tests. Numbers stay small and round.
inline SystemModel two_server_system(double proc_capacity = 1000.0,
                                     std::uint64_t storage = 100 * kKB,
                                     double repo_capacity = kUnlimited) {
  SystemModel sys;
  Server a;
  a.proc_capacity = proc_capacity;
  a.storage_capacity = storage;
  a.ovhd_local = 1.0;
  a.ovhd_repo = 2.0;
  a.local_rate = 1000.0;
  a.repo_rate = 100.0;
  sys.add_server(a);

  Server b = a;
  b.ovhd_local = 1.5;
  b.ovhd_repo = 2.5;
  b.local_rate = 500.0;
  b.repo_rate = 50.0;
  sys.add_server(b);

  sys.set_repository({repo_capacity});

  const ObjectId big = sys.add_object({40 * kKB});
  const ObjectId mid = sys.add_object({10 * kKB});
  const ObjectId small = sys.add_object({2 * kKB});
  const ObjectId shared = sys.add_object({8 * kKB});
  const ObjectId extra = sys.add_object({5 * kKB});

  Page p0;  // hot page on server 0
  p0.host = 0;
  p0.html_bytes = 1 * kKB;
  p0.frequency = 5.0;
  p0.compulsory = {big, shared};
  p0.optional = {{extra, 0.1}};
  sys.add_page(std::move(p0));

  Page p1;  // cold page on server 0 sharing `shared`
  p1.host = 0;
  p1.html_bytes = 2 * kKB;
  p1.frequency = 1.0;
  p1.compulsory = {mid, shared, small};
  sys.add_page(std::move(p1));

  Page p2;  // page on server 1
  p2.host = 1;
  p2.html_bytes = 1 * kKB;
  p2.frequency = 2.0;
  p2.compulsory = {big, small};
  p2.optional = {{extra, 0.2}};
  sys.add_page(std::move(p2));

  sys.finalize();
  return sys;
}

/// Shrunken Table 1 parameters: same structure, ~30x smaller, for fast
/// randomized and integration tests.
inline WorkloadParams small_params() {
  WorkloadParams p;
  p.num_servers = 3;
  p.min_pages_per_server = 20;
  p.max_pages_per_server = 40;
  p.num_objects = 600;
  p.min_objects_per_server = 150;
  p.max_objects_per_server = 250;
  p.min_compulsory_per_page = 3;
  p.max_compulsory_per_page = 12;
  p.min_optional_per_page = 4;
  p.max_optional_per_page = 10;
  p.server_proc_capacity = kUnlimited;
  p.page_requests_per_sec_per_server = 5.0;
  return p;
}

/// A record visitor for the parse_*_jsonl / read_*_file readers that keeps
/// a copy of each record line in `out`, in file order; only lines of `type`
/// when one is given.
inline JsonlVisitor collect_records(std::vector<JsonValue>& out,
                                    std::string type = "") {
  return [&out, type = std::move(type)](const JsonValue& record) {
    if (type.empty() || record.at("type").str_v == type) out.push_back(record);
  };
}

}  // namespace mmr::testing
