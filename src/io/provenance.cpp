#include "io/provenance.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <ostream>
#include <tuple>
#include <utility>

#include "util/check.h"
#include "util/memacct.h"

namespace mmr {

namespace {

std::atomic<bool> g_audit_enabled{false};
std::atomic<bool> g_flight_enabled{false};
std::atomic<std::uint32_t> g_flight_sample_every{100};
std::atomic<std::uint64_t> g_next_scenario{0};

thread_local std::uint64_t t_provenance_run = kProvenanceNoRun;

/// Repository headroom rows use kInvalidId internally; the artifact writes
/// them as -1 so consumers need no knowledge of the sentinel.
std::int64_t server_field(ServerId i) {
  return i == kInvalidId ? -1 : static_cast<std::int64_t>(i);
}

}  // namespace

bool audit_enabled() {
  return g_audit_enabled.load(std::memory_order_relaxed);
}
void set_audit_enabled(bool on) {
  g_audit_enabled.store(on, std::memory_order_relaxed);
}

bool flight_enabled() {
  return g_flight_enabled.load(std::memory_order_relaxed);
}
void set_flight_enabled(bool on) {
  g_flight_enabled.store(on, std::memory_order_relaxed);
}

std::uint32_t flight_sample_every() {
  return g_flight_sample_every.load(std::memory_order_relaxed);
}
void set_flight_sample_every(std::uint32_t every) {
  g_flight_sample_every.store(every == 0 ? 1 : every,
                              std::memory_order_relaxed);
}

ProvenanceRunScope::ProvenanceRunScope(std::uint64_t run)
    : prev_(t_provenance_run) {
  t_provenance_run = run;
}

ProvenanceRunScope::~ProvenanceRunScope() { t_provenance_run = prev_; }

std::uint64_t current_provenance_run() { return t_provenance_run; }

std::uint64_t provenance_run_or_zero() {
  return t_provenance_run == kProvenanceNoRun ? 0 : t_provenance_run;
}

std::uint64_t next_provenance_scenario() {
  return g_next_scenario.fetch_add(1, std::memory_order_relaxed);
}

void set_next_provenance_scenario(std::uint64_t value) {
  g_next_scenario.store(value, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Capped event store shared by AuditLog and FlightLog

namespace {

// Canonical order: producers record per-entity step sequences, so sorting
// by (run, policy, entity, step) fully determines the artifact bytes
// regardless of which worker thread appended first.

bool canonical_less(const PartitionDecision& a, const PartitionDecision& b) {
  return std::tie(a.run, a.policy, a.page, a.step) <
         std::tie(b.run, b.policy, b.page, b.step);
}
bool canonical_less(const EvictionEvent& a, const EvictionEvent& b) {
  return std::tie(a.run, a.policy, a.server, a.step) <
         std::tie(b.run, b.policy, b.server, b.step);
}
bool canonical_less(const UnmarkEvent& a, const UnmarkEvent& b) {
  return std::tie(a.run, a.policy, a.server, a.step) <
         std::tie(b.run, b.policy, b.server, b.step);
}
bool canonical_less(const OffloadRoundEvent& a, const OffloadRoundEvent& b) {
  return std::tie(a.run, a.policy, a.round) <
         std::tie(b.run, b.policy, b.round);
}
bool canonical_less(const OffloadAnswerEvent& a, const OffloadAnswerEvent& b) {
  return std::tie(a.run, a.policy, a.round, a.server) <
         std::tie(b.run, b.policy, b.round, b.server);
}
bool canonical_less(const HeadroomStamp& a, const HeadroomStamp& b) {
  return std::tie(a.run, a.policy, a.phase, a.server) <
         std::tie(b.run, b.policy, b.phase, b.server);
}
bool canonical_less(const ReplicaDegreeEvent& a, const ReplicaDegreeEvent& b) {
  return std::tie(a.run, a.policy, a.object) <
         std::tie(b.run, b.policy, b.object);
}
bool canonical_less(const FlightRecord& a, const FlightRecord& b) {
  return std::tie(a.run, a.policy, a.mode, a.server, a.index) <
         std::tie(b.run, b.policy, b.mode, b.server, b.index);
}

/// Sorts a vector of one event kind into canonical order.
template <typename T>
void sort_canonical(std::vector<T>& events) {
  std::sort(events.begin(), events.end(),
            [](const T& a, const T& b) { return canonical_less(a, b); });
}

/// The buffered events of one kind. Once a shed has cut the first cap
/// record lines inside this kind, `bound` is the smallest event it shed;
/// once the cut lies in an earlier kind, the kind is `closed`. Arriving
/// events at or past either can no longer be among the first cap lines, so
/// they are dropped on arrival instead of buffered.
template <typename T>
struct KindBuffer {
  std::vector<T> events;
  std::optional<T> bound;
  bool closed = false;

  /// Removes from `batch` the events that cannot be kept; returns how many.
  std::size_t reject(std::vector<T>& batch) const {
    if (closed) return std::exchange(batch, {}).size();
    if (!bound) return 0;
    return std::erase_if(
        batch, [&](const T& e) { return !canonical_less(e, *bound); });
  }
};

/// Thread-unsafe core of the audit and flight logs: one KindBuffer per
/// record kind, in the order the artifact writes them. A capped artifact is
/// defined as the first `cap` record lines of the uncapped one (canonical
/// order, kinds in artifact order), so it is byte-identical at any thread
/// count. The store buffers up to cap + cap / 16 events and then sheds down
/// to exactly those events with a linear-time selection; size() and
/// dropped() report the capped view of what is buffered.
template <typename... Kinds>
class CappedStore {
 public:
  explicit CappedStore(std::size_t cap) : cap_(cap) {}

  template <typename T>
  void append(std::vector<T>&& batch) {
    KindBuffer<T>& kind = std::get<KindBuffer<T>>(kinds_);
    dropped_ += kind.reject(batch);
    const std::uint64_t bytes = batch.size() * sizeof(T);
    memacct::charge(memacct::Category::kProvenanceBuffers, bytes);
    held_bytes_ += bytes;
    kind.events.insert(kind.events.end(),
                       std::make_move_iterator(batch.begin()),
                       std::make_move_iterator(batch.end()));
    held_ += batch.size();
    if (held_ - std::min(held_, cap_) > cap_ / 16) shed();
  }

  /// The kept events of one kind, canonically sorted.
  template <typename T>
  std::vector<T> sorted() {
    if (held_ > cap_) shed();
    std::vector<T> out = std::get<KindBuffer<T>>(kinds_).events;
    sort_canonical(out);
    return out;
  }

  std::size_t size() const { return std::min(held_, cap_); }
  std::uint64_t dropped() const { return dropped_ + (held_ - size()); }
  /// A new cap re-admits every kind: the recorded cuts were for the old one.
  void set_cap(std::size_t cap) {
    cap_ = cap;
    std::apply(
        [](auto&... kind) { ((kind.bound.reset(), kind.closed = false), ...); },
        kinds_);
  }

  void clear() {
    kinds_ = {};
    held_ = 0;
    dropped_ = 0;
    memacct::release(memacct::Category::kProvenanceBuffers, held_bytes_);
    held_bytes_ = 0;
  }

 private:
  /// Keeps the canonically first cap_ events across the kinds and records
  /// where the cut fell (KindBuffer::bound / closed). Only called with more
  /// than cap_ events held.
  void shed() {
    std::size_t room = cap_;
    bool cut = false;
    std::apply([&](auto&... kind) { (shed_kind(kind, room, cut), ...); },
               kinds_);
    held_ = cap_;
  }

  template <typename T>
  void shed_kind(KindBuffer<T>& kind, std::size_t& room, bool& cut) {
    std::vector<T>& events = kind.events;
    if (!cut && events.size() <= room) {
      room -= events.size();
      return;
    }
    if (cut) {  // the first cap lines end in an earlier kind
      kind.bound.reset();
      kind.closed = true;
    } else {
      std::nth_element(
          events.begin(), events.begin() + static_cast<std::ptrdiff_t>(room),
          events.end(),
          [](const T& a, const T& b) { return canonical_less(a, b); });
      kind.bound = events[room];  // the smallest event shed
      cut = true;
    }
    const std::size_t removed = events.size() - room;
    events.resize(room);
    room = 0;
    dropped_ += removed;
    memacct::release(memacct::Category::kProvenanceBuffers,
                     removed * sizeof(T));
    held_bytes_ -= removed * sizeof(T);
  }

  std::tuple<KindBuffer<Kinds>...> kinds_;
  std::size_t cap_;
  std::size_t held_ = 0;        ///< events buffered
  std::uint64_t dropped_ = 0;   ///< events shed or rejected
  std::uint64_t held_bytes_ = 0;  ///< memacct provenance.buffers charge
};

}  // namespace

// ---------------------------------------------------------------------------
// AuditLog

struct AuditLog::Impl {
  mutable std::mutex mutex;
  CappedStore<PartitionDecision, EvictionEvent, UnmarkEvent,
              OffloadRoundEvent, OffloadAnswerEvent, HeadroomStamp,
              ReplicaDegreeEvent>
      store{1'000'000};

  template <typename T>
  void append(std::vector<T>&& batch) {
    std::lock_guard<std::mutex> lock(mutex);
    store.append(std::move(batch));
  }
};

AuditLog::Impl& AuditLog::impl() const {
  // One shared Impl per AuditLog would normally live as a member; the log is
  // a process-wide singleton, so a function-local leaked Impl keeps the
  // header dependency-free and teardown-safe (mirrors global_metrics()).
  static Impl* impl = new Impl();
  return *impl;
}

void AuditLog::add_partitions(std::vector<PartitionDecision>&& batch) {
  impl().append(std::move(batch));
}
void AuditLog::add_evictions(std::vector<EvictionEvent>&& batch) {
  impl().append(std::move(batch));
}
void AuditLog::add_unmarks(std::vector<UnmarkEvent>&& batch) {
  impl().append(std::move(batch));
}
void AuditLog::add_offload_rounds(std::vector<OffloadRoundEvent>&& batch) {
  impl().append(std::move(batch));
}
void AuditLog::add_offload_answers(std::vector<OffloadAnswerEvent>&& batch) {
  impl().append(std::move(batch));
}
void AuditLog::add_headroom(std::vector<HeadroomStamp>&& batch) {
  impl().append(std::move(batch));
}
void AuditLog::add_replicas(std::vector<ReplicaDegreeEvent>&& batch) {
  impl().append(std::move(batch));
}

void AuditLog::clear() {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.store.clear();
}

std::size_t AuditLog::size() const {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.store.size();
}

std::uint64_t AuditLog::dropped() const {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.store.dropped();
}

void AuditLog::set_max_events(std::size_t max_events) {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.store.set_cap(max_events);
}

AuditSnapshot AuditLog::snapshot() const {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  AuditSnapshot out;
  out.partitions = s.store.sorted<PartitionDecision>();
  out.evictions = s.store.sorted<EvictionEvent>();
  out.unmarks = s.store.sorted<UnmarkEvent>();
  out.offload_rounds = s.store.sorted<OffloadRoundEvent>();
  out.offload_answers = s.store.sorted<OffloadAnswerEvent>();
  out.headroom = s.store.sorted<HeadroomStamp>();
  out.replicas = s.store.sorted<ReplicaDegreeEvent>();
  out.dropped = s.store.dropped();
  return out;
}

AuditLog& global_audit_log() {
  static AuditLog* log = new AuditLog();
  return *log;
}

// ---------------------------------------------------------------------------
// FlightLog

const char* flight_mode_name(FlightMode mode) {
  switch (mode) {
    case FlightMode::kStatic: return "static";
    case FlightMode::kLru: return "lru";
    case FlightMode::kThreshold: return "threshold";
    case FlightMode::kDes: return "des";
  }
  return "unknown";
}

struct FlightLog::Impl {
  mutable std::mutex mutex;
  CappedStore<FlightRecord> store{1'000'000};
};

FlightLog::Impl& FlightLog::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

void FlightLog::add(std::vector<FlightRecord>&& batch) {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.store.append(std::move(batch));
}

void FlightLog::clear() {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.store.clear();
}

std::size_t FlightLog::size() const {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.store.size();
}

std::uint64_t FlightLog::dropped() const {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.store.dropped();
}

void FlightLog::set_max_records(std::size_t max_records) {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.store.set_cap(max_records);
}

std::vector<FlightRecord> FlightLog::snapshot() const {
  Impl& s = impl();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.store.sorted<FlightRecord>();
}

FlightLog& global_flight_log() {
  static FlightLog* log = new FlightLog();
  return *log;
}

// ---------------------------------------------------------------------------
// Writers

namespace {

/// The fields every audit/flight record carries after its type.
void write_event_prefix(JsonWriter& w, std::uint64_t run,
                        const std::string& policy) {
  w.kv("run", run);
  w.kv("policy", policy);
}

}  // namespace

void write_audit_jsonl(std::ostream& os, const AuditSnapshot& snapshot,
                       const RunMeta& meta) {
  write_jsonl_header(os, "mmr-audit", kProvenanceVersion, meta);
  for (const PartitionDecision& e : snapshot.partitions) {
    write_jsonl_record(os, "partition", [&](JsonWriter& w) {
      write_event_prefix(w, e.run, e.policy);
      w.kv("page", static_cast<std::uint64_t>(e.page));
      w.kv("server", server_field(e.server));
      w.kv("object", static_cast<std::uint64_t>(e.object));
      w.kv("step", static_cast<std::uint64_t>(e.step));
      w.kv("local", e.local);
      w.kv("gain", e.gain);
      w.kv("d1_before", e.d1_before);
      w.kv("d1_after", e.d1_after);
      w.kv("local_after", e.local_after);
      w.kv("remote_after", e.remote_after);
    });
  }
  for (const EvictionEvent& e : snapshot.evictions) {
    write_jsonl_record(os, "evict", [&](JsonWriter& w) {
      write_event_prefix(w, e.run, e.policy);
      w.kv("server", server_field(e.server));
      w.kv("object", static_cast<std::uint64_t>(e.object));
      w.kv("step", static_cast<std::uint64_t>(e.step));
      w.kv("criterion", e.criterion);
      w.kv("bytes", e.bytes);
      w.kv("marks_cleared", static_cast<std::uint64_t>(e.marks_cleared));
      w.kv("repartitioned_pages",
           static_cast<std::uint64_t>(e.repartitioned_pages));
      w.kv("repartition_improvements",
           static_cast<std::uint64_t>(e.repartition_improvements));
      w.kv("storage_before", e.storage_before);
      w.kv("storage_after", e.storage_after);
    });
  }
  for (const UnmarkEvent& e : snapshot.unmarks) {
    write_jsonl_record(os, "unmark", [&](JsonWriter& w) {
      write_event_prefix(w, e.run, e.policy);
      w.kv("server", server_field(e.server));
      w.kv("page", static_cast<std::uint64_t>(e.page));
      w.kv("object", static_cast<std::uint64_t>(e.object));
      w.kv("compulsory", e.compulsory);
      w.kv("step", static_cast<std::uint64_t>(e.step));
      w.kv("criterion", e.criterion);
      w.kv("load_before", e.load_before);
      w.kv("load_after", e.load_after);
    });
  }
  for (const OffloadRoundEvent& e : snapshot.offload_rounds) {
    write_jsonl_record(os, "offload_round", [&](JsonWriter& w) {
      write_event_prefix(w, e.run, e.policy);
      w.kv("round", static_cast<std::uint64_t>(e.round));
      w.kv("repo_load_before", e.repo_load_before);
      w.kv("deficit", e.deficit);
      w.kv("l1", static_cast<std::uint64_t>(e.l1));
      w.kv("l2", static_cast<std::uint64_t>(e.l2));
      w.kv("l3", static_cast<std::uint64_t>(e.l3));
    });
  }
  for (const OffloadAnswerEvent& e : snapshot.offload_answers) {
    write_jsonl_record(os, "offload_answer", [&](JsonWriter& w) {
      write_event_prefix(w, e.run, e.policy);
      w.kv("round", static_cast<std::uint64_t>(e.round));
      w.kv("server", server_field(e.server));
      w.kv("requested", e.requested);
      w.kv("achieved", e.achieved);
      w.kv("moved_to_l3", e.moved_to_l3);
    });
  }
  for (const HeadroomStamp& e : snapshot.headroom) {
    write_jsonl_record(os, "headroom", [&](JsonWriter& w) {
      write_event_prefix(w, e.run, e.policy);
      w.kv("phase", kAuditPhaseNames[e.phase]);
      w.kv("server", server_field(e.server));
      // Unlimited capacity serializes as null (JsonWriter maps non-finite
      // doubles to null).
      w.kv("proc_load", e.proc_load);
      w.kv("proc_capacity", e.proc_capacity);
      w.key("proc_headroom");
      if (e.proc_capacity == kUnlimited) {
        w.null();
      } else {
        w.value(e.proc_capacity - e.proc_load);
      }
      if (e.server != kInvalidId) {
        w.kv("storage_used", e.storage_used);
        w.kv("storage_capacity", e.storage_capacity);
        w.kv("storage_headroom",
             static_cast<std::int64_t>(e.storage_capacity) -
                 static_cast<std::int64_t>(e.storage_used));
      }
    });
  }
  for (const ReplicaDegreeEvent& e : snapshot.replicas) {
    write_jsonl_record(os, "replica", [&](JsonWriter& w) {
      write_event_prefix(w, e.run, e.policy);
      w.kv("object", static_cast<std::uint64_t>(e.object));
      w.kv("degree", static_cast<std::uint64_t>(e.degree));
      w.kv("bytes", e.bytes);
    });
  }
  write_jsonl_summary(os, "events", snapshot.total_events(), snapshot.dropped);
}

void write_audit_file(const std::string& path, const AuditLog& log,
                      const RunMeta& meta) {
  const AuditSnapshot snapshot = log.snapshot();
  write_artifact_file(path, [&](std::ostream& os) {
    write_audit_jsonl(os, snapshot, meta);
  });
}

void write_flight_jsonl(std::ostream& os,
                        const std::vector<FlightRecord>& records,
                        std::uint64_t dropped, const RunMeta& meta) {
  write_jsonl_header(os, "mmr-flight", kProvenanceVersion, meta,
                     [](JsonWriter& w) {
                       w.kv("sample_every", static_cast<std::uint64_t>(
                                                flight_sample_every()));
                     });
  for (const FlightRecord& r : records) {
    write_jsonl_record(os, "request", [&](JsonWriter& w) {
      write_event_prefix(w, r.run, r.policy);
      w.kv("mode", flight_mode_name(r.mode));
      w.kv("server", server_field(r.server));
      w.kv("page", static_cast<std::uint64_t>(r.page));
      w.kv("index", static_cast<std::uint64_t>(r.index));
      w.kv("t_local", r.t_local);
      w.kv("t_remote", r.t_remote);
      w.kv("response", r.response);
      w.kv("bound", r.remote_bound ? "remote" : "local");
      w.kv("local_stretch", r.local_stretch);
      w.kv("repo_stretch", r.repo_stretch);
      w.kv("optional_requested",
           static_cast<std::uint64_t>(r.optional_requested));
      w.kv("optional_time", r.optional_time);
      w.kv("cache_hits", static_cast<std::uint64_t>(r.cache_hits));
      w.kv("cache_misses", static_cast<std::uint64_t>(r.cache_misses));
      w.kv("throttled", static_cast<std::uint64_t>(r.throttled));
      if (r.mode == FlightMode::kDes) {
        w.kv("local_wait", r.local_wait);
        w.kv("local_service", r.local_service);
        w.kv("repo_wait", r.repo_wait);
        w.kv("repo_service", r.repo_service);
        w.kv("queue_depth", static_cast<std::uint64_t>(r.queue_depth));
      }
    });
  }
  write_jsonl_summary(os, "events", records.size(), dropped);
}

void write_flight_file(const std::string& path, const FlightLog& log,
                       const RunMeta& meta) {
  const std::vector<FlightRecord> records = log.snapshot();
  const std::uint64_t dropped = log.dropped();
  write_artifact_file(path, [&](std::ostream& os) {
    write_flight_jsonl(os, records, dropped, meta);
  });
}

// ---------------------------------------------------------------------------
// Parser

ProvenanceDoc parse_provenance_jsonl(const std::string& text,
                                     const JsonlVisitor& on_record) {
  static const JsonlFormat kFormats[] = {
      {.schema = "mmr-audit",
       .version = kProvenanceVersion,
       .record_fields = {"run", "policy"},
       .records =
           {{"partition",
             {"page", "server", "object", "step", "local", "gain", "d1_before",
              "d1_after", "local_after", "remote_after"}},
            {"evict",
             {"server", "object", "step", "criterion", "bytes",
              "marks_cleared", "repartitioned_pages",
              "repartition_improvements", "storage_before", "storage_after"}},
            {"unmark",
             {"server", "page", "object", "compulsory", "step", "criterion",
              "load_before", "load_after"}},
            {"offload_round",
             {"round", "repo_load_before", "deficit", "l1", "l2", "l3"}},
            {"offload_answer",
             {"round", "server", "requested", "achieved", "moved_to_l3"}},
            {"headroom",
             {"phase", "server", "proc_load", "proc_capacity",
              "proc_headroom"}},
            {"replica", {"object", "degree", "bytes"}}}},
      {.schema = "mmr-flight",
       .version = kProvenanceVersion,
       .header_fields = {"sample_every"},
       .record_fields = {"run", "policy"},
       .records = {{"request",
                    {"mode", "server", "page", "index", "t_local", "t_remote",
                     "response", "bound", "local_stretch", "repo_stretch",
                     "optional_requested", "optional_time", "cache_hits",
                     "cache_misses", "throttled"}}}},
  };
  ProvenanceDoc doc;
  JsonlHooks hooks;
  hooks.record = [&](const JsonValue& v, std::size_t) {
    if (on_record) on_record(v);
  };
  parse_jsonl(text, kFormats, doc, hooks);
  return doc;
}

}  // namespace mmr
