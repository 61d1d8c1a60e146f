// Shared pieces of the end-to-end benchmark: command line, timing and
// percentiles, the result line, the span recorder, the timing Env
// wrapper, the bus probe, and the seeded inputs.
//
// Everything here observes the engine from outside: through the Env it
// is handed, the EventSink it publishes to, its public stats structs,
// and timers around calls into its public functions. Nothing under
// src/ knows the benchmark exists.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "capture/bus.hpp"
#include "capture/events.hpp"
#include "storage/env.hpp"
#include "util/status.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using bp::util::Result;
using bp::util::Status;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;        // scratch directory the run owns
  std::string trace_out;  // where the traced run writes its spans
};

// Latency samples; percentiles by nearest rank on a sorted copy.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Quantile(double q) const;

 private:
  std::vector<double> values_;
};

// Samples filled from several threads.
class SharedSamples {
 public:
  void Add(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.Add(v);
  }
  Samples Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_;
  }

 private:
  std::mutex mu_;
  Samples samples_;
};

// The run's outcome: the last line the benchmark prints.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  // A failed output check: the run is reported incorrect.
  void Fail(const std::string& what);
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void FailedOp(uint64_t n = 1) { failed_ += n; }
  // The result line. Per-layer metrics are named module.metric and
  // end-to-end ones carry no dot; a traced run reports only the former,
  // an untraced run only the latter.
  std::string Json(bool per_layer) const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

// Exits the process with a message when `status` is an error: a call
// that fails is a broken run, not a measurement.
void Must(const Status& status, const char* what);
template <typename T>
T Must(Result<T> result, const char* what) {
  Must(result.status(), what);
  return std::move(result).value();
}

// ----------------------------------------------------------- tracing

// One timed interval. `request` ties spans of one request together: an
// event index on the write path, a query id on the read path.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint32_t thread = 0;
  int32_t file = -1;  // TimingEnv file index, -1 for non-I/O spans
};

// Keeps spans in memory (up to a cap; the rest are counted as dropped)
// and writes them out once, at the end of the run. Disabled tracers
// record nothing and cost one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const Span& span);
  int32_t FileIndex(const std::string& name);
  // Writes one JSON object per line; returns the number written.
  size_t WriteJsonLines(const std::string& path);

  // The innermost open span and request on the calling thread.
  static uint64_t& CurrentSpan();
  static uint64_t& CurrentRequest();
  static uint32_t ThreadNumber();

 private:
  static constexpr size_t kMaxSpans = 3'000'000;
  const bool enabled_;
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  std::vector<std::string> files_;
};

// RAII span around a call into one layer; nests on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  Span span_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

// ---------------------------------------------------- timing Env

// Counters for one class of file (write-ahead log streams or the main
// database file).
struct IoCounters {
  uint64_t reads = 0;
  uint64_t read_ns = 0;
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  uint64_t write_ns = 0;
  uint64_t syncs = 0;
  uint64_t sync_ns = 0;

  IoCounters operator+(const IoCounters& o) const {
    return {reads + o.reads,         read_ns + o.read_ns,
            writes + o.writes,       write_bytes + o.write_bytes,
            write_ns + o.write_ns,   syncs + o.syncs,
            sync_ns + o.sync_ns};
  }
  IoCounters operator-(const IoCounters& o) const {
    return {reads - o.reads,         read_ns - o.read_ns,
            writes - o.writes,       write_bytes - o.write_bytes,
            write_ns - o.write_ns,   syncs - o.syncs,
            sync_ns - o.sync_ns};
  }
};

struct IoSnapshot {
  IoCounters wal;   // files whose name contains ".wal"
  IoCounters main;  // every other file (the database file)
  IoSnapshot operator+(const IoSnapshot& o) const {
    return {wal + o.wal, main + o.main};
  }
  IoSnapshot operator-(const IoSnapshot& o) const {
    return {wal - o.wal, main - o.main};
  }
};

// Wraps Env::Posix(): times and counts every Read, Write and Sync, and
// records each as a span when the tracer is on. WAL fsync latencies are
// kept as samples.
class TimingEnv : public bp::storage::Env {
 public:
  TimingEnv(bp::storage::Env* base, Tracer& tracer)
      : base_(base), tracer_(tracer) {}

  Result<std::unique_ptr<bp::storage::File>> Open(
      const std::string& name) override;
  Status Remove(const std::string& name) override {
    return base_->Remove(name);
  }
  bool Exists(const std::string& name) const override {
    return base_->Exists(name);
  }

  IoSnapshot Counters() const;
  // WAL fsync latencies (us) recorded since the last call.
  Samples TakeWalSyncUs() { return wal_sync_us_.Take(); }

  // Called by the wrapped files.
  void OnIo(bool wal, int kind, uint64_t bytes, int64_t start_ns,
            int64_t end_ns, int32_t file);
  // Number of writes to WAL files so far: the committer's batch
  // boundary marker for the bus probe.
  uint64_t wal_writes() const {
    return counters_[1].writes.load(std::memory_order_acquire);
  }

 private:
  struct AtomicCounters {
    std::atomic<uint64_t> reads{0}, read_ns{0};
    std::atomic<uint64_t> writes{0}, write_bytes{0}, write_ns{0};
    std::atomic<uint64_t> syncs{0}, sync_ns{0};
  };
  bp::storage::Env* base_;
  Tracer& tracer_;
  AtomicCounters counters_[2];  // [0] main, [1] wal
  SharedSamples wal_sync_us_;
};

// ------------------------------------------------------- bus probe

// Subscribed to ProvenanceDb::bus() behind the recorder, so it runs on
// the committer thread right after each event was recorded. Stamps the
// hand-off time of every event and the gap since the previous event of
// the same batch (a WAL write in between marks a batch boundary).
class BusProbe : public bp::capture::EventSink {
 public:
  BusProbe(Tracer& tracer, TimingEnv* env, size_t events)
      : tracer_(tracer), env_(env), seen_ns_(events, 0) {}
  Status OnEvent(const bp::capture::BrowserEvent& event) override;

  uint64_t seen() const { return seen_; }
  const std::vector<int64_t>& seen_ns() const { return seen_ns_; }
  const Samples& record_gap_us() const { return record_gap_us_; }

 private:
  Tracer& tracer_;
  TimingEnv* env_;
  std::vector<int64_t> seen_ns_;
  uint64_t seen_ = 0;
  int64_t last_ns_ = 0;
  uint64_t last_wal_writes_ = 0;
  Samples record_gap_us_;
};

// ---------------------------------------------------------- inputs

// One user's simulated history, cut at a session boundary.
struct History {
  std::vector<bp::capture::BrowserEvent> events;
  // Index of the last event of each session. A session ends at an idle
  // gap of at least kSessionGapMs of simulated time.
  std::vector<size_t> session_ends;
  uint64_t visits = 0, searches = 0, downloads = 0;
  std::vector<std::string> queries;    // every SearchEvent query, in order
  std::vector<std::string> urls;       // distinct visited URLs
  // Per download: candidate pages it descends from (the trigger page and
  // up to two referrers above it), for DescendantDownloads inputs.
  std::vector<std::vector<std::string>> download_sources;
};

inline constexpr int64_t kSessionGapMs = 5 * 60 * 1000;

// A history of at least `min_events` events, cut at the first session
// end at or past it. Every user browses the same simulated web.
History MakeHistoryByEvents(uint64_t user_seed, size_t min_events);
// A history of exactly `sessions` sessions.
History MakeHistoryBySessions(uint64_t user_seed, size_t sessions);

// ------------------------------------------------------------ misc

// Bytes the file system allocated (st_blocks) to the regular files in
// `dir`.
uint64_t AllocatedBytes(const std::string& dir);
void RemoveTree(const std::string& path);
void MakeDir(const std::string& path);
// Copies the regular files of directory `from` into a new directory `to`.
void CopyFiles(const std::string& from, const std::string& to);
double PeakRssMib();

}  // namespace perfbench
