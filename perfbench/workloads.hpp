// The three workloads and the pieces they share: the capture loop and
// the metric reports.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "harness.hpp"
#include "prov/provenance_db.hpp"
#include "queries.hpp"

namespace perfbench {

// Sizes of the inputs. A capture history is about 79 simulated days, the
// scale of the paper's own history; a fleet profile is 24 sessions.
inline constexpr size_t kHistoryEvents = 40'000;
inline constexpr size_t kFleetProfiles = 16;
inline constexpr size_t kFleetSessions = 24;
// Queries in a seeded mix: one pass gives 2000 text and 1000 lineage
// samples, and the tails rest on many distinct inputs. recall answers
// each once in set-up, with the pool disabled, then repeats the mix.
inline constexpr size_t kMixQueries = 3000;
// Every p99 has at least ten samples beyond it.
inline constexpr size_t kTailSamples = 1000;
// recall's pool, well below the history's ~6.5 MB of pages.
inline constexpr size_t kRecallPoolBytes = 1 << 20;

// State of one benchmark process.
struct Run {
  explicit Run(Args a) : args(std::move(a)), tracer(args.trace) {
    if (args.trace) env = std::make_unique<TimingEnv>(bp::storage::Env::Posix(), tracer);
  }
  // Options{} with the timing Env in traced runs.
  bp::prov::ProvenanceDb::Options DbOptions() const {
    bp::prov::ProvenanceDb::Options options;
    if (env != nullptr) options.db.env = env.get();
    return options;
  }
  // Reader threads: a few, and never more than the host has cores.
  int Readers() const;

  const Args args;
  const Clock::time_point start = Clock::now();
  Tracer tracer;
  std::unique_ptr<TimingEnv> env;  // traced runs only
  Report report;
};

// Write-path totals over every history captured by one run.
struct WriteTotals {
  uint64_t events = 0;
  double busy_s = 0;  // first enqueue to the last Flush returning
  Samples enqueue_us, durable_ms;
  // Traced runs only.
  Samples queue_wait_us, record_gap_us, wal_sync_us;
  uint64_t commits = 0, pages_written = 0, batches = 0, early_flushes = 0,
           blocked_enqueues = 0;
  IoSnapshot io;
};

// Opens `path` with Options{}, replays `h` through IngestAsync as fast
// as the kBlock queue admits, waits on Flush of each session's last
// ticket, and closes. `before_close` sees the database after the last
// Flush. Traced runs check the independent totals: fsyncs seen by the
// Env against PagerStats, and events seen by the bus probe against
// PipelineStats and the input.
void CaptureHistory(Run& run, const std::string& path, const History& h,
                    WriteTotals& totals,
                    const std::function<void(bp::prov::ProvenanceDb&)>&
                        before_close = nullptr);

// Read-side inputs of the per-layer report.
struct ReadLayers {
  const ReadTotals* reads = nullptr;
  LayerSamples* layers = nullptr;  // traced runs only
  IoSnapshot io;  // Env counters over the query phase
};
// Service-side inputs of the per-layer report (fleet only).
struct ServiceLayers {
  uint64_t hits = 0, misses = 0, reopens = 0, rounds = 0,
           queue_depth_max = 0;
  Samples snapshot_overhead_ms;
};

// End-to-end metrics of the write and read paths.
void ReportWrites(const WriteTotals& w, Report& report);
void ReportReads(const ReadTotals& r, Report& report);
// Every per-layer metric; layers a workload does not exercise read 0.
void ReportLayers(const WriteTotals& w, const ReadLayers& r,
                  const ServiceLayers* s, Report& report);

// Node counts by kind and edge counts by kind.
struct GraphShape {
  std::map<uint32_t, uint64_t> nodes, edges;
  bool operator==(const GraphShape& o) const {
    return nodes == o.nodes && edges == o.edges;
  }
};
GraphShape ShapeOf(bp::prov::ProvenanceDb::SnapshotView& view);

void RunCapture(Run& run);
void RunRecall(Run& run);
void RunFleet(Run& run);

}  // namespace perfbench
