// The capture loop shared by every workload's write phase, the metric
// reports, and the `capture` workload.
#include <algorithm>
#include <thread>

#include "prov/schema.hpp"
#include "workloads.hpp"

namespace perfbench {

using bp::prov::ProvenanceDb;

int Run::Readers() const {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::clamp(cores - 1, 1u, 3u));
}

void CaptureHistory(Run& run, const std::string& path, const History& h,
                    WriteTotals& totals,
                    const std::function<void(ProvenanceDb&)>& before_close) {
  const size_t n = h.events.size();
  const IoSnapshot io_before =
      run.env != nullptr ? run.env->Counters() : IoSnapshot{};
  if (run.env != nullptr) run.env->TakeWalSyncUs();

  std::unique_ptr<ProvenanceDb> db =
      Must(ProvenanceDb::Open(path, run.DbOptions()), "open history");
  std::unique_ptr<BusProbe> probe;
  std::vector<int64_t> returned_ns;
  if (run.args.trace) {
    probe = std::make_unique<BusProbe>(run.tracer, run.env.get(), n);
    db->bus().Subscribe(probe.get());
    returned_ns.assign(n, 0);
  }

  size_t next_session = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point t0 = Clock::now();
    ProvenanceDb::IngestTicket ticket;
    {
      ScopedSpan span(run.tracer, "capture.ingest_async", i);
      ticket = Must(db->IngestAsync(h.events[i]), "IngestAsync");
    }
    const Clock::time_point t1 = Clock::now();
    totals.enqueue_us.Add(UsBetween(t0, t1));
    if (!returned_ns.empty()) returned_ns[i] = NowNs();
    if (next_session < h.session_ends.size() &&
        h.session_ends[next_session] == i) {
      {
        ScopedSpan span(run.tracer, "capture.flush", i);
        Must(db->Flush(ticket), "Flush");
      }
      totals.durable_ms.Add(UsBetween(t0, Clock::now()) / 1000.0);
      ++next_session;
    }
  }
  totals.busy_s += SecondsSince(start);
  totals.events += n;

  if (before_close) before_close(*db);
  const bp::capture::PipelineStats pipe = db->pipeline_stats();
  Must(db->Close(), "close history");
  const bp::storage::PagerStats pager = db->storage_stats();
  db.reset();
  if (!run.args.trace) return;

  const IoSnapshot io = run.env->Counters() - io_before;
  totals.io = totals.io + io;
  totals.wal_sync_us.Append(run.env->TakeWalSyncUs());
  totals.commits += pager.commits;
  totals.pages_written += pager.pages_written;
  totals.batches += pipe.batches;
  totals.early_flushes += pipe.early_flushes;
  totals.blocked_enqueues += pipe.blocked_enqueues;
  totals.record_gap_us.Append(probe->record_gap_us());
  for (size_t i = 0; i < n; ++i) {
    const int64_t wait = probe->seen_ns()[i] - returned_ns[i];
    totals.queue_wait_us.Add(static_cast<double>(std::max<int64_t>(wait, 0)) /
                             1000.0);
  }

  // Independent totals: each pair is counted by two separate paths.
  const uint64_t env_syncs = io.wal.syncs + io.main.syncs;
  if (env_syncs != pager.fsyncs) {
    run.report.Fail("Env saw " + std::to_string(env_syncs) +
                    " fsyncs, PagerStats counted " +
                    std::to_string(pager.fsyncs));
  }
  if (probe->seen() != pipe.committed || pipe.committed != n) {
    run.report.Fail("bus probe saw " + std::to_string(probe->seen()) +
                    " events, pipeline committed " +
                    std::to_string(pipe.committed) + ", input holds " +
                    std::to_string(n));
  }
}

// ----------------------------------------------------------- reports

void ReportWrites(const WriteTotals& w, Report& report) {
  report.Set("ingest_events_per_s", w.events / w.busy_s, "events/s");
  report.Set("enqueue_us_p50", w.enqueue_us.Quantile(0.5), "us");
  report.Set("enqueue_us_p99", w.enqueue_us.Quantile(0.99), "us");
  report.Set("durable_ms_p50", w.durable_ms.Quantile(0.5), "ms");
  report.Set("durable_ms_p99", w.durable_ms.Quantile(0.99), "ms");
}

// The lineage tail is left out: it is set by the DescendantDownloads
// calls on the few pages a user visits most, and moves by a third from
// one simulated user to the next (README.md).
void ReportReads(const ReadTotals& r, Report& report) {
  report.Set("text_query_ms_p50", r.text_ms.Quantile(0.5), "ms");
  report.Set("text_query_ms_p99", r.text_ms.Quantile(0.99), "ms");
  report.Set("lineage_query_ms_p50", r.lineage_ms.Quantile(0.5), "ms");
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void ReportLayers(const WriteTotals& w, const ReadLayers& r,
                  const ServiceLayers* s, Report& report) {
  const double events = static_cast<double>(w.events);
  const double per_10k = Ratio(10'000, events);
  report.Set("capture.queue_wait_us_p50", w.queue_wait_us.Quantile(0.5), "us");
  report.Set("capture.queue_wait_us_p99", w.queue_wait_us.Quantile(0.99), "us");
  report.Set("capture.events_per_batch", Ratio(events, w.batches), "events");
  report.Set("capture.early_flushes", w.early_flushes * per_10k, "1/10k_events");
  report.Set("capture.blocked_enqueues", w.blocked_enqueues * per_10k,
             "1/10k_events");
  report.Set("prov.record_us_per_event", w.record_gap_us.Quantile(0.5), "us");
  report.Set("storage.commits", w.commits * per_10k, "1/10k_events");
  report.Set("storage.pages_written_per_commit",
             Ratio(w.pages_written, w.commits), "pages");
  report.Set("wal.bytes_per_event", Ratio(w.io.wal.write_bytes, events), "B");
  report.Set("wal.append_us_per_event", Ratio(w.io.wal.write_ns / 1e3, events),
             "us");
  report.Set("wal.fsyncs", w.io.wal.syncs * per_10k, "1/10k_events");
  report.Set("wal.events_per_fsync", Ratio(events, w.io.wal.syncs), "events");
  report.Set("wal.fsync_us_p50", w.wal_sync_us.Quantile(0.5), "us");
  report.Set("wal.fsync_us_p99", w.wal_sync_us.Quantile(0.99), "us");
  // A checkpoint folds the log into the main file and ends with its sync.
  const double checkpoints = static_cast<double>(w.io.main.syncs);
  report.Set("wal.checkpoints", checkpoints * per_10k, "1/10k_events");
  report.Set("wal.checkpoint_ms",
             Ratio((w.io.main.write_ns + w.io.main.sync_ns) / 1e6, checkpoints),
             "ms");
  report.Set("wal.checkpoint_bytes", Ratio(w.io.main.write_bytes, checkpoints),
             "B");

  const double queries = r.reads != nullptr ? r.reads->queries : 0;
  if (r.layers != nullptr) {
    LayerSamples& l = *r.layers;
    report.Set("storage.snapshot_open_us_p50",
               l.snapshot_open_us.Take().Quantile(0.5), "us");
    report.Set("text.bm25_us_p50", l.bm25_us.Take().Quantile(0.5), "us");
    const Samples contextual = l.contextual_us.Take();
    report.Set("search.contextual_us_p50", contextual.Quantile(0.5), "us");
    report.Set("search.contextual_us_p99", contextual.Quantile(0.99), "us");
    report.Set("search.lineage_us_p50", l.lineage_us.Take().Quantile(0.5),
               "us");
  }
  if (r.reads != nullptr) {
    const ReadTotals& q = *r.reads;
    report.Set("storage.pool_hit_ratio",
               Ratio(q.pool_hits, q.pool_hits + q.pages_fetched), "ratio");
    report.Set("graph.rows_scanned_per_query", Ratio(q.rows_scanned, queries),
               "rows");
    report.Set("graph.edges_expanded_per_query",
               Ratio(q.edges_expanded, queries), "edges");
  }
  const double reads = static_cast<double>(r.io.main.reads + r.io.wal.reads);
  report.Set("storage.device_reads_per_query", Ratio(reads, queries), "reads");
  report.Set("storage.device_read_us_per_query",
             Ratio((r.io.main.read_ns + r.io.wal.read_ns) / 1e3, queries), "us");

  const ServiceLayers none;
  const ServiceLayers& svc = s != nullptr ? *s : none;
  report.Set("service.handle_hit_ratio",
             Ratio(svc.hits, svc.hits + svc.misses), "ratio");
  report.Set("service.reopens", Ratio(svc.reopens, svc.rounds), "1/round");
  report.Set("service.snapshot_overhead_ms_p50",
             svc.snapshot_overhead_ms.Quantile(0.5), "ms");
  report.Set("service.queue_depth_max", svc.queue_depth_max, "events");
}

GraphShape ShapeOf(ProvenanceDb::SnapshotView& view) {
  GraphShape shape;
  auto nodes = view.Nodes();
  for (; nodes.Valid(); nodes.Next()) ++shape.nodes[nodes.node().kind()];
  Must(nodes.status(), "node scan");
  auto edges = view.Edges();
  for (; edges.Valid(); edges.Next()) ++shape.edges[edges.edge().kind()];
  Must(edges.status(), "edge scan");
  return shape;
}

// ---------------------------------------------------------- capture

// Replays one user's history into a fresh database, in whole rounds,
// until the run's time is up and the durability latency has enough
// samples for its tail. Then checks what the last round stored, and
// answers a seeded query mix on it with the default pool, which holds
// the whole database.
void RunCapture(Run& run) {
  const History h = MakeHistoryByEvents(run.args.seed, kHistoryEvents);
  run.report.Set("setup_s", SecondsSince(run.start), "s");

  WriteTotals writes;
  Samples disk;
  std::string last_dir;
  const Clock::time_point start = Clock::now();
  for (int round = 0;
       SecondsSince(start) < run.args.seconds ||
       writes.durable_ms.size() < kTailSamples;
       ++round) {
    if (!last_dir.empty()) RemoveTree(last_dir);
    last_dir = run.args.dir + "/capture-" + std::to_string(round);
    MakeDir(last_dir);
    CaptureHistory(run, last_dir + "/history.db", h, writes);
    disk.Add(static_cast<double>(AllocatedBytes(last_dir)));
    run.report.Attempt(h.events.size());
  }
  ReportWrites(writes, run.report);
  run.report.Set("disk_bytes", disk.Quantile(0.5), "B");

  // What a fresh Open of the last round holds.
  std::unique_ptr<ProvenanceDb> db = Must(
      ProvenanceDb::Open(last_dir + "/history.db", run.DbOptions()), "reopen");
  std::vector<uint64_t> downloads;
  {
    ProvenanceDb::SnapshotView view = Must(db->BeginSnapshot(), "snapshot");
    const GraphShape shape = ShapeOf(view);
    auto count = [&](bp::prov::NodeKind kind) {
      auto it = shape.nodes.find(static_cast<uint32_t>(kind));
      return it == shape.nodes.end() ? uint64_t{0} : it->second;
    };
    const uint64_t visits = count(bp::prov::NodeKind::kVisit);
    const uint64_t searches = count(bp::prov::NodeKind::kSearchIssue);
    const uint64_t dls = count(bp::prov::NodeKind::kDownload);
    if (visits != h.visits || searches != h.searches || dls != h.downloads) {
      run.report.Fail(
          "stored visits/searches/downloads " + std::to_string(visits) + "/" +
          std::to_string(searches) + "/" + std::to_string(dls) +
          ", input holds " + std::to_string(h.visits) + "/" +
          std::to_string(h.searches) + "/" + std::to_string(h.downloads));
    }
    size_t unresolved = 0;
    for (const std::string& url : h.urls) {
      unresolved += view.store().PageForUrl(url).ok() ? 0 : 1;
    }
    if (unresolved > 0) {
      run.report.Fail(std::to_string(unresolved) + " of " +
                      std::to_string(h.urls.size()) +
                      " input URLs do not resolve to a page");
    }
    downloads = ScanDownloads(view);
  }

  const std::vector<Query> mix =
      MakeQueryMix(h, downloads, run.args.seed, kMixQueries);
  LayerSamples layers;
  layers.texts = h.queries;
  layers.downloads = downloads;
  const IoSnapshot io_before =
      run.env != nullptr ? run.env->Counters() : IoSnapshot{};
  const ReadTotals reads =
      RunQueryPhase(*db, mix, nullptr, run.Readers(), 0, kTailSamples,
                    run.tracer, run.args.trace ? &layers : nullptr, run.report);
  const IoSnapshot io =
      run.env != nullptr ? run.env->Counters() - io_before : IoSnapshot{};
  run.report.Attempt(reads.queries);
  Must(db->Close(), "close");
  db.reset();
  RemoveTree(last_dir);

  ReportReads(reads, run.report);
  ReportLayers(writes, ReadLayers{&reads, run.args.trace ? &layers : nullptr, io}, nullptr, run.report);
}

}  // namespace perfbench
