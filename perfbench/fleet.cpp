// The `fleet` workload: many profiles behind one ProvenanceService.
#include <algorithm>
#include <tuple>

#include "service/provenance_service.hpp"
#include "workloads.hpp"

namespace perfbench {

using bp::prov::ProvenanceDb;
using bp::service::ProvenanceService;

namespace {

struct Profile {
  std::string name;
  History history;
  GraphShape reference;  // the stream ingested through one open handle
  // Per session: the query the user runs at its end (their latest
  // search so far) and the last URL they visited in it.
  std::vector<std::string> session_query, session_url;
};

void PlanSessions(Profile& p) {
  std::string query = p.history.queries.empty() ? "news"
                                                : p.history.queries.front();
  std::string url;
  size_t next = 0;
  for (size_t i = 0; i < p.history.events.size(); ++i) {
    const auto& event = p.history.events[i];
    if (const auto* s = std::get_if<bp::capture::SearchEvent>(&event)) {
      query = s->query;
    } else if (const auto* v = std::get_if<bp::capture::VisitEvent>(&event)) {
      url = v->url;
    }
    if (next < p.history.session_ends.size() &&
        p.history.session_ends[next] == i) {
      p.session_query.push_back(query);
      p.session_url.push_back(url);
      ++next;
    }
  }
}

std::string Describe(const GraphShape& g) {
  uint64_t nodes = 0, edges = 0;
  for (const auto& [kind, n] : g.nodes) nodes += n;
  for (const auto& [kind, n] : g.edges) edges += n;
  return std::to_string(nodes) + " nodes/" + std::to_string(edges) + " edges";
}

}  // namespace

// Set-up simulates kFleetProfiles users of one web, each for exactly
// kFleetSessions sessions, and ingests each stream through one
// ProvenanceDb held open (the capture loop; it gives this workload's
// durability metrics, so it repeats until 1000 sessions were flushed) to
// record its reference graph. Each timed round
// stands up a ProvenanceService with its default options, feeds it
// every profile's stream interleaved by simulated time from one
// producer thread, and at each session end runs a read-your-writes
// WithSnapshot Search for that profile. After Drain and shutdown each
// profile's graph must equal its reference; a profile that differs is
// a failed operation. Rounds repeat until the run's time is up and the
// search latency has enough samples for its tail. Lineage queries then
// run on the last round's profiles.
void RunFleet(Run& run) {
  std::vector<Profile> profiles(kFleetProfiles);
  std::vector<std::tuple<int64_t, size_t, size_t>> order;
  for (size_t p = 0; p < profiles.size(); ++p) {
    Profile& profile = profiles[p];
    profile.name = (p < 10 ? "p0" : "p") + std::to_string(p);
    profile.history = MakeHistoryBySessions(run.args.seed * 1000 + p,
                                            kFleetSessions);
    PlanSessions(profile);
    for (size_t i = 0; i < profile.history.events.size(); ++i) {
      order.emplace_back(bp::capture::EventTime(profile.history.events[i]), p,
                         i);
    }
  }
  const std::string ref_dir = run.args.dir + "/reference";
  WriteTotals ref_writes;
  while (ref_writes.durable_ms.size() < kTailSamples) {
    MakeDir(ref_dir);
    for (Profile& profile : profiles) {
      CaptureHistory(run, ref_dir + "/" + profile.name + ".db",
                     profile.history, ref_writes, [&](ProvenanceDb& db) {
                       ProvenanceDb::SnapshotView view =
                           Must(db.BeginSnapshot(), "reference snapshot");
                       profile.reference = ShapeOf(view);
                     });
    }
    RemoveTree(ref_dir);
  }
  std::sort(order.begin(), order.end());
  run.report.Set("setup_s", SecondsSince(run.start), "s");

  WriteTotals writes;  // the service's ingest: enqueue and rate
  ServiceLayers svc_layers;
  Samples search_ms;
  Samples disk;
  std::string last_dir;
  const Clock::time_point start = Clock::now();
  for (int round = 0; SecondsSince(start) < run.args.seconds ||
                      search_ms.size() < kTailSamples;
       ++round) {
    if (!last_dir.empty()) RemoveTree(last_dir);
    last_dir = run.args.dir + "/fleet-" + std::to_string(round);
    MakeDir(last_dir);
    bp::service::ServiceOptions options;
    if (run.env != nullptr) options.db.db.env = run.env.get();
    std::unique_ptr<ProvenanceService> svc =
        Must(ProvenanceService::Create(last_dir, options), "create service");

    std::vector<size_t> next_session(profiles.size(), 0);
    const Clock::time_point round_start = Clock::now();
    for (const auto& [time, p, i] : order) {
      Profile& profile = profiles[p];
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(run.tracer, "service.ingest", i);
        Must(svc->Ingest(profile.name, profile.history.events[i]), "Ingest");
      }
      writes.enqueue_us.Add(UsBetween(t0, Clock::now()));
      if (profile.history.session_ends[next_session[p]] != i) continue;

      const size_t s = next_session[p]++;
      const std::string& query = profile.session_query[s];
      double search_us = 0;
      std::string error;
      const Clock::time_point q0 = Clock::now();
      {
        ScopedSpan span(run.tracer, "service.with_snapshot", i);
        Must(svc->WithSnapshot(
                 profile.name,
                 [&](ProvenanceDb::SnapshotView& view) -> Status {
                   const Clock::time_point s0 = Clock::now();
                   auto r = view.Search(query);
                   search_us = UsBetween(s0, Clock::now());
                   BP_RETURN_IF_ERROR(r.status());
                   error = CheckRanked(*r, query, /*textual=*/false);
                   if (!view.store().PageForUrl(profile.session_url[s]).ok()) {
                     error = "read-your-writes: " + profile.name +
                             " snapshot misses " + profile.session_url[s];
                   }
                   return Status::Ok();
                 }),
             "WithSnapshot");
      }
      const double total_us = UsBetween(q0, Clock::now());
      search_ms.Add(total_us / 1000.0);
      svc_layers.snapshot_overhead_ms.Add((total_us - search_us) / 1000.0);
      if (!error.empty()) run.report.Fail(error);
    }
    Must(svc->Drain(), "Drain");
    writes.busy_s += SecondsSince(round_start);
    writes.events += order.size();

    const bp::service::ServiceStats stats = svc->Stats();
    svc_layers.hits += stats.handle_hits;
    svc_layers.misses += stats.handle_misses;
    svc_layers.reopens += stats.reopens;
    svc_layers.queue_depth_max =
        std::max(svc_layers.queue_depth_max, stats.max_queue_depth);
    ++svc_layers.rounds;
    svc.reset();  // closes every handle cleanly
    disk.Add(static_cast<double>(AllocatedBytes(last_dir)));

    for (Profile& profile : profiles) {
      std::unique_ptr<ProvenanceDb> db =
          Must(ProvenanceDb::Open(last_dir + "/" + profile.name + ".db",
                                  run.DbOptions()),
               "open profile");
      GraphShape shape;
      {
        ProvenanceDb::SnapshotView view = Must(db->BeginSnapshot(), "snapshot");
        shape = ShapeOf(view);
      }
      Must(db->Close(), "close profile");
      if (!(shape == profile.reference)) {
        run.report.FailedOp();
        if (round == 0) {
          std::fprintf(stderr, "fleet: %s holds %s, reference %s\n",
                       profile.name.c_str(), Describe(shape).c_str(),
                       Describe(profile.reference).c_str());
        }
      }
      run.report.Attempt(1 + kFleetSessions);
    }
  }

  // Lineage queries on the last round's profiles, with the default pool.
  ReadTotals lineage;
  LayerSamples layers;
  IoSnapshot io;
  size_t with_downloads = 0;
  for (const Profile& profile : profiles) {
    with_downloads += profile.history.download_sources.empty() ? 0 : 1;
  }
  const size_t per_profile =
      (kTailSamples + with_downloads - 1) / std::max<size_t>(with_downloads, 1);
  for (size_t p = 0; p < profiles.size(); ++p) {
    const Profile& profile = profiles[p];
    if (profile.history.download_sources.empty()) continue;
    std::unique_ptr<ProvenanceDb> db =
        Must(ProvenanceDb::Open(last_dir + "/" + profile.name + ".db",
                                run.DbOptions()),
             "open profile");
    std::vector<uint64_t> downloads;
    {
      ProvenanceDb::SnapshotView view = Must(db->BeginSnapshot(), "snapshot");
      downloads = ScanDownloads(view);
    }
    if (downloads.empty()) {
      run.report.Fail(profile.name + " stores none of its downloads");
      Must(db->Close(), "close profile");
      continue;
    }
    const std::vector<Query> mix =
        MakeLineageMix(profile.history, downloads, run.args.seed * 1000 + p,
                       4 * downloads.size());
    layers.texts = profile.history.queries;
    layers.downloads = downloads;
    const bool traced = run.args.trace && !layers.texts.empty();
    const IoSnapshot io_before =
        run.env != nullptr ? run.env->Counters() : IoSnapshot{};
    lineage.Append(RunQueryPhase(*db, mix, nullptr, run.Readers(), 0,
                                 per_profile, run.tracer,
                                 traced ? &layers : nullptr, run.report));
    if (run.env != nullptr) io = io + (run.env->Counters() - io_before);
    Must(db->Close(), "close profile");
  }
  RemoveTree(last_dir);

  ReportWrites(ref_writes, run.report);
  run.report.Set("ingest_events_per_s", writes.events / writes.busy_s,
                 "events/s");
  run.report.Set("enqueue_us_p50", writes.enqueue_us.Quantile(0.5), "us");
  run.report.Set("enqueue_us_p99", writes.enqueue_us.Quantile(0.99), "us");
  ReadTotals e2e;
  e2e.text_ms = search_ms;
  e2e.lineage_ms = lineage.lineage_ms;
  ReportReads(e2e, run.report);
  run.report.Set("disk_bytes", disk.Quantile(0.5), "B");
  ReportLayers(ref_writes,
               ReadLayers{&lineage, run.args.trace ? &layers : nullptr, io},
               &svc_layers, run.report);
}

}  // namespace perfbench
