// The `recall` workload: one-shot queries against a history larger than
// the program's cache.
#include "workloads.hpp"

namespace perfbench {

using bp::prov::ProvenanceDb;

// Set-up captures the history (the write-path metrics of this workload
// come from that capture; like capture's, it repeats on a fresh database
// until 1000 sessions were flushed), indexes it, closes it, and answers
// the query mix once on a handle with the pool disabled: those answers
// are both checked against the raw graph and kept as the reference. The
// timed part reopens the history with a pool far smaller than its pages
// and runs the mix from a few reader threads; every answer must equal
// the reference.
void RunRecall(Run& run) {
  const History h = MakeHistoryByEvents(run.args.seed, kHistoryEvents);
  const std::string dir = run.args.dir + "/recall";
  const std::string path = dir + "/history.db";
  WriteTotals writes;
  while (writes.durable_ms.size() < kTailSamples) {
    RemoveTree(dir);
    MakeDir(dir);
    CaptureHistory(run, path, h, writes, [](ProvenanceDb& db) {
      // A snapshot refreshes the text index before the clean close.
      Must(db.BeginSnapshot().status(), "index");
    });
  }
  ReportWrites(writes, run.report);

  // The reference handle opens a copy of the closed files: every Open
  // changes the stored text index (see CHANGES.md), so both handles must
  // start from the same bytes for their answers to be comparable.
  const std::string ref_dir = run.args.dir + "/reference";
  CopyFiles(dir, ref_dir);
  std::vector<Query> mix;
  std::vector<uint64_t> downloads;
  std::vector<std::string> expected;
  {
    ProvenanceDb::Options options = run.DbOptions();
    options.db.pool_bytes = 0;
    std::unique_ptr<ProvenanceDb> db = Must(
        ProvenanceDb::Open(ref_dir + "/history.db", options), "open without pool");
    {
      ProvenanceDb::SnapshotView view = Must(db->BeginSnapshot(), "snapshot");
      downloads = ScanDownloads(view);
    }
    mix = MakeQueryMix(h, downloads, run.args.seed, kMixQueries);
    expected = AnswerAll(*db, mix, run.Readers(), run.report);
    Must(db->Close(), "close without pool");
  }
  RemoveTree(ref_dir);
  run.report.Set("setup_s", SecondsSince(run.start), "s");

  ProvenanceDb::Options options = run.DbOptions();
  options.db.pool_bytes = kRecallPoolBytes;
  std::unique_ptr<ProvenanceDb> db =
      Must(ProvenanceDb::Open(path, options), "open with small pool");
  LayerSamples layers;
  layers.texts = h.queries;
  layers.downloads = downloads;
  const IoSnapshot io_before =
      run.env != nullptr ? run.env->Counters() : IoSnapshot{};
  const ReadTotals reads = RunQueryPhase(
      *db, mix, &expected, run.Readers(), run.args.seconds, kTailSamples,
      run.tracer, run.args.trace ? &layers : nullptr, run.report);
  const IoSnapshot io =
      run.env != nullptr ? run.env->Counters() - io_before : IoSnapshot{};
  run.report.Attempt(reads.queries);
  Must(db->Close(), "close");
  db.reset();
  run.report.Set("disk_bytes", static_cast<double>(AllocatedBytes(dir)), "B");
  RemoveTree(dir);

  if (run.args.trace) {
    // Independent totals: device reads the Env saw while the queries ran
    // against the pages the queries report fetching. The reads made
    // outside queries (Open's) fall before the window, so none remain.
    const uint64_t env_reads = io.main.reads + io.wal.reads;
    const uint64_t fetched = reads.pages_fetched + layers.pages_read.load();
    if (env_reads != fetched) {
      run.report.Fail("Env saw " + std::to_string(env_reads) +
                      " reads during the queries, QueryStats count " +
                      std::to_string(fetched) + " pages fetched");
    }
  }
  ReportReads(reads, run.report);
  ReportLayers(writes, ReadLayers{&reads, run.args.trace ? &layers : nullptr, io},
               nullptr, run.report);
}

}  // namespace perfbench
