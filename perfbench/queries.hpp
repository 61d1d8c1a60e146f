// The read side of the benchmark: the seeded mix of the six one-shot
// query families, a timed runner, the output checks computed apart
// from the engine, and the traced per-layer query sequence.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "prov/provenance_db.hpp"

namespace perfbench {

enum class Family : uint8_t {
  kSearch,
  kTextual,
  kPersonalize,
  kTimeContext,
  kTrace,
  kDescendants,
};
inline bool IsLineage(Family f) {
  return f == Family::kTrace || f == Family::kDescendants;
}

struct Query {
  Family family = Family::kSearch;
  std::string text;     // text families: the query; kTimeContext: primary
  std::string context;  // kTimeContext: the context query
  uint64_t download = 0;  // kTrace: download node id
  std::string url;        // kDescendants: the page to start from
};

// Download node ids found by a node scan of `view`. (The recorder's
// stream-id maps do not survive a reopen, so the ids come from storage.)
std::vector<uint64_t> ScanDownloads(bp::prov::ProvenanceDb::SnapshotView& view);

// `count` queries; the i-th has the (i % 6)-th family. Text inputs are
// the user's own search queries, lineage inputs the user's downloads.
std::vector<Query> MakeQueryMix(const History& history,
                                const std::vector<uint64_t>& downloads,
                                uint64_t seed, size_t count);
// Only the two lineage families.
std::vector<Query> MakeLineageMix(const History& history,
                                  const std::vector<uint64_t>& downloads,
                                  uint64_t seed, size_t count);

// One answered query.
struct Answer {
  double us = 0;              // call to answer
  std::string canonical;      // exact rendering, for answer equality
  bp::graph::QueryStats stats;
  std::string check_error;    // first failed output check, if any
};

// Checks a ranked answer: scores (text scores when `textual`, totals
// otherwise) never increase down the list, and for a textual answer
// every hit holds a query token in its URL or title. Returns the first
// failure, or "".
std::string CheckRanked(const bp::search::ContextualSearchResult& r,
                        const std::string& query, bool textual);

// Runs `q` as a one-shot ProvenanceDb call, timing only the call. With
// a `check_view` (any snapshot of the same, quiescent database) the
// answer is also checked against the raw graph:
//   - TextualSearch: every hit holds a query token in its URL or title
//     (tokenized here), and scores never increase down the list;
//   - Search: totals never increase down the list;
//   - TraceDownload: the path is a chain of real action edges ending at
//     the download;
//   - DescendantDownloads: the set equals a BFS over Edges cursors.
Answer RunQuery(bp::prov::ProvenanceDb& db, const Query& q,
                bp::prov::ProvenanceDb::SnapshotView* check_view);

// Answers every entry of `mix` once, from `threads` threads, checking
// each answer on a per-thread snapshot view; returns the canonical
// answers, indexed like `mix`.
std::vector<std::string> AnswerAll(bp::prov::ProvenanceDb& db,
                                   const std::vector<Query>& mix, int threads,
                                   Report& report);

// Inputs and per-layer timings of the traced query sequence.
struct LayerSamples {
  std::vector<std::string> texts;   // non-empty
  std::vector<uint64_t> downloads;  // non-empty
  SharedSamples snapshot_open_us, bm25_us, contextual_us, lineage_us;
  std::atomic<uint64_t> pages_read{0};  // snapshot reads the sequence made
  std::atomic<uint64_t> sequences{0};
};

// The traced sequence: on a snapshot of its own, BeginRead + AtSnapshot
// binds, then TextualSearch, ContextualSearch and TraceDownload, each
// timed and recorded as a span of request `request`.
void RunLayerSequence(bp::prov::ProvenanceDb& db, const std::string& text,
                      uint64_t download, uint64_t request, Tracer& tracer,
                      LayerSamples& out);

// Totals of a query phase.
struct ReadTotals {
  Samples text_ms, lineage_ms;
  uint64_t queries = 0;
  uint64_t pool_hits = 0, pages_fetched = 0;
  uint64_t rows_scanned = 0, edges_expanded = 0;
  void Add(Family family, const Answer& a);
  void Append(const ReadTotals& other);
};

// Runs `mix` in whole passes from `threads` reader threads (one query in
// flight each) until at least `min_seconds` have passed and both the
// text and lineage families have `min_samples` samples (a family absent
// from the mix needs none). Answers are checked on a per-thread
// snapshot view the first time each mix entry is answered; with
// `expected`, every answer must also equal expected[i]. Traced runs
// also run the layer sequence after every fourth query.
ReadTotals RunQueryPhase(bp::prov::ProvenanceDb& db,
                         const std::vector<Query>& mix,
                         const std::vector<std::string>* expected,
                         int threads, double min_seconds, size_t min_samples,
                         Tracer& tracer, LayerSamples* layers,
                         Report& report);

}  // namespace perfbench
