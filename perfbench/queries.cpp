#include "queries.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <unordered_set>

#include "prov/schema.hpp"
#include "util/rng.hpp"

namespace perfbench {

using bp::graph::Direction;
using bp::graph::NodeId;
using bp::prov::EdgeKind;
using bp::prov::NodeKind;
using bp::prov::ProvenanceDb;

namespace {

// The benchmark's own tokenizing: lowercase runs of ASCII letters and
// digits, at least two long. No stopword list, so it can only accept
// more hits than the engine's tokenizer, never fewer.
std::set<std::string> Tokens(const std::string& text) {
  std::set<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (current.size() >= 2) tokens.insert(current);
    current.clear();
  };
  for (char c : text) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      current.push_back(c);
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

bool IsIdentityEdge(uint32_t kind) {
  return kind == static_cast<uint32_t>(EdgeKind::kInstanceOf) ||
         kind == static_cast<uint32_t>(EdgeKind::kTermInstanceOf);
}

std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string Canon(const bp::search::ContextualSearchResult& r) {
  std::string out = r.truncated ? "T" : "F";
  for (const auto& p : r.pages) {
    out += '|';
    out += std::to_string(p.page);
    out += ',' + p.url + ',' + Hex(p.total);
  }
  return out;
}

std::string CheckLineage(ProvenanceDb::SnapshotView& view,
                         const bp::search::LineageReport& r,
                         uint64_t download) {
  if (r.path.empty() || r.path.back().node != download) {
    return "lineage path does not end at download " +
           std::to_string(download);
  }
  for (size_t i = 0; i + 1 < r.path.size(); ++i) {
    const NodeId from = r.path[i].node;
    const NodeId to = r.path[i + 1].node;
    bool found = false;
    for (auto cur = view.Edges(from, Direction::kOut); cur.Valid();
         cur.Next()) {
      const auto& e = cur.edge();
      if (e.dst() == to && !IsIdentityEdge(e.kind())) {
        found = true;
        break;
      }
    }
    if (!found) {
      return "lineage step " + std::to_string(from) + " -> " +
             std::to_string(to) + " is not an action edge";
    }
  }
  return "";
}

// Downloads reachable from any visit of `url`'s page over action edges
// (identity edges excluded), within `max_depth` hops.
Result<std::set<NodeId>> ReferenceDescendants(
    ProvenanceDb::SnapshotView& view, const std::string& url,
    uint32_t max_depth) {
  BP_ASSIGN_OR_RETURN(NodeId page, view.store().PageForUrl(url));
  std::vector<NodeId> frontier;
  for (auto cur = view.Edges(page, Direction::kIn); cur.Valid(); cur.Next()) {
    if (cur.edge().kind() == static_cast<uint32_t>(EdgeKind::kInstanceOf)) {
      frontier.push_back(cur.edge().src());
    }
  }
  std::unordered_set<NodeId> seen(frontier.begin(), frontier.end());
  std::set<NodeId> downloads;
  for (uint32_t depth = 0; !frontier.empty(); ++depth) {
    std::vector<NodeId> next;
    for (NodeId node : frontier) {
      auto nodes = view.Nodes(node);
      if (nodes.Valid() && nodes.node().id() == node &&
          nodes.node().kind() == static_cast<uint32_t>(NodeKind::kDownload)) {
        downloads.insert(node);
      }
      if (depth == max_depth) continue;
      for (auto cur = view.Edges(node, Direction::kOut); cur.Valid();
           cur.Next()) {
        if (IsIdentityEdge(cur.edge().kind())) continue;
        if (seen.insert(cur.edge().dst()).second) {
          next.push_back(cur.edge().dst());
        }
      }
    }
    frontier = std::move(next);
  }
  return downloads;
}

const std::string& Pick(bp::util::Rng& rng, const std::vector<std::string>& v) {
  return v[rng.Uniform(v.size())];
}

}  // namespace

std::string CheckRanked(const bp::search::ContextualSearchResult& r,
                        const std::string& query, bool textual) {
  const std::set<std::string> want = Tokens(query);
  for (size_t i = 0; i < r.pages.size(); ++i) {
    const auto& page = r.pages[i];
    if (i > 0) {
      const auto& prev = r.pages[i - 1];
      const double a = textual ? prev.text_score : prev.total;
      const double b = textual ? page.text_score : page.total;
      if (b > a) return "scores increase down the list for '" + query + "'";
    }
    if (!textual) continue;
    const std::set<std::string> have = Tokens(page.url + " " + page.title);
    bool hit = false;
    for (const std::string& t : want) hit = hit || have.count(t) > 0;
    if (!hit) {
      return "TextualSearch hit " + page.url + " holds no token of '" +
             query + "'";
    }
  }
  return "";
}

std::vector<uint64_t> ScanDownloads(ProvenanceDb::SnapshotView& view) {
  std::vector<uint64_t> ids;
  auto cur = view.Nodes();
  for (; cur.Valid(); cur.Next()) {
    if (cur.node().kind() == static_cast<uint32_t>(NodeKind::kDownload)) {
      ids.push_back(cur.node().id());
    }
  }
  Must(cur.status(), "scan downloads");
  return ids;
}

namespace {

std::vector<Query> MakeMix(const History& h,
                           const std::vector<uint64_t>& downloads,
                           uint64_t seed, size_t count,
                           const std::vector<Family>& rotation) {
  bp::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  std::vector<Query> mix;
  mix.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Query q;
    q.family = rotation[i % rotation.size()];
    switch (q.family) {
      case Family::kTimeContext:
        q.text = Pick(rng, h.queries);
        q.context = Pick(rng, h.queries);
        break;
      case Family::kTrace:
        q.download = downloads[rng.Uniform(downloads.size())];
        break;
      case Family::kDescendants:
        q.url = Pick(rng, h.download_sources[rng.Uniform(
                              h.download_sources.size())]);
        break;
      default:
        q.text = Pick(rng, h.queries);
        break;
    }
    mix.push_back(std::move(q));
  }
  return mix;
}

}  // namespace

std::vector<Query> MakeQueryMix(const History& h,
                                const std::vector<uint64_t>& downloads,
                                uint64_t seed, size_t count) {
  return MakeMix(h, downloads, seed, count,
                 {Family::kSearch, Family::kTextual, Family::kPersonalize,
                  Family::kTimeContext, Family::kTrace,
                  Family::kDescendants});
}

std::vector<Query> MakeLineageMix(const History& h,
                                  const std::vector<uint64_t>& downloads,
                                  uint64_t seed, size_t count) {
  return MakeMix(h, downloads, seed, count,
                 {Family::kTrace, Family::kDescendants});
}

Answer RunQuery(ProvenanceDb& db, const Query& q,
                ProvenanceDb::SnapshotView* check_view) {
  Answer a;
  Clock::time_point start;
  auto stop = [&] { a.us = UsBetween(start, Clock::now()); };
  switch (q.family) {
    case Family::kSearch:
    case Family::kTextual: {
      const bool textual = q.family == Family::kTextual;
      start = Clock::now();
      auto r = textual ? db.TextualSearch(q.text) : db.Search(q.text);
      stop();
      Must(r.status(), "search");
      a.canonical = Canon(*r);
      a.stats = r->stats;
      if (check_view != nullptr) a.check_error = CheckRanked(*r, q.text, textual);
      break;
    }
    case Family::kPersonalize: {
      start = Clock::now();
      auto r = db.Personalize(q.text);
      stop();
      Must(r.status(), "personalize");
      a.canonical = r->AugmentedQuery() + (r->truncated ? "|T" : "|F");
      for (const auto& c : r->candidates) a.canonical += "|" + c.term + Hex(c.score);
      a.stats = r->stats;
      break;
    }
    case Family::kTimeContext: {
      start = Clock::now();
      auto r = db.TimeContext(q.text, q.context);
      stop();
      Must(r.status(), "time context");
      a.canonical = r->truncated ? "T" : "F";
      for (const auto& m : r->matches) {
        a.canonical += "|" + std::to_string(m.page.page) + "," +
                       Hex(m.page.total) + (m.co_open ? ",1," : ",0,") +
                       Hex(m.overlap_ms);
      }
      a.stats = r->stats;
      break;
    }
    case Family::kTrace: {
      start = Clock::now();
      auto r = db.TraceDownload(q.download);
      stop();
      Must(r.status(), "trace download");
      a.canonical = std::to_string(r->recognizable_page) +
                    (r->truncated ? "|T" : "|F");
      for (const auto& s : r->path) {
        a.canonical += "|" + std::to_string(s.node) + ":" +
                       std::to_string(s.edge_kind);
      }
      a.stats = r->stats;
      if (check_view != nullptr) {
        a.check_error = CheckLineage(*check_view, *r, q.download);
      }
      break;
    }
    case Family::kDescendants: {
      const bp::search::LineageOptions options;
      start = Clock::now();
      auto r = db.DescendantDownloads(q.url, options);
      stop();
      Must(r.status(), "descendant downloads");
      a.canonical = r->truncated ? "T" : "F";
      std::set<NodeId> got;
      for (const auto& d : r->downloads) {
        a.canonical += "|" + std::to_string(d.download) + ":" +
                       std::to_string(d.depth);
        got.insert(d.download);
      }
      a.stats = r->stats;
      if (check_view != nullptr && !r->truncated) {
        auto want = ReferenceDescendants(*check_view, q.url, options.max_depth);
        if (!want.ok()) {
          a.check_error = "reference BFS: " + want.status().ToString();
        } else if (*want != got) {
          a.check_error = "DescendantDownloads(" + q.url + ") returned " +
                          std::to_string(got.size()) + " downloads, BFS finds " +
                          std::to_string(want->size());
        }
      }
      break;
    }
  }
  return a;
}

std::vector<std::string> AnswerAll(ProvenanceDb& db,
                                   const std::vector<Query>& mix, int threads,
                                   Report& report) {
  // The mix draws its inputs with replacement: answer each distinct
  // query once.
  std::map<std::tuple<Family, std::string, std::string, uint64_t, std::string>,
           size_t>
      first;
  std::vector<size_t> distinct, of(mix.size());
  for (size_t i = 0; i < mix.size(); ++i) {
    const Query& q = mix[i];
    auto [it, added] =
        first.emplace(std::make_tuple(q.family, q.text, q.context, q.download,
                                      q.url),
                      distinct.size());
    if (added) distinct.push_back(i);
    of[i] = it->second;
  }
  std::vector<std::string> answers(distinct.size());
  std::vector<std::string> errors(distinct.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    ProvenanceDb::SnapshotView view =
        Must(db.BeginSnapshot(), "check snapshot");
    for (size_t d = next.fetch_add(1); d < distinct.size();
         d = next.fetch_add(1)) {
      Answer a = RunQuery(db, mix[distinct[d]], &view);
      answers[d] = std::move(a.canonical);
      errors[d] = std::move(a.check_error);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();
  for (const std::string& e : errors) {
    if (!e.empty()) report.Fail(e);
  }
  std::vector<std::string> all(mix.size());
  for (size_t i = 0; i < mix.size(); ++i) all[i] = answers[of[i]];
  return all;
}

void RunLayerSequence(ProvenanceDb& db, const std::string& text,
                      uint64_t download, uint64_t request, Tracer& tracer,
                      LayerSamples& out) {
  ScopedSpan whole(tracer, "query.layers", request);
  auto t0 = Clock::now();
  std::unique_ptr<bp::storage::Snapshot> snap;
  std::unique_ptr<bp::prov::ProvStore> store;
  std::unique_ptr<bp::search::HistorySearcher> searcher;
  {
    ScopedSpan span(tracer, "storage.snapshot_open", request);
    snap = Must(db.db().BeginRead(), "BeginRead");
    store = db.store().AtSnapshot(*snap);
    searcher = Must(db.searcher().AtSnapshot(*snap, *store), "AtSnapshot");
  }
  auto t1 = Clock::now();
  {
    ScopedSpan span(tracer, "text.bm25", request);
    Must(searcher->TextualSearch(text, 10).status(), "TextualSearch");
  }
  auto t2 = Clock::now();
  {
    ScopedSpan span(tracer, "search.contextual", request);
    Must(searcher->ContextualSearch(text, {}).status(), "ContextualSearch");
  }
  auto t3 = Clock::now();
  {
    ScopedSpan span(tracer, "search.lineage", request);
    Must(bp::search::TraceDownload(*store, download).status(),
         "TraceDownload");
  }
  auto t4 = Clock::now();
  out.snapshot_open_us.Add(UsBetween(t0, t1));
  out.bm25_us.Add(UsBetween(t1, t2));
  out.contextual_us.Add(UsBetween(t2, t3));
  out.lineage_us.Add(UsBetween(t3, t4));
  out.pages_read += snap->stats().pages_read;
  ++out.sequences;
}

void ReadTotals::Add(Family family, const Answer& a) {
  (IsLineage(family) ? lineage_ms : text_ms).Add(a.us / 1000.0);
  ++queries;
  pool_hits += a.stats.pool_hits;
  pages_fetched += a.stats.pages_fetched;
  rows_scanned += a.stats.rows_scanned;
  edges_expanded += a.stats.edges_expanded;
}

void ReadTotals::Append(const ReadTotals& o) {
  text_ms.Append(o.text_ms);
  lineage_ms.Append(o.lineage_ms);
  queries += o.queries;
  pool_hits += o.pool_hits;
  pages_fetched += o.pages_fetched;
  rows_scanned += o.rows_scanned;
  edges_expanded += o.edges_expanded;
}

ReadTotals RunQueryPhase(ProvenanceDb& db, const std::vector<Query>& mix,
                         const std::vector<std::string>* expected,
                         int threads, double min_seconds, size_t min_samples,
                         Tracer& tracer, LayerSamples* layers,
                         Report& report) {
  size_t text_in_mix = 0;
  for (const Query& q : mix) text_in_mix += IsLineage(q.family) ? 0 : 1;
  const size_t want_text = text_in_mix > 0 ? min_samples : 0;
  const size_t want_lineage = text_in_mix < mix.size() ? min_samples : 0;

  // Query n answers mix[n % size]. The phase ends at the first pass
  // boundary after both goals are met, so every entry of the mix is
  // answered equally often (give or take the queries other readers had
  // already taken when the end was set).
  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t> end{UINT64_MAX};
  std::atomic<size_t> text_done{0}, lineage_done{0};
  std::deque<std::atomic<bool>> checked(mix.size());
  std::vector<ReadTotals> per_thread(threads);
  std::mutex errors_mu;
  std::vector<std::string> errors;
  const Clock::time_point start = Clock::now();

  auto reader = [&](int t) {
    ProvenanceDb::SnapshotView view =
        Must(db.BeginSnapshot(), "check snapshot");
    ReadTotals& mine = per_thread[t];
    for (;;) {
      const uint64_t n = next.fetch_add(1);
      if (n >= end.load()) break;
      const size_t i = n % mix.size();
      const Query& q = mix[i];
      const bool check =
          expected == nullptr && !checked[i].exchange(true);
      Answer a;
      {
        ScopedSpan span(tracer, "query.one_shot", n);
        a = RunQuery(db, q, check ? &view : nullptr);
      }
      mine.Add(q.family, a);
      std::string error = a.check_error;
      if (expected != nullptr && a.canonical != (*expected)[i]) {
        error = "answer " + std::to_string(i) +
                " differs from the pool-disabled reference:\n  got  " +
                a.canonical + "\n  want " + (*expected)[i];
      }
      if (!error.empty()) {
        std::lock_guard<std::mutex> lock(errors_mu);
        errors.push_back(error);
      }
      const size_t text = IsLineage(q.family) ? text_done.load()
                                              : text_done.fetch_add(1) + 1;
      const size_t lineage = IsLineage(q.family)
                                 ? lineage_done.fetch_add(1) + 1
                                 : lineage_done.load();
      if (layers != nullptr && n % 4 == 3) {
        const size_t k = n / 4;
        RunLayerSequence(db, layers->texts[k % layers->texts.size()],
                         layers->downloads[k % layers->downloads.size()], n,
                         tracer, *layers);
      }
      if (text >= want_text && lineage >= want_lineage &&
          SecondsSince(start) >= min_seconds) {
        const uint64_t pass_end = (n / mix.size() + 1) * mix.size();
        uint64_t current = end.load();
        while (pass_end < current &&
               !end.compare_exchange_weak(current, pass_end)) {
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(reader, t);
  for (std::thread& th : pool) th.join();

  ReadTotals totals;
  for (const ReadTotals& t : per_thread) totals.Append(t);
  for (const std::string& e : errors) report.Fail(e);
  return totals;
}

}  // namespace perfbench
