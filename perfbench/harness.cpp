#include "harness.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <unordered_map>

#include "sim/browser.hpp"
#include "sim/vocab.hpp"
#include "sim/web.hpp"
#include "util/rng.hpp"

namespace perfbench {

using bp::capture::BrowserEvent;

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the smallest value with at least q of the samples at
  // or below it.
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

void Report::Fail(const std::string& what) {
  if (correct_) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  correct_ = false;
}

std::string Report::Json(bool per_layer) const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    if ((name.find('.') != std::string::npos) != per_layer) continue;
    char buf[64];
    double v = std::isfinite(value.first) ? value.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           value.second + "\"}";
  }
  out += "}}";
  return out;
}

void Must(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 status.ToString().c_str());
    std::exit(3);
  }
}

// ----------------------------------------------------------- tracing

uint64_t& Tracer::CurrentSpan() {
  thread_local uint64_t span = 0;
  return span;
}
uint64_t& Tracer::CurrentRequest() {
  thread_local uint64_t request = 0;
  return request;
}
uint32_t Tracer::ThreadNumber() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t number = next.fetch_add(1);
  return number;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

int32_t Tracer::FileIndex(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.push_back(name);
  return static_cast<int32_t>(files_.size() - 1);
}

size_t Tracer::WriteJsonLines(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  // A header object, then one array per span, in the header's field
  // order; `file` indexes the header's file list (-1: not an I/O span).
  std::fprintf(f,
               "{\"fields\": [\"name\", \"start_ns\", \"end_ns\", \"id\", "
               "\"parent\", \"request\", \"thread\", \"file\"], "
               "\"spans\": %zu, \"dropped\": %llu, \"files\": [",
               spans_.size(), static_cast<unsigned long long>(dropped_));
  for (size_t i = 0; i < files_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", files_[i].c_str());
  }
  std::fputs("]}\n", f);
  for (const Span& s : spans_) {
    std::fprintf(f, "[\"%s\",%lld,%lld,%llu,%llu,%llu,%u,%d]\n", s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.thread, s.file);
  }
  std::fclose(f);
  return spans_.size();
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  span_.name = name;
  span_.id = tracer_.NextId();
  span_.parent = Tracer::CurrentSpan();
  span_.request = request;
  span_.thread = Tracer::ThreadNumber();
  saved_parent_ = Tracer::CurrentSpan();
  saved_request_ = Tracer::CurrentRequest();
  Tracer::CurrentSpan() = span_.id;
  Tracer::CurrentRequest() = request;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_.enabled()) return;
  span_.end_ns = NowNs();
  Tracer::CurrentSpan() = saved_parent_;
  Tracer::CurrentRequest() = saved_request_;
  tracer_.Record(span_);
}

// ---------------------------------------------------- timing Env

namespace {

enum IoKind { kRead = 0, kWrite = 1, kSync = 2 };
const char* const kIoSpanNames[2][3] = {
    {"env.read.main", "env.write.main", "env.sync.main"},
    {"env.read.wal", "env.write.wal", "env.sync.wal"}};

class TimingFile : public bp::storage::File {
 public:
  TimingFile(std::unique_ptr<bp::storage::File> base, TimingEnv& env,
             bool wal, int32_t index)
      : base_(std::move(base)), env_(env), wal_(wal), index_(index) {}

  Status Read(uint64_t offset, size_t n, std::string* out) const override {
    int64_t start = NowNs();
    Status status = base_->Read(offset, n, out);
    env_.OnIo(wal_, kRead, n, start, NowNs(), index_);
    return status;
  }
  Status Write(uint64_t offset, std::string_view data) override {
    int64_t start = NowNs();
    Status status = base_->Write(offset, data);
    env_.OnIo(wal_, kWrite, data.size(), start, NowNs(), index_);
    return status;
  }
  Status Sync() override {
    int64_t start = NowNs();
    Status status = base_->Sync();
    env_.OnIo(wal_, kSync, 0, start, NowNs(), index_);
    return status;
  }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Result<uint64_t> Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<bp::storage::File> base_;
  TimingEnv& env_;
  const bool wal_;
  const int32_t index_;
};

}  // namespace

Result<std::unique_ptr<bp::storage::File>> TimingEnv::Open(
    const std::string& name) {
  BP_ASSIGN_OR_RETURN(std::unique_ptr<bp::storage::File> file,
                      base_->Open(name));
  const bool wal = name.find(".wal") != std::string::npos;
  const int32_t index = tracer_.enabled() ? tracer_.FileIndex(name) : -1;
  return std::unique_ptr<bp::storage::File>(
      new TimingFile(std::move(file), *this, wal, index));
}

void TimingEnv::OnIo(bool wal, int kind, uint64_t bytes, int64_t start_ns,
                     int64_t end_ns, int32_t file) {
  AtomicCounters& c = counters_[wal ? 1 : 0];
  const uint64_t ns = static_cast<uint64_t>(end_ns - start_ns);
  switch (kind) {
    case kRead:
      c.reads.fetch_add(1, std::memory_order_relaxed);
      c.read_ns.fetch_add(ns, std::memory_order_relaxed);
      break;
    case kWrite:
      c.write_bytes.fetch_add(bytes, std::memory_order_relaxed);
      c.write_ns.fetch_add(ns, std::memory_order_relaxed);
      c.writes.fetch_add(1, std::memory_order_release);
      break;
    default:
      c.syncs.fetch_add(1, std::memory_order_relaxed);
      c.sync_ns.fetch_add(ns, std::memory_order_relaxed);
      if (wal) wal_sync_us_.Add(static_cast<double>(ns) / 1000.0);
      break;
  }
  if (tracer_.enabled()) {
    Span span;
    span.name = kIoSpanNames[wal ? 1 : 0][kind];
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    span.id = tracer_.NextId();
    span.parent = Tracer::CurrentSpan();
    span.request = Tracer::CurrentRequest();
    span.thread = Tracer::ThreadNumber();
    span.file = file;
    tracer_.Record(span);
  }
}

IoSnapshot TimingEnv::Counters() const {
  auto load = [](const AtomicCounters& c) {
    return IoCounters{c.reads.load(),       c.read_ns.load(),
                      c.writes.load(),      c.write_bytes.load(),
                      c.write_ns.load(),    c.syncs.load(),
                      c.sync_ns.load()};
  };
  return {load(counters_[1]), load(counters_[0])};
}

// ------------------------------------------------------- bus probe

Status BusProbe::OnEvent(const BrowserEvent&) {
  const int64_t now = NowNs();
  const uint64_t index = seen_++;
  if (index < seen_ns_.size()) seen_ns_[index] = now;
  // The recorder ran just before this call; with no WAL write since the
  // previous event, both sit in one batch and the gap is the
  // committer's per-event recording time.
  const uint64_t wal_writes = env_ != nullptr ? env_->wal_writes() : 0;
  if (index > 0 && wal_writes == last_wal_writes_) {
    record_gap_us_.Add(static_cast<double>(now - last_ns_) / 1000.0);
  }
  last_ns_ = now;
  last_wal_writes_ = wal_writes;
  if (tracer_.enabled()) {
    // Committer-side hand-off of event `index`; the WAL writes that
    // follow on this thread carry it as their request.
    Span span;
    span.name = "bus.committed";
    span.start_ns = span.end_ns = now;
    span.id = tracer_.NextId();
    span.request = index;
    span.thread = Tracer::ThreadNumber();
    tracer_.Record(span);
    Tracer::CurrentRequest() = index;
  }
  return Status::Ok();
}

// ---------------------------------------------------------- inputs

namespace {

// Every user browses one fixed simulated web; the seed picks the user.
// A web per seed would add the spread between webs to every metric.
constexpr uint64_t kWebSeed = 2009;

bp::sim::SimOutput Simulate(uint64_t user_seed, uint32_t days) {
  bp::util::Rng rng(kWebSeed);
  bp::sim::Vocabulary vocab = bp::sim::Vocabulary::Create(rng, {});
  bp::sim::WebGraph web = bp::sim::WebGraph::Generate(rng, {}, vocab);
  bp::sim::UserConfig user;
  user.seed = user_seed;
  user.days = days;
  return bp::sim::BrowserSim(web, user).Run();
}

// Session ends of a time-ordered stream.
std::vector<size_t> SessionEnds(const std::vector<BrowserEvent>& events) {
  std::vector<size_t> ends;
  for (size_t i = 0; i + 1 < events.size(); ++i) {
    if (bp::capture::EventTime(events[i + 1]) -
            bp::capture::EventTime(events[i]) >=
        kSessionGapMs) {
      ends.push_back(i);
    }
  }
  if (!events.empty()) ends.push_back(events.size() - 1);
  return ends;
}

History Finish(std::vector<BrowserEvent> events, std::vector<size_t> ends) {
  History h;
  h.events = std::move(events);
  h.session_ends = std::move(ends);
  struct VisitInfo {
    std::string url;
    uint64_t referrer = 0;
  };
  std::unordered_map<uint64_t, VisitInfo> visits;
  std::set<std::string> urls;
  for (const BrowserEvent& event : h.events) {
    if (const auto* v = std::get_if<bp::capture::VisitEvent>(&event)) {
      ++h.visits;
      visits[v->visit_id] = {v->url, v->referrer_visit};
      urls.insert(v->url);
    } else if (const auto* s = std::get_if<bp::capture::SearchEvent>(&event)) {
      ++h.searches;
      h.queries.push_back(s->query);
    } else if (const auto* d =
                   std::get_if<bp::capture::DownloadEvent>(&event)) {
      ++h.downloads;
      std::vector<std::string> sources;
      uint64_t visit = d->from_visit;
      for (int hop = 0; hop < 3 && visit != 0; ++hop) {
        auto it = visits.find(visit);
        if (it == visits.end()) break;
        sources.push_back(it->second.url);
        visit = it->second.referrer;
      }
      if (!sources.empty()) h.download_sources.push_back(std::move(sources));
    }
  }
  h.urls.assign(urls.begin(), urls.end());
  return h;
}

}  // namespace

History MakeHistoryByEvents(uint64_t user_seed, size_t min_events) {
  for (uint32_t days = 120;; days *= 2) {
    bp::sim::SimOutput out = Simulate(user_seed, days);
    std::vector<size_t> ends = SessionEnds(out.events);
    for (size_t s = 0; s < ends.size(); ++s) {
      if (ends[s] + 1 >= min_events) {
        out.events.resize(ends[s] + 1);
        ends.resize(s + 1);
        return Finish(std::move(out.events), std::move(ends));
      }
    }
  }
}

History MakeHistoryBySessions(uint64_t user_seed, size_t sessions) {
  for (uint32_t days = static_cast<uint32_t>(sessions / 3 + 2);; days *= 2) {
    bp::sim::SimOutput out = Simulate(user_seed, days);
    std::vector<size_t> ends = SessionEnds(out.events);
    if (ends.size() >= sessions) {
      out.events.resize(ends[sessions - 1] + 1);
      ends.resize(sessions);
      return Finish(std::move(out.events), std::move(ends));
    }
  }
}

// ------------------------------------------------------------ misc

uint64_t AllocatedBytes(const std::string& dir) {
  uint64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* entry = readdir(d)) {
    std::string path = dir + "/" + entry->d_name;
    struct stat st;
    if (lstat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_blocks) * 512;
    }
  }
  closedir(d);
  return total;
}

namespace {

void RemoveRecursive(const std::string& path) {
  struct stat st;
  if (lstat(path.c_str(), &st) != 0) return;
  if (S_ISDIR(st.st_mode)) {
    if (DIR* d = opendir(path.c_str())) {
      std::vector<std::string> names;
      while (dirent* entry = readdir(d)) {
        std::string name = entry->d_name;
        if (name != "." && name != "..") names.push_back(name);
      }
      closedir(d);
      for (const std::string& name : names) RemoveRecursive(path + "/" + name);
    }
    rmdir(path.c_str());
  } else {
    unlink(path.c_str());
  }
}

}  // namespace

void RemoveTree(const std::string& path) {
  RemoveRecursive(path);
  // Syncing the parent commits the removal now. The file system frees
  // (and, mounted with discard, trims) the blocks in that commit, which
  // would otherwise land on the next fsync the engine makes while timed.
  const size_t slash = path.find_last_of('/');
  const std::string parent = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    fsync(fd);
    close(fd);
  }
}

void MakeDir(const std::string& path) { mkdir(path.c_str(), 0755); }

void CopyFiles(const std::string& from, const std::string& to) {
  MakeDir(to);
  DIR* d = opendir(from.c_str());
  if (d == nullptr) return;
  while (dirent* entry = readdir(d)) {
    const std::string src = from + "/" + entry->d_name;
    struct stat st;
    if (lstat(src.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
    FILE* in = std::fopen(src.c_str(), "rb");
    FILE* out = std::fopen((to + "/" + entry->d_name).c_str(), "wb");
    char buf[1 << 16];
    size_t n = 0;
    while (in != nullptr && out != nullptr &&
           (n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
      std::fwrite(buf, 1, n, out);
    }
    if (in != nullptr) std::fclose(in);
    if (out != nullptr) {
      // Written back now, not by the kernel in the middle of a timed phase.
      std::fflush(out);
      fsync(fileno(out));
      std::fclose(out);
    }
  }
  closedir(d);
}

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace perfbench
