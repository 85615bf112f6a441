#include "trace.h"

#include <chrono>
#include <cstdio>

namespace layerbench {

namespace {

using monkeydb::Slice;
using monkeydb::Status;

std::mutex g_mu;
// Never destroyed: background threads may still look up their track while
// the process exits.
std::vector<std::unique_ptr<Track>>* g_tracks =
    new std::vector<std::unique_ptr<Track>>;
// Stall transitions: (timestamp, stalled?), in arrival order.
std::vector<std::pair<int64_t, bool>>* g_stalls =
    new std::vector<std::pair<int64_t, bool>>;
const auto g_epoch = std::chrono::steady_clock::now();

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

class TimedRandomAccessFile : public monkeydb::RandomAccessFile {
 public:
  TimedRandomAccessFile(std::unique_ptr<RandomAccessFile> base, TimingEnv* env)
      : base_(std::move(base)), env_(env) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    ScopedSpan span(Span::kRead);
    Status s = base_->Read(offset, n, result, scratch);
    span.set_bytes(result->size());
    env_->NoteRead();
    return s;
  }
  Status ReadBatch(monkeydb::ReadRequest* reqs, size_t count) const override {
    ScopedSpan span(Span::kReadBatch);
    Status s = base_->ReadBatch(reqs, count);
    uint64_t bytes = 0;
    for (size_t i = 0; i < count; i++) bytes += reqs[i].result.size();
    span.set_bytes(bytes);
    env_->NoteRead();
    return s;
  }
  bool SupportsReadBatch() const override {
    return base_->SupportsReadBatch();
  }
  void ReadAhead(uint64_t offset, size_t n) const override {
    base_->ReadAhead(offset, n);
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  TimingEnv* env_;
};

class TimedWritableFile : public monkeydb::WritableFile {
 public:
  TimedWritableFile(std::unique_ptr<WritableFile> base,
                    std::atomic<uint64_t>* bytes,
                    std::atomic<uint64_t>* sync_calls)
      : base_(std::move(base)), bytes_(bytes), sync_calls_(sync_calls) {}

  Status Append(const Slice& data) override {
    ScopedSpan span(Span::kAppend);
    span.set_bytes(data.size());
    bytes_->fetch_add(data.size(), std::memory_order_relaxed);
    return base_->Append(data);
  }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    ScopedSpan span(Span::kSync);
    sync_calls_->fetch_add(1, std::memory_order_relaxed);
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  std::atomic<uint64_t>* bytes_;
  std::atomic<uint64_t>* sync_calls_;
};

}  // namespace

const char* SpanName(Span s) {
  static const char* const kNames[kNumSpans] = {
      "lsm.get",  "lsm.put",       "lsm.scan",  "server.rtt",
      "server.rtt_batch", "io.read", "io.read_batch", "io.append",
      "io.sync",  "lsm.flush",     "lsm.merge"};
  return kNames[static_cast<int>(s)];
}

// --- Track ------------------------------------------------------------

void Track::Begin(Span s) {
  if (depth_ == kMaxDepth) return;  // Deeper spans are not recorded.
  Open& o = stack_[depth_];
  o.span = s;
  o.children.clear();
  if (depth_ == 0) {
    // Flush and merge intervals are rare: keep every one.
    const bool background = s == Span::kFlush || s == Span::kMerge;
    o.sampled = (background || top_level_spans_++ % kSampleEvery == 0) &&
                events.size() < kMaxEvents;
  } else {
    o.sampled = stack_[depth_ - 1].sampled;
  }
  depth_++;
  o.begin = Recorder::NowNs();
  if (o.sampled) events.push_back({o.begin, s, 'B'});
}

bool Track::InSpan(Span s) const {
  return depth_ > 0 && stack_[depth_ - 1].span == s;
}

void Track::End(Span s, uint64_t bytes) {
  const int64_t now = Recorder::NowNs();
  if (!InSpan(s)) return;
  Open& o = stack_[--depth_];
  const Interval iv{o.begin, now};
  const int i = static_cast<int>(s);
  const uint64_t dur = static_cast<uint64_t>(now - o.begin);
  total[i].count++;
  total[i].ns += dur;
  total[i].bytes += bytes;
  self_ns[i] += static_cast<uint64_t>(SelfTime(iv, o.children));
  const int parent =
      depth_ > 0 ? static_cast<int>(stack_[depth_ - 1].span) : kNumSpans;
  child[parent][i].count++;
  child[parent][i].ns += dur;
  child[parent][i].bytes += bytes;
  if (depth_ > 0) stack_[depth_ - 1].children.push_back(iv);
  if (o.sampled) events.push_back({now, s, 'E'});
}

// --- Recorder ---------------------------------------------------------

std::atomic<bool> Recorder::on_{false};

int64_t Recorder::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

Track* Recorder::Local() {
  thread_local Track* track = nullptr;
  if (track == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_tracks->push_back(
        std::make_unique<Track>(static_cast<int>(g_tracks->size()) + 1));
    track = g_tracks->back().get();
  }
  return track;
}

std::vector<Track*> Recorder::Tracks() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Track*> out;
  for (const auto& t : *g_tracks) out.push_back(t.get());
  return out;
}

void Recorder::NoteStall(bool stalled) {
  if (!on()) return;
  std::lock_guard<std::mutex> lock(g_mu);
  g_stalls->emplace_back(NowNs(), stalled);
}

namespace {

// Stall intervals from the transition log; an open stall ends at end_ns.
std::vector<Interval> StallIntervals(int64_t end_ns) {
  std::vector<Interval> out;
  bool open = false;
  int64_t begin = 0;
  for (const auto& [ts, stalled] : *g_stalls) {
    if (stalled && !open) {
      open = true;
      begin = ts;
    } else if (!stalled && open) {
      open = false;
      out.push_back({begin, ts});
    }
  }
  if (open) out.push_back({begin, std::max(begin, end_ns)});
  return out;
}

}  // namespace

Recorder::StallTotals Recorder::Stalls(int64_t end_ns) {
  std::lock_guard<std::mutex> lock(g_mu);
  StallTotals t;
  for (const Interval& iv : StallIntervals(end_ns)) {
    t.events++;
    t.seconds += static_cast<double>(iv.end - iv.begin) / 1e9;
  }
  return t;
}

bool Recorder::WriteChromeTrace(const std::string& path, int64_t end_ns) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  auto event = [&](const char* name, char ph, int64_t ts_ns, int tid) {
    fprintf(f, "%s{\"name\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":1,"
               "\"tid\":%d}",
            first ? "" : ",\n", name, ph, static_cast<double>(ts_ns) / 1e3,
            tid);
    first = false;
  };
  auto thread_name = [&](int tid, const char* name) {
    fprintf(f, "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
               "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
            first ? "" : ",\n", tid, name);
    first = false;
  };
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& t : *g_tracks) {
    if (t->events.empty()) continue;
    thread_name(t->tid(), t->role() == Role::kClient       ? "client"
                          : t->role() == Role::kServerLoop ? "server loop"
                                                           : "engine");
    for (const Track::Event& e : t->events) {
      event(SpanName(e.span), e.phase, e.ts_ns, t->tid());
    }
  }
  thread_name(0, "write stalls");
  for (const Interval& iv : StallIntervals(end_ns)) {
    event("lsm.stall", 'B', iv.begin, 0);
    event("lsm.stall", 'E', iv.end, 0);
  }
  fprintf(f, "\n]}\n");
  return fclose(f) == 0;
}

// --- TimingEnv --------------------------------------------------------

uint64_t TimingEnv::AppendedBytes() const {
  uint64_t total = 0;
  for (const auto& b : counters_.append_bytes) {
    total += b.load(std::memory_order_relaxed);
  }
  return total;
}

void TimingEnv::NoteRead() {
  if (mark_loop_.load(std::memory_order_relaxed) &&
      mark_loop_.exchange(false, std::memory_order_acq_rel)) {
    Recorder::Local()->set_role(Role::kServerLoop);
  }
}

Status TimingEnv::NewRandomAccessFile(
    const std::string& f, std::unique_ptr<monkeydb::RandomAccessFile>* r) {
  std::unique_ptr<monkeydb::RandomAccessFile> base;
  Status s = base_->NewRandomAccessFile(f, &base);
  if (!s.ok()) return s;
  *r = std::make_unique<TimedRandomAccessFile>(std::move(base), this);
  return s;
}

Status TimingEnv::NewWritableFile(const std::string& f,
                                  std::unique_ptr<monkeydb::WritableFile>* r) {
  std::unique_ptr<monkeydb::WritableFile> base;
  Status s = base_->NewWritableFile(f, &base);
  if (!s.ok()) return s;
  const FileKind kind = EndsWith(f, ".log") ? kWal
                        : EndsWith(f, ".sst") ? kSst
                                              : kOtherFile;
  *r = std::make_unique<TimedWritableFile>(
      std::move(base), &counters_.append_bytes[kind], &counters_.sync_calls);
  return s;
}

// --- SpanListener -----------------------------------------------------

void SpanListener::OnFlushBegin(const monkeydb::FlushJobInfo&) {
  if (Recorder::on()) Recorder::Local()->Begin(Span::kFlush);
}

void SpanListener::OnFlushCompleted(const monkeydb::FlushJobInfo&) {
  Recorder::Local()->End(Span::kFlush, 0);
}

void SpanListener::OnCompactionBegin(const monkeydb::CompactionJobInfo&) {
  if (Recorder::on()) Recorder::Local()->Begin(Span::kMerge);
}

void SpanListener::OnCompactionCompleted(const monkeydb::CompactionJobInfo&) {
  Recorder::Local()->End(Span::kMerge, 0);
}

void SpanListener::OnWriteStallChange(const monkeydb::WriteStallInfo& info) {
  Recorder::NoteStall(info.current ==
                      monkeydb::WriteStallInfo::Condition::kStalled);
}

}  // namespace layerbench
