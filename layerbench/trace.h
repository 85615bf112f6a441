// Span recording from outside the engine: the layered benchmark wraps its
// calls into each layer in spans, times every Env call through TimingEnv,
// and opens flush/merge intervals from an EventListener. Nothing here
// reaches inside src/.
//
// Attribution of an Env call follows the thread that makes it: on a
// client thread it is a child of that thread's current operation span, on
// a background thread a child of the flush or merge interval the listener
// has open, and on any other thread (the read pool, the server's event
// loop) a top-level span on that thread's own track.
//
// Spans are kept in memory per thread. Every span is folded into per-name
// totals (count, time, self time, and time by child name); every flush and
// merge and one operation in 32 also keep their begin/end events, up to a
// per-thread cap, for the Chrome trace that WriteChromeTrace emits at the
// end.

#ifndef LAYERBENCH_TRACE_H_
#define LAYERBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/env.h"
#include "obs/event_listener.h"
#include "stats.h"

namespace layerbench {

enum class Span : uint8_t {
  kGet,       // DB::Get.
  kPut,       // DB::Put.
  kScan,      // DB::NewIterator + Seek + Next calls.
  kRtt,       // One RESP round trip of the interactive connection.
  kBatchRtt,  // One depth-16 RESP round trip of the batch connection.
  kRead,      // RandomAccessFile::Read.
  kReadBatch, // RandomAccessFile::ReadBatch.
  kAppend,    // WritableFile::Append.
  kSync,      // WritableFile::Sync.
  kFlush,     // Listener flush interval.
  kMerge,     // Listener compaction interval.
  kNumSpans,
};
constexpr int kNumSpans = static_cast<int>(Span::kNumSpans);
const char* SpanName(Span s);

enum class Role : uint8_t { kOther, kClient, kServerLoop };

struct SpanTotals {
  uint64_t count = 0;
  uint64_t ns = 0;
  uint64_t bytes = 0;
};

// One thread's spans. Written only by its thread; read by the main thread
// after every thread that records into it has been joined.
class Track {
 public:
  explicit Track(int tid) : tid_(tid) {}

  void Begin(Span s);
  void End(Span s, uint64_t bytes);
  bool InSpan(Span s) const;

  int tid() const { return tid_; }
  Role role() const { return role_; }
  void set_role(Role r) { role_ = r; }

  // Totals by span name, and self time (duration minus covered children).
  SpanTotals total[kNumSpans];
  uint64_t self_ns[kNumSpans] = {};
  // child[p][c]: spans named c whose parent is named p; row kNumSpans
  // holds the spans that had no parent (top level).
  SpanTotals child[kNumSpans + 1][kNumSpans];

  struct Event {
    int64_t ts_ns;
    Span span;
    char phase;
  };
  std::vector<Event> events;

 private:
  static constexpr int kMaxDepth = 8;
  static constexpr size_t kMaxEvents = 40000;
  static constexpr uint64_t kSampleEvery = 32;

  struct Open {
    Span span;
    int64_t begin;
    bool sampled;
    std::vector<Interval> children;
  };

  const int tid_;
  Role role_ = Role::kOther;
  int depth_ = 0;
  uint64_t top_level_spans_ = 0;
  Open stack_[kMaxDepth];
};

// Process-wide span store.
class Recorder {
 public:
  static bool on() { return on_.load(std::memory_order_relaxed); }
  static void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  static int64_t NowNs();

  // The calling thread's track, created on first use.
  static Track* Local();

  // Every track so far. Call only once the recording threads are joined.
  static std::vector<Track*> Tracks();

  // Write stalls: the listener reports transitions; intervals are kept
  // while recording is on.
  static void NoteStall(bool stalled);
  struct StallTotals {
    uint64_t events = 0;
    double seconds = 0;
  };
  static StallTotals Stalls(int64_t end_ns);

  // Writes every sampled span as Chrome trace JSON ('B'/'E' events, one
  // track per thread, stalls on their own track).
  static bool WriteChromeTrace(const std::string& path, int64_t end_ns);

 private:
  static std::atomic<bool> on_;
};

// Opens a span on the calling thread while recording is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span s) : span_(s) {
    if (Recorder::on()) {
      track_ = Recorder::Local();
      track_->Begin(s);
    }
  }
  ~ScopedSpan() {
    if (track_ != nullptr) track_->End(span_, bytes_);
  }
  void set_bytes(uint64_t b) { bytes_ = b; }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  uint64_t bytes_ = 0;
  Track* track_ = nullptr;
};

// Env decorator: forwards to `base`, counts appended bytes and syncs always
// (the end-to-end write_amp needs them), and records one span per
// Read/ReadBatch/Append/Sync while the Recorder is on.
class TimingEnv : public monkeydb::Env {
 public:
  explicit TimingEnv(monkeydb::Env* base) : base_(base) {}

  enum FileKind { kWal, kSst, kOtherFile, kNumKinds };
  struct Counters {
    std::atomic<uint64_t> append_bytes[kNumKinds] = {};
    std::atomic<uint64_t> sync_calls{0};
  };
  Counters& counters() { return counters_; }
  uint64_t AppendedBytes() const;

  // The next thread that reads through this Env is marked as the server's
  // event loop (set before sending one cold GET at depth 1).
  void MarkNextReaderAsServerLoop() {
    mark_loop_.store(true, std::memory_order_release);
  }

  monkeydb::Status NewSequentialFile(
      const std::string& f,
      std::unique_ptr<monkeydb::SequentialFile>* r) override {
    return base_->NewSequentialFile(f, r);
  }
  monkeydb::Status NewRandomAccessFile(
      const std::string& f,
      std::unique_ptr<monkeydb::RandomAccessFile>* r) override;
  monkeydb::Status NewWritableFile(
      const std::string& f,
      std::unique_ptr<monkeydb::WritableFile>* r) override;
  bool FileExists(const std::string& f) override {
    return base_->FileExists(f);
  }
  monkeydb::Status GetChildren(const std::string& d,
                               std::vector<std::string>* r) override {
    return base_->GetChildren(d, r);
  }
  monkeydb::Status RemoveFile(const std::string& f) override {
    return base_->RemoveFile(f);
  }
  monkeydb::Status CreateDir(const std::string& d) override {
    return base_->CreateDir(d);
  }
  monkeydb::Status GetFileSize(const std::string& f, uint64_t* s) override {
    return base_->GetFileSize(f, s);
  }
  monkeydb::Status RenameFile(const std::string& s,
                              const std::string& t) override {
    return base_->RenameFile(s, t);
  }

  // Called by the wrapped files on every read.
  void NoteRead();

 private:
  monkeydb::Env* const base_;
  Counters counters_;
  std::atomic<bool> mark_loop_{false};
};

// Opens a flush or merge interval on the thread that runs it, and reports
// write-stall transitions to the Recorder.
class SpanListener : public monkeydb::EventListener {
 public:
  void OnFlushBegin(const monkeydb::FlushJobInfo&) override;
  void OnFlushCompleted(const monkeydb::FlushJobInfo&) override;
  void OnCompactionBegin(const monkeydb::CompactionJobInfo&) override;
  void OnCompactionCompleted(const monkeydb::CompactionJobInfo&) override;
  void OnWriteStallChange(const monkeydb::WriteStallInfo& i) override;
};

}  // namespace layerbench

#endif  // LAYERBENCH_TRACE_H_
