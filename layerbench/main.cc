// layerbench: the repository's layered benchmark.
//
//   layerbench --workload kv_read|kv_write|resp_mixed --seed N --seconds S
//              --trace 0|1 --dir WORKDIR
//
// One engine configuration throughout: leveling, T=4, 4 MiB write buffer,
// 5 bits/entry under the Monkey FPR policy, background compaction, WAL
// written but not fsynced per write, no read pool, PosixEnv under a
// TimingEnv decorator.
// Set-up loads a fixed key sequence with background compaction off and
// reopens with it on, so every run starts from the same tree.
//
// Workloads (closed loop, one process, two client threads):
//   kv_read    1M keys x 100 B against an 8 MiB block cache: the data is far
//              larger than the cache. 50% existing-key Get, 45% zero-result
//              Get, 5% overwrite Put. Filters, fence pointers and device
//              reads do the work (the paper's Eq. 3 regime).
//   kv_write   same set-up; 90% overwrite Put, 10% scan (Seek + 16 Next).
//              WAL, memtable, flush, merge, stalls and the iterator do the
//              work, with compaction running beside live reads.
//   resp_mixed an in-process MonkeyServer (1 shard, 64 MiB block cache,
//              200k keys x 100 B preloaded over RESP and compacted, so the
//              data fits in the cache). An interactive connection sends
//              depth-1 GETs while a batch connection sends depth-16
//              pipelines of 90% GET / 10% SET; GET keys are zipfian
//              (theta 0.99). Parsing, the event loop, sockets and MultiGet
//              do the work, and one client's batches delay the other's
//              round trips.
//
// Every answer is checked (check.h) and every failure counted; after the
// run each DB is closed, reopened and read back in full. With --trace 0 the
// run measures the end-to-end metrics. With --trace 1 it measures half the
// time traced between two untraced quarters, and reports the per-layer
// metrics, a
// layer table whose rows add up to the operation time, and a Chrome trace.
// The last line of stdout is the result JSON.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "io/block_cache.h"
#include "lsm/db.h"
#include "monkey/monkey_db.h"
#include "obs/metrics.h"
#include "obs/perf_context.h"
#include "server/resp_client.h"
#include "server/server.h"
#include "stats.h"
#include "trace.h"

namespace layerbench {
namespace {

using monkeydb::DB;
using monkeydb::DbOptions;
using monkeydb::DbStats;
using monkeydb::Hist;
using monkeydb::MonkeyServer;
using monkeydb::ReadOptions;
using monkeydb::RespClient;
using monkeydb::RespReply;
using monkeydb::Slice;
using monkeydb::Status;
using monkeydb::WriteOptions;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr uint64_t kKvKeys = 1000000;
constexpr uint64_t kRespKeys = 200000;
constexpr size_t kKvCacheBytes = 8u << 20;
constexpr size_t kRespCacheBytes = 64u << 20;
constexpr int kClientThreads = 2;
constexpr int kSetupRepeats = 3;
// A window's tail is what a shared host moves most: a millisecond in which
// it takes a core away lands in the window's top percent but hardly moves
// its median or its op count. So the tail of a phase is that of its quiet
// windows, the third-lowest of 20. A tail the program has in every window
// shows in full; stalls confined to some windows show in lsm.stall_s and
// ops_per_s instead.
constexpr double kQuietWindows = 0.1;
constexpr int kScanRows = 17;  // Seek + 16 Next.
constexpr int kBatchDepth = 16;
constexpr double kZipfTheta = 0.99;
constexpr uint64_t kLoadOrderSeed = 0x6d6f6e6b6579;  // Fixed: same tree.
const size_t kEntryBytes = ExistingKey(0).size() + kValueSize;

[[noreturn]] void Die(const std::string& what) {
  fprintf(stderr, "layerbench: %s\n", what.c_str());
  exit(2);
}

void Require(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// YCSB's zipfian generator over [0, n), scrambled by a bijection so hot
// keys do not cluster in one block.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    for (uint64_t i = 1; i <= n; i++) zetan_ += 1.0 / std::pow(i, theta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }
  uint64_t Next(std::mt19937_64* rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(*rng);
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, theta_)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    rank = std::min(rank, n_ - 1);
    return (rank * 1000003) % n_;  // 1000003 is coprime with n_ here.
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

// Versions each key may hold: a writer stores `issued` before its write
// and `acked` after the write is acknowledged.
struct Versions {
  explicit Versions(size_t n) : acked(n), issued(n) {}
  std::vector<std::atomic<uint32_t>> acked;
  std::vector<std::atomic<uint32_t>> issued;

  uint32_t Acked(uint64_t id) const {
    return acked[id].load(std::memory_order_acquire);
  }
  uint32_t Issued(uint64_t id) const {
    return issued[id].load(std::memory_order_acquire);
  }
  uint32_t Issue(uint64_t id) {
    const uint32_t v = issued[id].load(std::memory_order_relaxed) + 1;
    issued[id].store(v, std::memory_order_release);
    return v;
  }
  void Ack(uint64_t id, uint32_t v) {
    acked[id].store(v, std::memory_order_release);
  }
};

// --- Per-thread results -----------------------------------------------

enum Op { kOpGet, kOpPut, kOpScan, kOpRtt, kOpSet, kNumOps };

// PerfContext stage times and counts of one operation kind (traced only).
struct PerfSums {
  uint64_t get_count = 0, filter_probes = 0, fence_seeks = 0, blocks = 0;
  uint64_t get_ns = 0, memtable_lookup_ns = 0, filter_probe_ns = 0,
           block_read_ns = 0, queue_wait_ns = 0, wal_write_ns = 0,
           memtable_apply_ns = 0;

  static PerfSums Now() {
    const monkeydb::PerfContext* p = monkeydb::GetPerfContext();
    PerfSums s;
    s.get_count = p->get_count;
    s.filter_probes = p->filter_probes;
    s.fence_seeks = p->fence_seeks;
    s.blocks = p->blocks_read_from_cache + p->blocks_read_from_disk +
               p->blocks_read_from_prefetch;
    s.get_ns = p->get_nanos;
    s.memtable_lookup_ns = p->memtable_lookup_nanos;
    s.filter_probe_ns = p->filter_probe_nanos;
    s.block_read_ns = p->block_read_nanos;
    s.queue_wait_ns = p->write_queue_wait_nanos;
    s.wal_write_ns = p->wal_write_nanos;
    s.memtable_apply_ns = p->memtable_apply_nanos;
    return s;
  }
  // *this += b - a, field by field.
  void AddDelta(const PerfSums& a, const PerfSums& b) {
    static constexpr uint64_t PerfSums::*kFields[] = {
        &PerfSums::get_count,          &PerfSums::filter_probes,
        &PerfSums::fence_seeks,        &PerfSums::blocks,
        &PerfSums::get_ns,             &PerfSums::memtable_lookup_ns,
        &PerfSums::filter_probe_ns,    &PerfSums::block_read_ns,
        &PerfSums::queue_wait_ns,      &PerfSums::wal_write_ns,
        &PerfSums::memtable_apply_ns};
    for (uint64_t PerfSums::*f : kFields) this->*f += b.*f - a.*f;
  }
  void Add(const PerfSums& o) { AddDelta(PerfSums(), o); }
};

// Completions and latencies of one one-second window of a phase.
struct Window {
  uint64_t ops = 0;
  LatencyHistogram lat_ns[kNumOps];
};

struct ThreadResult {
  Clock::time_point start;
  Clock::duration window_len{};
  std::vector<Window> windows;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  PerfSums perf[kNumOps];

  // Counts an operation that completed at `end`.
  Window& Complete(Clock::time_point end) {
    attempted++;
    const auto w = static_cast<size_t>((end - start) / window_len);
    Window& window = windows[std::min(w, windows.size() - 1)];
    window.ops++;
    return window;
  }
  void Record(Op op, Clock::time_point end, Clock::duration latency) {
    Complete(end).lat_ns[op].Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(latency)
            .count()));
  }
  LatencyHistogram Total(Op op) const {
    LatencyHistogram h;
    for (const Window& w : windows) h.Merge(w.lat_ns[op]);
    return h;
  }
  void Fail(const std::string& why) {
    failed++;
    if (first_failure.empty()) first_failure = why;
  }
};

// Times one operation of kind `op` and, when tracing, attributes its
// PerfContext deltas to that kind.
class OpTimer {
 public:
  OpTimer(ThreadResult* r, Op op, bool traced)
      : r_(r), op_(op), traced_(traced) {
    if (traced_) before_ = PerfSums::Now();
    start_ = Clock::now();
  }
  ~OpTimer() {
    const auto end = Clock::now();
    r_->Record(op_, end, end - start_);
    if (traced_) r_->perf[op_].AddDelta(before_, PerfSums::Now());
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  ThreadResult* r_;
  Op op_;
  bool traced_;
  PerfSums before_;
  Clock::time_point start_;
};

// Bytes and syncs through the timing Env, read at the edges of a phase.
struct EnvCounts {
  uint64_t appended = 0, wal = 0, sst = 0, syncs = 0;

  static EnvCounts Of(TimingEnv* env) {
    auto& c = env->counters();
    EnvCounts e;
    e.appended = env->AppendedBytes();
    e.wal = c.append_bytes[TimingEnv::kWal].load();
    e.sst = c.append_bytes[TimingEnv::kSst].load();
    e.syncs = c.sync_calls.load();
    return e;
  }
};

// What a measured phase produced, merged over threads.
struct Phase {
  double seconds = 0;
  ThreadResult total;
  DbStats stats_before, stats_after;
  EnvCounts env_before, env_after;
  uint64_t puts = 0;  // Puts or SETs issued.
  uint64_t loaded_bytes = 0;  // User bytes the set-up loaded.
  uint64_t appended_before_load = 0;
  uint64_t ops = 0;   // Operations or commands completed.
  double predicted_r = 0;
  double disk_bytes = 0;  // Mean over the phase.
  uint64_t live_bytes = 0;
  // resp_mixed only.
  MonkeyServer::EngineCalls calls_before, calls_after;
  uint64_t commands_before = 0, commands_after = 0;
  monkeydb::HistogramData server_get, pipeline_depth, engine_get,
      engine_multiget, engine_write;
  uint64_t backpressure_pauses = 0;
  int64_t end_ns = 0;
};

void Merge(ThreadResult* into, ThreadResult* from) {
  if (into->windows.empty()) {
    into->start = from->start;
    into->window_len = from->window_len;
  }
  into->windows.resize(std::max(into->windows.size(), from->windows.size()));
  for (size_t w = 0; w < from->windows.size(); w++) {
    into->windows[w].ops += from->windows[w].ops;
    for (int i = 0; i < kNumOps; i++) {
      into->windows[w].lat_ns[i].Merge(from->windows[w].lat_ns[i]);
    }
  }
  for (int i = 0; i < kNumOps; i++) into->perf[i].Add(from->perf[i]);
  into->attempted += from->attempted;
  into->failed += from->failed;
  if (into->first_failure.empty()) into->first_failure = from->first_failure;
}


// Bytes in the files under dir. Files that compaction deletes during the
// walk are skipped.
uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code size_ec;
    const uintmax_t size = it->file_size(size_ec);
    if (!size_ec) total += size;
  }
  return total;
}

double PredictedR(DB* db) {
  const std::string text = db->DumpMetrics(DB::MetricsFormat::kPrometheus);
  std::istringstream in(text);
  std::string line;
  const std::string name = "monkey_predicted_lookup_cost ";
  while (std::getline(in, line)) {
    if (line.compare(0, name.size(), name) == 0) {
      return std::stod(line.substr(name.size()));
    }
  }
  return 0;
}

// Runs kClientThreads closed-loop clients for `seconds` and gathers what
// every workload reports. client(i, seed, deadline, result) is client i.
template <typename ClientFn>
Phase Measure(DB* db, TimingEnv* env, const std::string& dir, uint64_t seed,
              double seconds, bool traced, const ClientFn& client) {
  Phase p;
  p.stats_before = db->GetStats();
  p.env_before = EnvCounts::Of(env);
  Recorder::set_on(traced);
  std::vector<ThreadResult> results(kClientThreads);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  const auto length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  const auto deadline = start + length;
  const int windows = std::max(1, static_cast<int>(std::lround(seconds)));
  for (ThreadResult& r : results) {
    r.start = start;
    r.window_len = length / windows;
    r.windows.resize(static_cast<size_t>(windows));
  }
  // The traced phase draws other keys than the untraced ones.
  const uint64_t phase_seed = seed + (traced ? 7919 : 0);
  for (int t = 0; t < kClientThreads; t++) {
    threads.emplace_back([&, t] {
      if (traced) {
        monkeydb::SetPerfLevel(monkeydb::PerfLevel::kCountsAndTime);
        Recorder::Local()->set_role(Role::kClient);
      }
      client(t, phase_seed, deadline, &results[static_cast<size_t>(t)]);
    });
  }
  // Space on disk is sampled through the phase: the mean covers whole
  // flush and merge cycles, not wherever the last one stopped.
  double disk_sum = 0;
  int samples = 0;
  while (Clock::now() < deadline) {
    disk_sum += static_cast<double>(DirBytes(dir));
    samples++;
    std::this_thread::sleep_until(
        std::min(deadline, Clock::now() + std::chrono::milliseconds(100)));
  }
  for (auto& t : threads) t.join();
  p.seconds = Seconds(start, Clock::now());
  p.end_ns = Recorder::NowNs();
  p.disk_bytes = samples > 0 ? disk_sum / samples
                             : static_cast<double>(DirBytes(dir));
  Recorder::set_on(false);
  for (auto& r : results) Merge(&p.total, &r);
  p.stats_after = db->GetStats();
  p.env_after = EnvCounts::Of(env);
  p.ops = p.total.attempted;
  p.predicted_r = PredictedR(db);
  return p;
}

// --- Engine configuration ---------------------------------------------

struct Engine {
  explicit Engine(size_t cache_bytes)
      : env(monkeydb::GetPosixEnv()),
        cache(std::make_unique<monkeydb::BlockCache>(cache_bytes)),
        listener(std::make_shared<SpanListener>()) {}
  TimingEnv env;
  std::unique_ptr<monkeydb::BlockCache> cache;
  std::shared_ptr<SpanListener> listener;
  uint64_t appended_before_load = 0;  // Env bytes when the last load began.

  DbOptions Options(bool background, bool metrics) {
    DbOptions o;
    o.env = &env;
    o.merge_policy = monkeydb::MergePolicy::kLeveling;
    o.size_ratio = 4;
    o.buffer_size_bytes = 4u << 20;
    o.bits_per_entry = 5;
    o.fpr_policy = monkeydb::monkey::NewMonkeyFprPolicy();
    o.block_cache = cache.get();
    o.sync_writes = false;
    o.background_compaction = background;
    // No read pool: MultiGet fetches its blocks on the calling thread. Each
    // hand-off to a pool thread is a wake-up, and on a shared host a wake-up
    // that lands on a descheduled core waits milliseconds: with the default
    // four pool threads resp_mixed measured the host's scheduler (a quarter
    // of the throughput, p99 in ms, changing from run to run), and even with
    // two its p99 doubled whenever the host was busy. Get and the scans
    // (no readahead) never use the pool.
    o.read_io_threads = 0;
    o.enable_metrics = metrics;
    o.listeners.push_back(listener);
    return o;
  }
};

std::vector<uint64_t> LoadOrder(uint64_t n) {
  std::vector<uint64_t> ids(n);
  for (uint64_t i = 0; i < n; i++) ids[i] = i;
  std::mt19937_64 rng(kLoadOrderSeed);
  std::shuffle(ids.begin(), ids.end(), rng);
  return ids;
}

// Reads every key back from a freshly reopened DB: each must hold exactly
// its last acknowledged version and nothing else may be stored.
void VerifyReopened(DB* db, uint64_t n, const Versions& ver,
                    ThreadResult* r) {
  std::unique_ptr<monkeydb::Iterator> it = db->NewIterator(ReadOptions());
  uint64_t id = 0;
  std::string why;
  for (it->SeekToFirst(); it->Valid(); it->Next(), id++) {
    r->attempted++;
    if (id >= n) {
      r->Fail("reopened DB holds extra key " + it->key().ToString());
      continue;
    }
    const uint32_t v = ver.Acked(id);
    const std::string key = ExistingKey(id);
    if (it->key() != Slice(key)) {
      r->Fail("reopened DB: expected key " + key + ", found " +
              it->key().ToString());
      return;
    }
    if (!CheckValue(id, Status::OK(), it->value(), {v, v}, &why)) {
      r->Fail("after reopen: " + why);
    }
  }
  if (!it->status().ok()) r->Fail("reopen scan: " + it->status().ToString());
  for (; id < n; id++) {
    r->attempted++;
    r->Fail("reopened DB lost key " + std::to_string(id));
  }
}

// --- Embedded workloads -------------------------------------------------

struct KvBench {
  Engine engine{kKvCacheBytes};
  std::string dir;
  std::unique_ptr<DB> db;
  Versions ver{kKvKeys};
  bool metrics = false;

  double SetupOnce() {
    fs::remove_all(dir);
    engine.appended_before_load = engine.env.AppendedBytes();
    const auto t0 = Clock::now();
    {
      std::unique_ptr<DB> loader;
      Require(DB::Open(engine.Options(false, false), dir, &loader),
              "open for load");
      monkeydb::WriteBatch batch;
      const std::vector<uint64_t> order = LoadOrder(kKvKeys);
      for (size_t i = 0; i < order.size(); i++) {
        const std::string key = ExistingKey(order[i]);
        const std::string value = EncodeValue(order[i], kLoadWriter, 0);
        batch.Put(key, value);
        if (batch.count() == 1000 || i + 1 == order.size()) {
          Require(loader->Write(WriteOptions(), batch), "load");
          batch.Clear();
        }
      }
    }
    Reopen();
    return Seconds(t0, Clock::now());
  }

  void Reopen() {
    db.reset();
    Require(DB::Open(engine.Options(true, metrics), dir, &db), "open");
  }

  void PutOwnKey(std::mt19937_64* rng, int tid, ThreadResult* r,
                 bool traced) {
    const uint64_t id =
        2 * (rng->operator()() % (kKvKeys / kClientThreads)) + tid;
    const uint32_t v = ver.Issue(id);
    const std::string key = ExistingKey(id);
    const std::string value = EncodeValue(id, static_cast<char>('0' + tid), v);
    Status s;
    {
      OpTimer timer(r, kOpPut, traced);
      ScopedSpan span(Span::kPut);
      s = db->Put(WriteOptions(), key, value);
    }
    if (s.ok()) {
      ver.Ack(id, v);
    } else {
      r->Fail("put: " + s.ToString());
    }
  }

  void Get(uint64_t id, bool absent, ThreadResult* r, bool traced,
           std::string* value) {
    VersionRange range{ver.Acked(id), 0};
    const std::string key = absent ? AbsentKey(id) : ExistingKey(id);
    Status s;
    {
      OpTimer timer(r, kOpGet, traced);
      ScopedSpan span(Span::kGet);
      s = db->Get(ReadOptions(), key, value);
    }
    std::string why;
    range.max = ver.Issued(id);
    if (absent ? !CheckZeroResult(s, &why)
               : !CheckValue(id, s, *value, range, &why)) {
      r->Fail(why);
    }
  }

  void Scan(uint64_t start, ThreadResult* r, bool traced) {
    std::vector<VersionRange> ranges;
    for (uint64_t id = start; id < kKvKeys && ranges.size() < kScanRows;
         id++) {
      ranges.push_back({ver.Acked(id), 0});
    }
    ranges.resize(kScanRows);
    std::vector<std::pair<std::string, std::string>> rows;
    Status s;
    {
      OpTimer timer(r, kOpScan, traced);
      ScopedSpan span(Span::kScan);
      std::unique_ptr<monkeydb::Iterator> it = db->NewIterator(ReadOptions());
      const std::string first = ExistingKey(start);
      it->Seek(first);
      for (; it->Valid() && rows.size() < kScanRows; it->Next()) {
        rows.emplace_back(it->key().ToString(), it->value().ToString());
      }
      s = it->status();
    }
    for (size_t i = 0; i < ranges.size() && start + i < kKvKeys; i++) {
      ranges[i].max = ver.Issued(start + i);
    }
    std::string why;
    if (!s.ok()) {
      r->Fail("scan: " + s.ToString());
    } else if (!CheckScan(start, kKvKeys, rows, ranges, &why)) {
      r->Fail(why);
    }
  }

  void Client(const std::string& workload, uint64_t seed, int tid,
              Clock::time_point deadline, bool traced, ThreadResult* r) {
    std::mt19937_64 rng(Mix(seed * 1315423911u + static_cast<uint64_t>(tid)));
    std::string value;
    const bool read_mix = workload == "kv_read";
    while (Clock::now() < deadline) {
      const uint64_t pick = rng() % 100;
      if (read_mix) {
        if (pick < 50) {
          Get(rng() % kKvKeys, false, r, traced, &value);
        } else if (pick < 95) {
          Get(rng() % kKvKeys, true, r, traced, &value);
        } else {
          PutOwnKey(&rng, tid, r, traced);
        }
      } else if (pick < 90) {
        PutOwnKey(&rng, tid, r, traced);
      } else {
        Scan(rng() % kKvKeys, r, traced);
      }
    }
  }

  Phase Run(const std::string& workload, uint64_t seed, double seconds,
            bool traced) {
    Phase p = Measure(db.get(), &engine.env, dir, seed, seconds, traced,
                      [&](int t, uint64_t s, Clock::time_point deadline,
                          ThreadResult* r) {
                        Client(workload, s, t, deadline, traced, r);
                      });
    p.puts = p.total.Total(kOpPut).count();
    p.live_bytes = p.loaded_bytes = kKvKeys * kEntryBytes;
    p.appended_before_load = engine.appended_before_load;
    return p;
  }

  // Closes the DB cleanly, reopens it and reads every key back.
  void Verify(ThreadResult* r) {
    Reopen();
    VerifyReopened(db.get(), kKvKeys, ver, r);
    db.reset();
  }
};

// --- RESP workload ------------------------------------------------------

bool ReadReplyChecked(RespClient* c, RespReply* reply, ThreadResult* r) {
  Status s = c->ReadReply(reply);
  if (!s.ok()) {
    r->Fail("RESP read: " + s.ToString());
    return false;
  }
  return true;
}

void CheckGetReply(uint64_t id, const RespReply& reply, VersionRange range,
                   ThreadResult* r) {
  std::string why;
  const Status s = reply.type == RespReply::Type::kBulk
                       ? Status::OK()
                       : reply.type == RespReply::Type::kNull
                             ? Status::NotFound("nil")
                             : Status::IoError(reply.ToString());
  if (!CheckValue(id, s, reply.str, range, &why)) r->Fail(why);
}

struct RespBench {
  Engine engine{kRespCacheBytes};
  std::string dir;
  std::unique_ptr<MonkeyServer> server;
  Versions ver{kRespKeys};
  Zipf zipf{kRespKeys, kZipfTheta};
  bool metrics = false;

  void Start(bool background) {
    monkeydb::ServerOptions o;
    o.server_port = 0;
    o.server_shards = 1;
    o.db_options = engine.Options(background, metrics);
    Require(MonkeyServer::Start(o, dir, &server), "server start");
  }

  void Connect(RespClient* c) {
    Require(c->Connect("127.0.0.1", server->port()), "connect");
  }

  double SetupOnce() {
    server.reset();
    fs::remove_all(dir);
    engine.cache = std::make_unique<monkeydb::BlockCache>(kRespCacheBytes);
    engine.appended_before_load = engine.env.AppendedBytes();
    const auto t0 = Clock::now();
    Start(false);
    {
      RespClient c;
      Connect(&c);
      const std::vector<uint64_t> order = LoadOrder(kRespKeys);
      constexpr size_t kChunk = 500;
      for (size_t i = 0; i < order.size(); i += kChunk) {
        std::string wire;
        const size_t end = std::min(order.size(), i + kChunk);
        for (size_t j = i; j < end; j++) {
          RespClient::EncodeCommand(
              {"SET", ExistingKey(order[j]),
               EncodeValue(order[j], kLoadWriter, 0)},
              &wire);
        }
        Require(c.SendRaw(wire), "preload send");
        for (size_t j = i; j < end; j++) {
          RespReply reply;
          Require(c.ReadReply(&reply), "preload reply");
          if (reply.type != RespReply::Type::kSimple) {
            Die("preload SET answered " + reply.ToString());
          }
        }
      }
    }
    Require(server->shard_db(0)->CompactAll(), "compact");
    server.reset();
    engine.cache = std::make_unique<monkeydb::BlockCache>(kRespCacheBytes);
    Start(true);
    // One cold GET at depth 1 runs DB::Get on the event loop and reads its
    // block there: that marks the loop thread's track.
    engine.env.MarkNextReaderAsServerLoop();
    RespClient c;
    Connect(&c);
    RespReply reply;
    Require(c.Command({"GET", ExistingKey(0)}, &reply), "probe GET");
    ThreadResult probe;
    CheckGetReply(0, reply, {0, 0}, &probe);
    if (probe.failed > 0) Die("probe GET: " + probe.first_failure);
    // The data fits in the cache: read every block once so the phase
    // starts warm instead of spending its first seconds filling it.
    std::unique_ptr<monkeydb::Iterator> it =
        server->shard_db(0)->NewIterator(ReadOptions());
    uint64_t rows = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) rows++;
    Require(it->status(), "warm-up scan");
    if (rows != kRespKeys) Die("warm-up scan found " + std::to_string(rows));
    return Seconds(t0, Clock::now());
  }

  void Interactive(uint64_t seed, Clock::time_point deadline,
                   ThreadResult* r) {
    std::mt19937_64 rng(Mix(seed * 2654435761u + 1));
    RespClient c;
    Connect(&c);
    RespReply reply;
    while (Clock::now() < deadline) {
      const uint64_t id = zipf.Next(&rng);
      VersionRange range{ver.Acked(id), 0};
      bool ok;
      {
        OpTimer timer(r, kOpRtt, false);
        ScopedSpan span(Span::kRtt);
        ok = c.SendCommand({"GET", ExistingKey(id)}).ok() &&
             ReadReplyChecked(&c, &reply, r);
      }
      if (!ok) return;
      range.max = ver.Issued(id);
      CheckGetReply(id, reply, range, r);
    }
  }

  void Batch(uint64_t seed, Clock::time_point deadline, ThreadResult* r) {
    std::mt19937_64 rng(Mix(seed * 2654435761u + 2));
    RespClient c;
    Connect(&c);
    struct Cmd {
      uint64_t id;
      bool set;
      uint32_t min_version;  // GET: lowest legal version; SET: its version.
    };
    std::vector<Cmd> cmds(kBatchDepth);
    std::string wire;
    RespReply reply;
    while (Clock::now() < deadline) {
      wire.clear();
      for (int i = 0; i < kBatchDepth; i++) {
        Cmd& cmd = cmds[static_cast<size_t>(i)];
        cmd.set = rng() % 100 >= 90;
        if (cmd.set) {
          cmd.id = rng() % kRespKeys;
          cmd.min_version = ver.Issue(cmd.id);
          RespClient::EncodeCommand(
              {"SET", ExistingKey(cmd.id),
               EncodeValue(cmd.id, 'B', cmd.min_version)},
              &wire);
        } else {
          cmd.id = zipf.Next(&rng);
          cmd.min_version = ver.Acked(cmd.id);
          // The connection reads its own earlier SETs.
          for (int j = 0; j < i; j++) {
            const Cmd& prev = cmds[static_cast<size_t>(j)];
            if (prev.set && prev.id == cmd.id) {
              cmd.min_version = prev.min_version;
            }
          }
          RespClient::EncodeCommand({"GET", ExistingKey(cmd.id)}, &wire);
        }
      }
      ScopedSpan span(Span::kBatchRtt);
      const auto t0 = Clock::now();
      if (!c.SendRaw(wire).ok()) {
        r->Fail("RESP send failed");
        return;
      }
      for (const Cmd& cmd : cmds) {
        if (!ReadReplyChecked(&c, &reply, r)) return;
        const auto end = Clock::now();
        if (cmd.set) {
          r->Record(kOpSet, end, end - t0);
          if (reply.type == RespReply::Type::kSimple) {
            ver.Ack(cmd.id, cmd.min_version);
          } else {
            r->Fail("SET answered " + reply.ToString());
          }
        } else {
          r->Complete(end);
          CheckGetReply(cmd.id, reply,
                        {cmd.min_version, ver.Issued(cmd.id)}, r);
        }
      }
    }
  }

  Phase Run(uint64_t seed, double seconds, bool traced) {
    DB* db = server->shard_db(0);
    const MonkeyServer::EngineCalls calls_before = server->engine_calls();
    const uint64_t commands_before = server->commands_processed();
    server->metrics()->Reset();
    if (db->metrics() != nullptr) db->metrics()->Reset();
    Phase p = Measure(db, &engine.env, dir, seed, seconds, traced,
                      [&](int t, uint64_t s, Clock::time_point deadline,
                          ThreadResult* r) {
                        if (t == 0) {
                          Interactive(s, deadline, r);
                        } else {
                          Batch(s, deadline, r);
                        }
                      });
    p.calls_before = calls_before;
    p.commands_before = commands_before;
    p.calls_after = server->engine_calls();
    p.commands_after = server->commands_processed();
    p.server_get =
        server->metrics()->SnapshotHistogram(Hist::kServerGetLatency);
    p.pipeline_depth =
        server->metrics()->SnapshotHistogram(Hist::kServerPipelineDepth);
    p.backpressure_pauses = server->metrics()->TickTotal(
        monkeydb::Tick::kServerBackpressurePauses);
    if (db->metrics() != nullptr) {
      p.engine_get = db->metrics()->SnapshotHistogram(Hist::kGetLatency);
      p.engine_multiget =
          db->metrics()->SnapshotHistogram(Hist::kMultiGetLatency);
      p.engine_write = db->metrics()->SnapshotHistogram(Hist::kWriteLatency);
    }
    p.puts = p.total.Total(kOpSet).count();
    p.live_bytes = p.loaded_bytes = kRespKeys * kEntryBytes;
    p.appended_before_load = engine.appended_before_load;
    return p;
  }

  // Stops the server (closing its DB cleanly), reopens the shard and reads
  // every key back.
  void Verify(ThreadResult* r) {
    server.reset();
    std::unique_ptr<DB> db;
    Require(DB::Open(engine.Options(true, false), dir + "/shard-0", &db),
            "reopen shard");
    VerifyReopened(db.get(), kRespKeys, ver, r);
  }
};

// --- Reporting -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Div(double a, double b) { return b > 0 ? a / b : 0; }

struct LatencySummary {
  double p50_us = 0, tail_us = 0, tail_q = 0;
  uint64_t n = 0;
  std::vector<double> window_tails_us;  // Per window, for the details.
};

LatencySummary Summarize(const LatencyHistogram& ns) {
  LatencySummary s;
  s.n = ns.count();
  s.p50_us = ns.Quantile(0.5) / 1e3;
  s.tail_q = TailQuantile(s.n, 0.99);
  s.tail_us = s.tail_q > 0 ? ns.Quantile(s.tail_q) / 1e3 : s.p50_us;
  return s;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Summaries over the one-second windows of a phase, so that interference
// confined to some windows moves the figure less: the median of the
// windows' p50s, and the tail of the quieter windows (LowQuantile at
// kQuietWindows of the windows' tails). Every window uses the tail
// quantile that the sparsest window supports.
LatencySummary SummarizeWindows(const ThreadResult& r, Op op) {
  LatencySummary s;
  uint64_t min_n = UINT64_MAX;
  for (const Window& w : r.windows) {
    const uint64_t n = w.lat_ns[op].count();
    s.n += n;
    if (n > 0) min_n = std::min(min_n, n);
  }
  if (s.n == 0) return s;
  s.tail_q = TailQuantile(min_n, 0.99);
  std::vector<double> p50, tail;
  for (const Window& w : r.windows) {
    if (w.lat_ns[op].count() == 0) continue;
    p50.push_back(w.lat_ns[op].Quantile(0.5) / 1e3);
    tail.push_back(s.tail_q > 0 ? w.lat_ns[op].Quantile(s.tail_q) / 1e3
                                : p50.back());
  }
  s.p50_us = Median(p50);
  s.tail_us = LowQuantile(tail, kQuietWindows);
  s.window_tails_us = tail;
  return s;
}

double OpsPerSecond(const ThreadResult& r) {
  std::vector<double> rates;
  const double len = std::chrono::duration<double>(r.window_len).count();
  for (const Window& w : r.windows) rates.push_back(Div(w.ops, len));
  return Median(rates);
}

// The end-to-end metrics. `read` and `write` name the operation a user of
// each workload waits for: Get/Put embedded in kv_read, scan/Put in
// kv_write, and in resp_mixed the interactive GET round trip and the time
// until a pipelined SET is acknowledged.
std::vector<Metric> EndToEnd(const std::string& workload, Phase* p,
                             double setup_s, double peak_rss_mb,
                             std::map<std::string, LatencySummary>* lat) {
  const bool resp = workload == "resp_mixed";
  const Op read_op = resp ? kOpRtt : workload == "kv_write" ? kOpScan : kOpGet;
  const Op write_op = resp ? kOpSet : kOpPut;
  (*lat)["read"] = SummarizeWindows(p->total, read_op);
  (*lat)["write"] = SummarizeWindows(p->total, write_op);
  const LatencySummary& rd = (*lat)["read"];
  const LatencySummary& wr = (*lat)["write"];
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", OpsPerSecond(p->total), "1/s"},
      {"read_p50_us", rd.p50_us, "us"},
      {"read_p99_us", rd.tail_us, "us"},
      {"write_p50_us", wr.p50_us, "us"},
      {"write_p99_us", wr.tail_us, "us"},
      // Over the DB's life in this run, load included: a phase holds too
      // few merges into the last level for its own ratio to be steady.
      {"write_amp",
       Div(p->env_after.appended - p->appended_before_load,
           p->loaded_bytes + p->puts * kEntryBytes),
       "B/B"},
      {"space_amp", Div(p->disk_bytes, p->live_bytes), "B/B"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

struct TrackSums {
  SpanTotals total[kNumSpans];
  uint64_t self_ns[kNumSpans] = {};
  SpanTotals child[kNumSpans + 1][kNumSpans];
  SpanTotals loop_top[kNumSpans];   // Top level on the server loop track.
  SpanTotals other_top[kNumSpans];  // Top level on other engine threads.
};

TrackSums SumTracks() {
  TrackSums s;
  auto add = [](SpanTotals* a, const SpanTotals& b) {
    a->count += b.count;
    a->ns += b.ns;
    a->bytes += b.bytes;
  };
  for (Track* t : Recorder::Tracks()) {
    for (int i = 0; i < kNumSpans; i++) {
      add(&s.total[i], t->total[i]);
      s.self_ns[i] += t->self_ns[i];
      for (int p = 0; p <= kNumSpans; p++) {
        add(&s.child[p][i], t->child[p][i]);
      }
      if (t->role() == Role::kServerLoop) {
        add(&s.loop_top[i], t->child[kNumSpans][i]);
      } else if (t->role() == Role::kOther) {
        add(&s.other_top[i], t->child[kNumSpans][i]);
      }
    }
  }
  return s;
}

struct LayerRow {
  std::string layer;
  double ns;
};

struct LayerTable {
  std::string op;
  uint64_t ops = 0;
  double total_ns = 0;
  std::vector<LayerRow> rows;  // Last row: the unexplained remainder.
};

double ChildNs(const TrackSums& s, Span parent, Span c) {
  return static_cast<double>(
      s.child[static_cast<int>(parent)][static_cast<int>(c)].ns);
}

// Rows of one embedded operation kind: the Env spans nested in the op span,
// then its self time (duration minus the intervals those spans cover)
// split by the PerfContext stage times of the layers inside the engine,
// with what no stage explains as the remainder.
LayerTable EmbeddedTable(const TrackSums& s, Span span, const PerfSums& perf) {
  LayerTable t;
  const int i = static_cast<int>(span);
  t.op = SpanName(span);
  t.ops = s.total[i].count;
  t.total_ns = static_cast<double>(s.total[i].ns);
  const double read = ChildNs(s, span, Span::kRead) +
                      ChildNs(s, span, Span::kReadBatch);
  const double append = ChildNs(s, span, Span::kAppend);
  const double sync = ChildNs(s, span, Span::kSync);
  if (span == Span::kGet) {
    t.rows = {{"memtable (lookup)", double(perf.memtable_lookup_ns)},
              {"bloom (filter probes)", double(perf.filter_probe_ns)},
              {"sstable (block fetch minus io.read)",
               double(perf.block_read_ns) - read},
              {"io.read", read},
              {"lsm (Get self: fences, run walk)",
               double(perf.get_ns) - double(perf.memtable_lookup_ns) -
                   double(perf.filter_probe_ns) - double(perf.block_read_ns)}};
  } else if (span == Span::kPut) {
    t.rows = {{"lsm (writer queue wait)", double(perf.queue_wait_ns)},
              {"lsm (WAL record minus io.append)",
               double(perf.wal_write_ns) - append},
              {"io.append", append},
              {"io.sync", sync},
              {"memtable (apply)", double(perf.memtable_apply_ns)}};
  } else {
    t.rows = {{"sstable (block fetch minus io.read)",
               double(perf.block_read_ns) - read},
              {"io.read", read}};
  }
  double self_explained = 0;
  for (const LayerRow& r : t.rows) {
    if (r.layer.rfind("io.", 0) != 0) self_explained += r.ns;
  }
  t.rows.push_back({"other (no span explains it)",
                    static_cast<double>(s.self_ns[i]) - self_explained});
  return t;
}

// resp_mixed: round trips of both connections. Engine time comes from the
// shard DB's histograms, I/O from the Env spans on the event-loop thread;
// the rest is the server (parse, dispatch, reply), the sockets, and time
// waiting behind the other connection's batch.
LayerTable RespTable(const TrackSums& s, const Phase& p) {
  LayerTable t;
  t.op = "server.rtt + server.rtt_batch";
  t.ops = s.total[static_cast<int>(Span::kRtt)].count +
          s.total[static_cast<int>(Span::kBatchRtt)].count;
  t.total_ns =
      static_cast<double>(s.total[static_cast<int>(Span::kRtt)].ns +
                          s.total[static_cast<int>(Span::kBatchRtt)].ns);
  double io = 0;
  for (Span c : {Span::kRead, Span::kReadBatch, Span::kAppend, Span::kSync}) {
    io += static_cast<double>(s.loop_top[static_cast<int>(c)].ns);
  }
  const double engine =
      1e3 * static_cast<double>(p.engine_get.sum + p.engine_multiget.sum +
                                p.engine_write.sum);
  t.rows = {{"lsm (engine calls minus io)", engine - io},
            {"io (on the event loop)", io}};
  t.rows.push_back(
      {"other (server, sockets, queueing)", t.total_ns - engine});
  return t;
}

void PrintTable(const LayerTable& t) {
  printf("layer table: %s, %" PRIu64 " ops, %.3f us/op\n", t.op.c_str(),
         t.ops, Div(t.total_ns, t.ops) / 1e3);
  for (const LayerRow& r : t.rows) {
    printf("  %-40s %10.3f us/op %7.1f%%\n", r.layer.c_str(),
           Div(r.ns, t.ops) / 1e3, 100 * Div(r.ns, t.total_ns));
  }
}

std::vector<Metric> PerLayer(const std::string& workload, const Phase& p,
                             double untraced_ops_per_s, const TrackSums& s,
                             std::vector<LayerTable>* tables) {
  const DbStats& a = p.stats_before;
  const DbStats& b = p.stats_after;
  const double gets = double(b.gets - a.gets);
  const double zero_gets = double(b.gets_not_found - a.gets_not_found);
  const double probed = double(b.runs_probed - a.runs_probed);
  const double negatives = double(b.filter_negatives - a.filter_negatives);
  const double fps = double(b.false_positives - a.false_positives);
  const double hits = double(b.block_cache_hits - a.block_cache_hits);
  const double misses = double(b.block_cache_misses - a.block_cache_misses);
  // Gets answered by the memtable: neither a miss nor found on disk.
  const double mem_hits = gets - zero_gets - (probed - fps);

  PerfSums get = p.total.perf[kOpGet];
  PerfSums put = p.total.perf[kOpPut];
  PerfSums scan = p.total.perf[kOpScan];
  const double ops = double(p.ops);
  const double puts = double(p.puts);
  const double measured_r = Div(fps, zero_gets);

  auto span_total = [&](Span x) { return s.total[static_cast<int>(x)]; };
  // Foreground reads: everything not inside a flush or merge interval.
  double fg_read_calls = 0, fg_read_bytes = 0, fg_read_ns = 0,
         pool_read_calls = 0;
  for (Span r : {Span::kRead, Span::kReadBatch}) {
    const int ri = static_cast<int>(r);
    for (int parent = 0; parent <= kNumSpans; parent++) {
      if (parent == static_cast<int>(Span::kFlush) ||
          parent == static_cast<int>(Span::kMerge)) {
        continue;
      }
      fg_read_calls += double(s.child[parent][ri].count);
      fg_read_bytes += double(s.child[parent][ri].bytes);
      fg_read_ns += double(s.child[parent][ri].ns);
    }
    pool_read_calls += double(s.other_top[ri].count);
  }
  double op_ns = 0;
  for (Span o : {Span::kGet, Span::kPut, Span::kScan, Span::kRtt,
                 Span::kBatchRtt}) {
    op_ns += double(span_total(o).ns);
  }
  const SpanTotals flush = span_total(Span::kFlush);
  const SpanTotals merge = span_total(Span::kMerge);
  const SpanTotals sync = span_total(Span::kSync);
  const Recorder::StallTotals stalls = Recorder::Stalls(p.end_ns);
  const double get_span_ns = double(span_total(Span::kGet).ns);

  const bool resp = workload == "resp_mixed";
  const double cmds = double(p.commands_after - p.commands_before);
  const double engine_calls =
      double(p.calls_after.Total() - p.calls_before.Total());
  const double multigets =
      double(p.calls_after.multigets - p.calls_before.multigets);
  const double point_gets =
      double(p.calls_after.point_gets - p.calls_before.point_gets);
  const double mget_keys = double(p.server_get.count) - point_gets;
  LatencySummary rtt;
  if (resp) {
    rtt = Summarize(p.total.Total(kOpRtt));
  }

  if (resp) {
    tables->push_back(RespTable(s, p));
  } else {
    for (const auto& [span, perf] :
         {std::pair{Span::kGet, get}, {Span::kPut, put}, {Span::kScan, scan}}) {
      if (s.total[static_cast<int>(span)].count > 0) {
        tables->push_back(EmbeddedTable(s, span, perf));
      }
    }
  }

  return {
      {"bloom.probes_per_get", Div(probed + negatives, gets), "count"},
      {"bloom.negative_frac", Div(negatives, probed + negatives), "frac"},
      {"bloom.probe_us", Div(get.filter_probe_ns, get.filter_probes) / 1e3,
       "us"},
      {"bloom.fp_per_zero_get", measured_r, "count"},
      {"monkey.predicted_r", p.predicted_r, "count"},
      {"monkey.r_ratio", Div(measured_r, p.predicted_r), "ratio"},
      {"sstable.fence_seeks_per_get", Div(get.fence_seeks, get.get_count),
       "count"},
      {"sstable.blocks_per_get", Div(probed, gets), "count"},
      {"sstable.block_read_us",
       Div(get.block_read_ns + scan.block_read_ns, get.blocks + scan.blocks) /
           1e3,
       "us"},
      {"sstable.blocks_per_scan",
       Div(scan.blocks, double(p.total.Total(kOpScan).count())), "count"},
      {"memtable.hit_frac", Div(mem_hits, gets), "frac"},
      {"memtable.lookup_us", Div(get.memtable_lookup_ns, get.get_count) / 1e3,
       "us"},
      {"memtable.apply_us", Div(put.memtable_apply_ns, puts) / 1e3, "us"},
      {"lsm.wal_append_us", Div(put.wal_write_ns, puts) / 1e3, "us"},
      {"lsm.write_queue_wait_us", Div(put.queue_wait_ns, puts) / 1e3, "us"},
      {"lsm.stall_s", stalls.seconds, "s"},
      {"lsm.stall_events", double(stalls.events), "count"},
      {"lsm.flushes", double(flush.count), "count"},
      {"lsm.flush_busy_s", double(flush.ns) / 1e9, "s"},
      {"lsm.merges", double(merge.count), "count"},
      {"lsm.merge_busy_s", double(merge.ns) / 1e9, "s"},
      {"lsm.merge_entries_per_put",
       Div(double(b.entries_compacted - a.entries_compacted), puts), "count"},
      {"lsm.get_self_us",
       Div(double(get.get_ns) - double(get.memtable_lookup_ns) -
               double(get.filter_probe_ns) - double(get.block_read_ns),
           get.get_count) /
           1e3,
       "us"},
      {"lsm.other_us",
       Div(get_span_ns - double(get.get_ns),
           double(span_total(Span::kGet).count)) /
           1e3,
       "us"},
      {"lsm.multiget_keys_per_call", Div(mget_keys, multigets), "count"},
      {"lsm.multiget_us_per_key", Div(p.engine_multiget.sum, mget_keys), "us"},
      {"io.read_calls_per_op", Div(fg_read_calls, ops), "count"},
      {"io.read_bytes_per_op", Div(fg_read_bytes, ops), "B"},
      {"io.read_us", Div(fg_read_ns, fg_read_calls) / 1e3, "us"},
      {"io.read_busy_frac", Div(fg_read_ns, op_ns), "frac"},
      {"io.read_pool_frac", Div(pool_read_calls, fg_read_calls), "frac"},
      {"io.wal_bytes_per_put", Div(p.env_after.wal - p.env_before.wal, puts),
       "B"},
      {"io.sst_bytes_per_put", Div(p.env_after.sst - p.env_before.sst, puts),
       "B"},
      {"io.sync_calls", double(p.env_after.syncs - p.env_before.syncs),
       "count"},
      {"io.sync_us", Div(sync.ns, sync.count) / 1e3, "us"},
      {"io.block_cache_hit_frac", Div(hits, hits + misses), "frac"},
      {"server.engine_calls_per_cmd", Div(engine_calls, cmds), "count"},
      {"server.pipeline_depth", p.pipeline_depth.avg, "count"},
      {"server.cmd_us", p.server_get.p50, "us"},
      {"server.net_us", resp ? rtt.p50_us - p.server_get.p50 : 0, "us"},
      {"server.backpressure_pauses", double(p.backpressure_pauses), "count"},
      {"obs.trace_overhead_frac",
       1 - Div(Div(ops, p.seconds), untraced_ops_per_s), "frac"},
  };
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); i++) {
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
           JsonNumber(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

// Layer tables in us per operation.
std::string TablesJson(const std::vector<LayerTable>& tables) {
  std::string out = "[";
  for (const LayerTable& t : tables) {
    out += std::string(out.size() > 1 ? ", " : "") + "{\"op\": \"" + t.op +
           "\", \"ops\": " + std::to_string(t.ops) + ", \"us_per_op\": " +
           JsonNumber(Div(t.total_ns, t.ops) / 1e3) + ", \"rows\": {";
    for (size_t j = 0; j < t.rows.size(); j++) {
      out += std::string(j ? ", " : "") + "\"" + t.rows[j].layer +
             "\": " + JsonNumber(Div(t.rows[j].ns, t.ops) / 1e3);
    }
    out += "}}";
  }
  return out + "]";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir = ".bench_build/layerbench";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--dir") {
      a.dir = v;
    } else {
      Die("unknown argument " + k);
    }
  }
  if (a.workload != "kv_read" && a.workload != "kv_write" &&
      a.workload != "resp_mixed") {
    Die("--workload must be kv_read, kv_write or resp_mixed");
  }
  if (!(a.seconds > 0)) Die("--seconds must be positive");
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::string run_dir = args.dir + "/" + args.workload + "-" +
                              std::to_string(getpid());
  fs::create_directories(run_dir);
  const std::string db_dir = run_dir + "/db";

  std::unique_ptr<KvBench> kv;
  std::unique_ptr<RespBench> resp;
  if (args.workload == "resp_mixed") {
    resp = std::make_unique<RespBench>();
    resp->dir = db_dir;
    resp->metrics = args.trace;
  } else {
    kv = std::make_unique<KvBench>();
    kv->dir = db_dir;
    kv->metrics = args.trace;
  }

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; i++) {
    setups.push_back(kv ? kv->SetupOnce() : resp->SetupOnce());
  }
  std::vector<double> sorted = setups;
  std::sort(sorted.begin(), sorted.end());
  const double setup_s = sorted[sorted.size() / 2];

  auto run = [&](double seconds, bool traced) {
    return kv ? kv->Run(args.workload, args.seed, seconds, traced)
              : resp->Run(args.seed, seconds, traced);
  };
  // A traced run spends half its time traced, between two untraced quarters
  // that are the baseline of obs.trace_overhead_frac; the symmetric order
  // cancels a steady drift of the engine's state over the run.
  Phase untraced = run(args.trace ? args.seconds / 4 : args.seconds, false);
  Phase traced;
  double untraced_ops_per_s = Div(untraced.ops, untraced.seconds);
  if (args.trace) {
    traced = run(args.seconds / 2, true);
    Phase after = run(args.seconds / 4, false);
    untraced_ops_per_s = Div(untraced.ops + after.ops,
                             untraced.seconds + after.seconds);
    untraced.total.attempted += after.total.attempted;
    untraced.total.failed += after.total.failed;
    if (untraced.total.first_failure.empty()) {
      untraced.total.first_failure = after.total.first_failure;
    }
  }
  // The high-water mark of set-up and the measured phases; the read-back
  // below is the benchmark's check, not the workload.
  const double peak_rss_mb = PeakRssMb();
  ThreadResult verify;
  if (kv) {
    kv->Verify(&verify);
  } else {
    resp->Verify(&verify);
  }
  // Every thread that recorded spans has been joined (clients) or shut
  // down with its DB (background, read pool, event loop).

  const uint64_t attempted = untraced.total.attempted +
                             traced.total.attempted + verify.attempted;
  const uint64_t failed =
      untraced.total.failed + traced.total.failed + verify.failed;
  for (const ThreadResult* r : {&untraced.total, &traced.total, &verify}) {
    if (!r->first_failure.empty()) {
      fprintf(stderr, "layerbench: failure: %s\n", r->first_failure.c_str());
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::map<std::string, LatencySummary> lat;
  std::vector<Metric> metrics;
  std::vector<LayerTable> tables;
  std::string extra;
  if (!args.trace) {
    metrics = EndToEnd(args.workload, &untraced, setup_s, peak_rss_mb, &lat);
    for (const auto& [name, l] : lat) {
      printf("%s latency: n=%" PRIu64 " p50=%.3f us p%g=%.3f us\n",
             name.c_str(), l.n, l.p50_us, l.tail_q * 100, l.tail_us);
      extra += ", \"" + name + "_samples\": " + std::to_string(l.n) +
               ", \"" + name + "_tail_quantile\": " + JsonNumber(l.tail_q) +
               ", \"" + name + "_window_tails_us\": [";
      for (size_t i = 0; i < l.window_tails_us.size(); i++) {
        extra += (i > 0 ? ", " : "") + JsonNumber(l.window_tails_us[i]);
      }
      extra += "]";
    }
  } else {
    const TrackSums sums = SumTracks();
    metrics = PerLayer(args.workload, traced, untraced_ops_per_s, sums,
                       &tables);
    for (const LayerTable& t : tables) PrintTable(t);
    const std::string trace_path = args.dir + "/trace.json";
    if (!Recorder::WriteChromeTrace(trace_path, traced.end_ns)) {
      Die("cannot write " + trace_path);
    }
  }
  for (const Metric& m : metrics) {
    printf("%-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  printf("attempted=%" PRIu64 " failed=%" PRIu64 " hardware_threads=%u "
         "setup_s=[%.3f, %.3f, %.3f]\n",
         attempted, failed, hw, setups[0], setups[1], setups[2]);

  fs::remove_all(run_dir);
  // Details for the compare script ride on this line; the driver-facing
  // result is the last line.
  printf("detail: {\"workload\": \"%s\", \"seed\": %" PRIu64
         ", \"seconds\": %s, \"trace\": %d, \"hardware_threads\": %u%s, "
         "\"layer_tables\": %s}\n",
         args.workload.c_str(), args.seed, JsonNumber(args.seconds).c_str(),
         args.trace ? 1 : 0, hw, extra.c_str(), TablesJson(tables).c_str());
  printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
         ", \"metrics\": %s}\n",
         failed == 0 ? "true" : "false", attempted, failed,
         MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace layerbench

int main(int argc, char** argv) { return layerbench::Main(argc, argv); }
