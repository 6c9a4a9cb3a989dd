// gqzoo's end-to-end benchmark.
//
//   gqzoo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--workdir <dir>]
//
// Workloads (all closed loops: 4 client threads, each waiting for its reply;
// the wire workloads use one connection per client; the engine pool is fixed
// at 4 threads):
//
//   wire_lookup      1-hop CRPQ point lookups over TCP on a 20k-node /
//                    200k-edge graph, Zipf-skewed over more distinct texts
//                    than the plan cache holds; every 8th request streams a
//                    hub's in-neighbourhood (>= 8 ROWS chunks). Bound by the
//                    server and engine dispatch, not by evaluation.
//   engine_analytic  a fixed, warm-cache mix over the language zoo, run
//                    in-process through QueryEngine::Submit on the same
//                    graph. Bound by the evaluators; the server does nothing.
//   wire_write       half 8-op mutation batches, half point reads, over TCP
//                    on a durable engine (fsync + group commit) over a 1k /
//                    8k graph; set-up is a restart through RecoverFrom.
//
// Every answer is checked: before timing, each distinct read text is streamed
// over the wire and run in-process and the two must be byte-identical; during
// the run each read is compared with its text's digest (reads of the written
// label with row-count bounds); after wire_write the engine restarts from its
// directory and every acknowledged write must be there. A wrong answer or a
// lost write exits 1 without printing numbers.
//
// The last line of stdout is one JSON object: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Lines before it report the
// host, the build, the seed and every metric with its unit.

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "perfbench/generator.h"
#include "perfbench/trace.h"
#include "src/engine/engine.h"
#include "src/engine/plan.h"
#include "src/graph/csr.h"
#include "src/planner/stats.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/storage/snapshot_format.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using gqzoo::MutationBatch;
using gqzoo::PropertyGraph;
using gqzoo::QueryEngine;
using gqzoo::QueryLanguage;
using gqzoo::QueryRequest;
using gqzoo::QueryResponse;
using gqzoo::server::Client;
using gqzoo::server::DoneStatus;
using gqzoo::server::GraphServer;

constexpr size_t kClients = 4;
constexpr size_t kEngineThreads = 4;
constexpr size_t kSetupRepeats = 7;
constexpr size_t kSlices = 5;  // qps and read p50: median over time slices
constexpr size_t kGateConnections = 16;  // wire workloads
constexpr uint32_t kTimeoutMs = 30000;

// wire_lookup / engine_analytic graph.
constexpr size_t kBigNodes = 20000;
constexpr size_t kBigEdges = 200000;
constexpr size_t kLookupNodes = 512;  // x 2 directions = 1024 texts
constexpr double kLookupSkew = 1.0;
constexpr size_t kHeavyEvery = 8;
constexpr size_t kInLookupEvery = 48;
constexpr size_t kHeavyMinChunks = 8;
constexpr uint32_t kHeavyRows = 2000;

// wire_write graph and write policy.
constexpr size_t kSmallNodes = 1000;
constexpr size_t kSmallEdges = 8000;
constexpr size_t kWritePool = 64;       // nodes the writes and reads touch
constexpr size_t kOpsPerBatch = 8;
constexpr size_t kLiveEdgesPerClient = 32;
constexpr size_t kCompactMinOps = 512;
constexpr uint32_t kGroupCommitMs = 10;
constexpr size_t kPrepFoldedBatches = 16;  // per client, then a checkpoint
constexpr size_t kPrepTailBatches = 4;     // per client, left in the WAL
const char* const kWrittenLabel = "owner";
const char* const kUntouchedLabel = "Transfer";

const QueryLanguage kZooLanguages[] = {
    QueryLanguage::kRpq,     QueryLanguage::kCrpq,     QueryLanguage::kDlCrpq,
    QueryLanguage::kCoreGql, QueryLanguage::kGqlGroup, QueryLanguage::kPaths};

// ---------------------------------------------------------------------------
// Verdict: the first wrong answer or lost write wins; the loops stop on it.

class Verdict {
 public:
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_.exchange(true)) return;
    why_ = why;
  }
  bool failed() const { return failed_.load(); }
  /// Exits 1 (no numbers printed) when anything failed.
  void ExitIfFailed() const {
    if (!failed()) return;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why_.c_str());
    std::exit(1);
  }

 private:
  mutable std::mutex mu_;
  std::atomic<bool> failed_{false};
  std::string why_;  // guarded by mu_
};

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Requests.

QueryRequest LocalRequest(const ReadText& r) {
  QueryRequest q;
  q.language = r.language;
  q.text = r.text;
  q.timeout = std::chrono::milliseconds(kTimeoutMs);
  q.max_display_rows = r.display_rows;
  if (r.language == QueryLanguage::kPaths) {
    q.paths.from = r.paths_from;
    q.paths.to = r.paths_to;
    q.paths.mode = gqzoo::PathMode::kShortest;
  }
  return q;
}

gqzoo::server::ClientQueryOptions WireOptions(const ReadText& r) {
  gqzoo::server::ClientQueryOptions o;
  o.language = gqzoo::QueryLanguageName(r.language);
  o.timeout_ms = kTimeoutMs;
  o.max_display_rows = r.display_rows;
  if (r.language == QueryLanguage::kPaths) {
    o.paths_from = r.paths_from;
    o.paths_to = r.paths_to;
    o.paths_mode = 1;  // shortest
  }
  return o;
}

/// One wire read: send to DONE, with the streamed bytes.
struct WireAnswer {
  bool connected = false;  // false: the connection itself failed
  DoneStatus done;
  std::string bytes;
  size_t chunks = 0;
  double ms = 0;
};

WireAnswer WireRead(Client& client, const ReadText& r) {
  WireAnswer a;
  const Clock::time_point t0 = Clock::now();
  gqzoo::Result<DoneStatus> done =
      client.Query(r.text, WireOptions(r), [&](std::string_view chunk) {
        a.bytes.append(chunk);
        ++a.chunks;
        return true;
      });
  a.ms = MsBetween(t0, Clock::now());
  a.connected = done.ok();
  if (a.connected) a.done = std::move(done).value();
  return a;
}

/// Submit to ready, in-process.
struct LocalAnswer {
  gqzoo::Result<QueryResponse> response = QueryResponse{};
  double ms = 0;
};

LocalAnswer LocalRead(QueryEngine& engine, const ReadText& r, Tracer& tracer,
                      uint64_t parent, uint64_t request) {
  LocalAnswer a;
  const Clock::time_point t0 = Clock::now();
  std::future<gqzoo::Result<QueryResponse>> future;
  {
    ScopedSpan span(tracer, "QueryEngine::Submit", parent, request);
    future = engine.Submit(LocalRequest(r));
  }
  {
    ScopedSpan span(tracer, "future.wait", parent, request);
    a.response = future.get();
  }
  a.ms = MsBetween(t0, Clock::now());
  return a;
}

gqzoo::Result<Client> Connect(uint16_t port) {
  gqzoo::Result<Client> c = Client::Connect("127.0.0.1", port);
  if (!c.ok()) return c;
  if (gqzoo::Result<bool> h = c.value().Hello("perfbench"); !h.ok()) {
    return h.error();
  }
  return c;
}

// ---------------------------------------------------------------------------
// Samples and metrics.

/// One timed operation as the client saw it.
struct OpRecord {
  bool write = false;
  bool ok = false;
  double ms = 0;
  double done_s = 0;  // completion time, seconds since the loop started
  // Reads only, when known:
  double engine_ms = -1;  // DONE latency_us or QueryResponse::latency
  double queue_ms = -1;   // in-process: Submit-to-ready minus engine time
  size_t chunks = 0;
  size_t bytes = 0;
  uint64_t rows = 0;
  QueryLanguage language = QueryLanguage::kCrpq;
  bool cache_hit = false;  // in-process reads only
};

struct LoopResult {
  std::vector<OpRecord> ops;
  double seconds = 0;
};

struct EndToEnd {
  double setup_s = 0;
  double qps = 0;
  double read_p50_ms = 0;
  double read_p99_ms = 0;
  double write_p50_ms = 0;
  double write_p99_ms = 0;
  double op_p99_ms = 0;
  size_t attempted = 0;
  size_t failed = 0;
  size_t reads_attempted = 0;
  size_t reads_failed = 0;
  size_t writes_attempted = 0;
  size_t writes_failed = 0;
  double peak_rss_mb = 0;
};

EndToEnd Summarize(const LoopResult& run) {
  EndToEnd e;
  // A failed operation misses every latency limit: it counts as the whole
  // run's duration.
  const double failed_ms = run.seconds * 1000.0;
  // Throughput and median latency are the medians over equal time slices of
  // the run, so a burst of outside load in one slice does not move them.
  std::vector<double> reads, writes, all;
  std::vector<double> slice_ok(kSlices, 0);
  std::vector<std::vector<double>> slice_reads(kSlices);
  for (const OpRecord& op : run.ops) {
    const double ms = op.ok ? op.ms : failed_ms;
    const size_t slice = std::min(
        kSlices - 1, static_cast<size_t>(op.done_s / run.seconds * kSlices));
    (op.write ? writes : reads).push_back(ms);
    all.push_back(ms);
    if (!op.write) slice_reads[slice].push_back(ms);
    if (op.ok) slice_ok[slice] += 1;
    ++(op.write ? e.writes_attempted : e.reads_attempted);
    if (!op.ok) ++(op.write ? e.writes_failed : e.reads_failed);
  }
  e.attempted = e.reads_attempted + e.writes_attempted;
  e.failed = e.reads_failed + e.writes_failed;
  std::vector<double> slice_p50;
  for (size_t i = 0; i < kSlices; ++i) {
    slice_ok[i] /= run.seconds / kSlices;
    slice_p50.push_back(Percentile(slice_reads[i], 50));
  }
  e.qps = Median(slice_ok);
  e.read_p50_ms = Median(slice_p50);
  e.read_p99_ms = Percentile(reads, 99);
  e.write_p50_ms = Percentile(writes, 50);
  e.write_p99_ms = Percentile(writes, 99);
  e.op_p99_ms = Percentile(all, 99);
  return e;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-layer metrics of one traced run, by the names BENCHMARK.json lists.
using LayerMap = std::map<std::string, double>;

/// Engine counters read from the public registry, the plan cache and the
/// write path, so a traced window can report their differences.
struct Counters {
  uint64_t hits = 0, misses = 0, evictions = 0;
  uint64_t shed = 0;
  uint64_t wcoj = 0;
  uint64_t write_batches = 0;
  uint64_t merged_view_builds = 0;
  uint64_t plans_invalidated = 0;
  uint64_t compactions = 0;
};

Counters ReadCounters(QueryEngine& engine) {
  Counters c;
  const gqzoo::PlanCache::Stats cache = engine.plan_cache().GetStats();
  c.hits = cache.hits;
  c.misses = cache.misses;
  c.evictions = cache.evictions;
  const gqzoo::MetricsRegistry& m = engine.metrics();
  c.shed = m.overloaded_shed.value() + m.write_sheds.value() +
           m.tenant_quota_shed.value();
  for (const gqzoo::Counter& w : m.wcoj_by_language) c.wcoj += w.value();
  c.write_batches = m.write_batches.value();
  c.merged_view_builds = m.merged_view_builds.value();
  c.plans_invalidated = m.plans_invalidated.value();
  c.compactions = engine.delta_info().compactions;
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void AddCounterLayers(QueryEngine& engine, const Counters& a,
                      const Counters& b, LayerMap* layer) {
  const double hits = static_cast<double>(b.hits - a.hits);
  const double misses = static_cast<double>(b.misses - a.misses);
  const double writes = static_cast<double>(b.write_batches - a.write_batches);
  (*layer)["engine.plan_cache.hits"] = hits;
  (*layer)["engine.plan_cache.misses"] = misses;
  (*layer)["engine.plan_cache.hit_ratio"] = Ratio(hits, hits + misses);
  (*layer)["engine.plan_cache.evictions"] =
      static_cast<double>(b.evictions - a.evictions);
  (*layer)["engine.shed"] = static_cast<double>(b.shed - a.shed);
  (*layer)["engine.queue_depth_high_water"] =
      static_cast<double>(engine.metrics().queue_depth_high_water.value());
  (*layer)["engine.peak_query_bytes"] =
      static_cast<double>(engine.metrics().peak_query_bytes.value());
  (*layer)["rel.wcoj_execs"] = static_cast<double>(b.wcoj - a.wcoj);
  (*layer)["graph.merged_view_builds_per_write"] =
      Ratio(static_cast<double>(b.merged_view_builds - a.merged_view_builds),
            writes);
  (*layer)["mutation.compactions"] =
      static_cast<double>(b.compactions - a.compactions);
  (*layer)["mutation.plans_invalidated_per_write"] = Ratio(
      static_cast<double>(b.plans_invalidated - a.plans_invalidated), writes);
}

/// Layer samples read off the timed operations themselves.
void AddOpLayers(const LoopResult& run, bool wire, LayerMap* layer) {
  std::vector<double> engine_ms, queue_ms, overhead_ms;
  double chunks = 0, bytes = 0, rows = 0, reads = 0;
  for (const OpRecord& op : run.ops) {
    if (op.write || !op.ok) continue;
    reads += 1;
    rows += static_cast<double>(op.rows);
    if (op.engine_ms >= 0) engine_ms.push_back(op.engine_ms);
    if (op.queue_ms >= 0) queue_ms.push_back(op.queue_ms);
    if (wire && op.engine_ms >= 0) overhead_ms.push_back(op.ms - op.engine_ms);
    chunks += static_cast<double>(op.chunks);
    bytes += static_cast<double>(op.bytes);
  }
  (*layer)["engine.exec_ms.p50"] = Percentile(engine_ms, 50);
  (*layer)["engine.exec_ms.p99"] = Percentile(engine_ms, 99);
  (*layer)["eval.rows_per_read"] = Ratio(rows, reads);
  if (wire) {
    (*layer)["server.overhead_ms.p50"] = Percentile(overhead_ms, 50);
    (*layer)["server.overhead_ms.p99"] = Percentile(overhead_ms, 99);
    (*layer)["server.chunks_per_read"] = Ratio(chunks, reads);
    (*layer)["server.bytes_per_read"] = Ratio(bytes, reads);
  } else {
    (*layer)["engine.queue_ms.p50"] = Percentile(queue_ms, 50);
    (*layer)["engine.queue_ms.p99"] = Percentile(queue_ms, 99);
  }
}

// ---------------------------------------------------------------------------
// Closed loop: each client sends its next operation only after the previous
// one completed.

using ClientOp = std::function<OpRecord(size_t client, Rng& rng)>;

LoopResult ClosedLoop(double seconds, uint64_t seed, const Verdict& verdict,
                      const ClientOp& op) {
  std::vector<std::vector<OpRecord>> per_client(kClients);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(seed * 1000003 + c + 1);
      while (Clock::now() < deadline && !verdict.failed()) {
        per_client[c].push_back(op(c, rng));
        per_client[c].back().done_s =
            std::chrono::duration<double>(Clock::now() - start).count();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult run;
  run.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  for (std::vector<OpRecord>& ops : per_client) {
    run.ops.insert(run.ops.end(), ops.begin(), ops.end());
  }
  return run;
}

/// Runs the timed loop. Untraced: one loop of `seconds`. Traced: an
/// untraced half then a traced half; the traced half's records and counter
/// differences feed the per-layer metrics, and the two halves' throughput
/// difference is the tracing overhead.
struct Timed {
  LoopResult run;         // what the end-to-end metrics are computed from
  LoopResult traced;      // traced half (trace mode only)
  Counters before, after;  // around the traced half
  double overhead_pct = 0;
};

Timed RunTimed(QueryEngine* engine_for_counters, double seconds, bool trace,
               uint64_t seed, Tracer& tracer, const Verdict& verdict,
               const ClientOp& op) {
  Timed t;
  if (!trace) {
    t.run = ClosedLoop(seconds, seed, verdict, op);
    return t;
  }
  tracer.set_enabled(false);
  t.run = ClosedLoop(seconds / 2, seed, verdict, op);
  tracer.set_enabled(true);
  t.before = ReadCounters(*engine_for_counters);
  t.traced = ClosedLoop(seconds / 2, seed + 7777, verdict, op);
  t.after = ReadCounters(*engine_for_counters);
  const double untraced_qps = Summarize(t.run).qps;
  t.overhead_pct =
      Ratio(untraced_qps - Summarize(t.traced).qps, untraced_qps) * 100.0;
  for (OpRecord op : t.traced.ops) {
    op.done_s += t.run.seconds;
    t.run.ops.push_back(op);
  }
  t.run.seconds += t.traced.seconds;
  return t;
}

// ---------------------------------------------------------------------------
// The correctness gate.

struct Expected {
  uint64_t digest = 0;
  uint64_t rows = 0;
};

struct GateSamples {
  std::vector<double> overhead_ms;  // wire round trip minus DONE latency
  std::vector<double> queue_ms;     // in-process Submit-to-ready minus latency
  double chunks = 0, bytes = 0, reads = 0;
  std::vector<size_t> chunks_by_text;
};

/// Runs `fn(worker, index)` for every index in [0, n) on `threads` worker
/// threads; `fn` returns false to stop its worker.
void ParallelFor(size_t n, size_t threads,
                 const std::function<bool(size_t, size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::min(threads, n); ++t) {
    pool.emplace_back([&, t] {
      for (size_t i; (i = next.fetch_add(1)) < n && fn(t, i);) {
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

/// Streams every text over the wire (`connections` at a time), then runs it
/// in-process through Submit (kClients at a time, the timed loops'
/// concurrency); the answers must be byte-identical. Returns each text's
/// expected digest and row count.
std::vector<Expected> Gate(QueryEngine& engine, uint16_t port,
                           const std::vector<ReadText>& texts,
                           size_t connections, Tracer& tracer,
                           GateSamples* samples) {
  std::vector<WireAnswer> wire(texts.size());
  std::vector<Expected> expected(texts.size());
  std::vector<double> overhead(texts.size()), queue(texts.size());
  Verdict verdict;
  std::vector<Client> clients(connections);
  ParallelFor(texts.size(), connections, [&](size_t worker, size_t i) {
    Client& client = clients[worker];
    if (!client.connected()) {
      gqzoo::Result<Client> c = Connect(port);
      if (!c.ok()) {
        verdict.Fail("gate connect: " + c.error().message());
        return false;
      }
      client = std::move(c).value();
    }
    ScopedSpan span(tracer, "server::Client::Query");
    wire[i] = WireRead(client, texts[i]);
    if (!wire[i].connected || !wire[i].done.ok) {
      verdict.Fail("gate: '" + texts[i].text + "' failed over the wire: " +
                   (wire[i].connected ? wire[i].done.message
                                      : std::string("connection lost")));
      return false;
    }
    overhead[i] =
        wire[i].ms - static_cast<double>(wire[i].done.latency_us) / 1000.0;
    return true;
  });
  verdict.ExitIfFailed();
  clients.clear();
  ParallelFor(texts.size(), kClients, [&](size_t, size_t i) {
    LocalAnswer local = LocalRead(engine, texts[i], tracer, 0, 0);
    if (!local.response.ok()) {
      verdict.Fail("gate: '" + texts[i].text + "' failed in-process: " +
                   local.response.error().message());
      return false;
    }
    const QueryResponse& resp = local.response.value();
    if (wire[i].bytes != resp.text || wire[i].done.num_rows != resp.num_rows) {
      verdict.Fail("gate: '" + texts[i].text +
                   "': wire answer differs from the in-process answer");
      return false;
    }
    expected[i] = {Digest(resp.text), resp.num_rows};
    queue[i] = local.ms -
               std::chrono::duration<double, std::milli>(resp.latency).count();
    return true;
  });
  verdict.ExitIfFailed();
  samples->overhead_ms = overhead;
  samples->queue_ms = queue;
  samples->reads = static_cast<double>(texts.size());
  for (const WireAnswer& a : wire) {
    samples->chunks_by_text.push_back(a.chunks);
    samples->chunks += static_cast<double>(a.chunks);
    samples->bytes += static_cast<double>(a.bytes.size());
  }
  return expected;
}

/// Checks one timed read against its text's expected answer; returns what
/// was wrong, or an empty string.
std::string Mismatch(const Expected& want, const WireAnswer& a) {
  return want.digest == Digest(a.bytes) && want.rows == a.done.num_rows
             ? std::string()
             : "digest or row count differs from the gate's answer";
}

/// (Re)connects a closed-loop client whose connection was lost.
bool EnsureConnected(Client& client, uint16_t port) {
  if (client.connected()) return true;
  gqzoo::Result<Client> fresh = Connect(port);
  if (!fresh.ok()) return false;
  client = std::move(fresh).value();
  return true;
}

/// One timed read over the wire for a closed loop. `check` returns what is
/// wrong with a successful answer, or an empty string; a wrong answer fails
/// `verdict`.
OpRecord TimedWireRead(
    Client& client, const ReadText& r, Tracer& tracer, Verdict& verdict,
    const std::function<std::string(const WireAnswer&)>& check) {
  OpRecord rec;
  const uint64_t request = tracer.enabled() ? tracer.NewId() : 0;
  ScopedSpan root(tracer, "op.read", 0, request);
  WireAnswer a;
  {
    ScopedSpan span(tracer, "server::Client::Query", root.id(), request);
    a = WireRead(client, r);
  }
  rec.ms = a.ms;
  if (!a.connected) {
    client.Close();
    return rec;
  }
  if (!a.done.ok) return rec;
  if (const std::string wrong = check(a); !wrong.empty()) {
    verdict.Fail("wrong answer for '" + r.text + "': " + wrong);
    return rec;
  }
  rec.ok = true;
  rec.engine_ms = static_cast<double>(a.done.latency_us) / 1000.0;
  rec.chunks = a.chunks;
  rec.bytes = a.bytes.size();
  rec.rows = a.done.num_rows;
  return rec;
}

// ---------------------------------------------------------------------------
// Probes: direct calls into single layers, for the traced run.

/// Median of `repeats` timings of `fn`, in ms.
double TimeMs(size_t repeats, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (size_t i = 0; i < repeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(MsBetween(t0, Clock::now()));
  }
  return Median(ms);
}

/// graph.csr_build_ms, planner.stats_build_ms, engine.compile_ms.<lang>.
/// Compiles every distinct workload text plus the zoo mix, so each
/// language has a value on every workload.
void ProbeBuildAndCompile(const PropertyGraph& base,
                          const std::vector<ReadText>& texts,
                          const std::vector<ReadText>& zoo, Tracer& tracer,
                          LayerMap* layer) {
  (*layer)["graph.csr_build_ms"] = TimeMs(3, [&] {
    ScopedSpan span(tracer, "GraphSnapshot");
    gqzoo::GraphSnapshot snapshot(base);
  });
  const gqzoo::GraphSnapshot snapshot(base);
  (*layer)["planner.stats_build_ms"] = TimeMs(3, [&] {
    ScopedSpan span(tracer, "SnapshotStats");
    gqzoo::SnapshotStats stats(snapshot);
  });
  const gqzoo::SnapshotStats stats(snapshot);
  std::map<QueryLanguage, std::vector<double>> compile_ms;
  auto compile = [&](const ReadText& r) {
    const Clock::time_point t0 = Clock::now();
    ScopedSpan span(tracer, "CompilePlan");
    gqzoo::Result<gqzoo::PlanPtr> plan =
        gqzoo::CompilePlan(r.language, r.text, base, 0, {}, &stats);
    if (!plan.ok()) {
      Die("CompilePlan '" + r.text + "': " + plan.error().message());
    }
    compile_ms[r.language].push_back(MsBetween(t0, Clock::now()));
  };
  for (const ReadText& r : texts) compile(r);
  for (const ReadText& r : zoo) compile(r);
  for (QueryLanguage l : kZooLanguages) {
    (*layer)[std::string("engine.compile_ms.") + gqzoo::QueryLanguageName(l)] =
        Median(compile_ms[l]);
  }
}

/// eval.exec_ms.<lang>.p50: engine-reported latency of cache-hit
/// executions grouped by language — the zoo mix re-run on this workload's
/// engine, plus `extra` (the timed in-process reads, when there are any).
void ProbeZooExec(QueryEngine& engine, const std::vector<ReadText>& zoo,
                  const std::vector<OpRecord>& extra, Tracer& tracer,
                  LayerMap* layer) {
  std::map<QueryLanguage, std::vector<double>> ms;
  for (const OpRecord& op : extra) {
    if (!op.write && op.ok && op.cache_hit) {
      ms[op.language].push_back(op.engine_ms);
    }
  }
  for (const ReadText& r : zoo) {
    for (int rep = 0; rep < 3; ++rep) {
      ScopedSpan span(tracer, "QueryEngine::Execute");
      gqzoo::Result<QueryResponse> resp = engine.Execute(LocalRequest(r));
      if (!resp.ok()) Die("probe '" + r.text + "': " + resp.error().message());
      if (resp.value().cache_hit) {
        ms[r.language].push_back(
            std::chrono::duration<double, std::milli>(resp.value().latency)
                .count());
      }
    }
  }
  for (QueryLanguage l : kZooLanguages) {
    (*layer)[std::string("eval.exec_ms.") + gqzoo::QueryLanguageName(l) +
             ".p50"] = Median(ms[l]);
  }
}

// ---------------------------------------------------------------------------
// Workload plumbing.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

struct Outcome {
  EndToEnd e2e;
  LayerMap layer;
  std::vector<std::string> notes;  // workload description for the report
};

/// An engine served over loopback. The server is torn down first.
struct Served {
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<GraphServer> server;

  void Stop() {
    if (server) server->Shutdown();
    server.reset();
    engine.reset();
  }
};

Served Serve(std::unique_ptr<QueryEngine> engine, Tracer& tracer) {
  Served s;
  s.engine = std::move(engine);
  ScopedSpan span(tracer, "GraphServer::Start");
  s.server = std::make_unique<GraphServer>(s.engine.get(),
                                           gqzoo::server::ServerOptions{});
  if (gqzoo::Result<bool> started = s.server->Start(); !started.ok()) {
    Die("server start: " + started.error().message());
  }
  return s;
}

QueryEngine::Options EngineOptions() {
  QueryEngine::Options o;
  o.num_threads = kEngineThreads;
  return o;
}

/// Reads the first answer over a fresh connection (the end of set-up).
std::string FirstWireAnswer(uint16_t port, const ReadText& r, Tracer& tracer) {
  ScopedSpan span(tracer, "first_query");
  gqzoo::Result<Client> client = Connect(port);
  if (!client.ok()) Die("setup connect: " + client.error().message());
  WireAnswer a = WireRead(client.value(), r);
  if (!a.connected || !a.done.ok) {
    Die("setup: first query '" + r.text + "' failed");
  }
  return a.bytes;
}

// ---------------------------------------------------------------------------
// wire_lookup

Outcome WireLookup(const Args& args, Tracer& tracer) {
  Outcome out;
  const PropertyGraph base = GenerateGraph(kBigNodes, kBigEdges, args.seed);
  Rng rng(args.seed ^ 0x100c);
  // The lookup pool: distinct nodes in a seeded popularity order (Zipf rank
  // = index). texts = [out-lookups | in-lookups | heavy listings].
  std::vector<uint32_t> nodes(kBigNodes);
  std::iota(nodes.begin(), nodes.end(), 0u);
  for (size_t i = 0; i < kLookupNodes; ++i) {
    std::swap(nodes[i], nodes[i + rng.Below(kBigNodes - i)]);
  }
  std::vector<ReadText> texts;
  for (size_t i = 0; i < kLookupNodes; ++i) {
    texts.push_back(OutLookup("Transfer", "n" + std::to_string(nodes[i])));
  }
  for (size_t i = 0; i < kLookupNodes; ++i) {
    texts.push_back(InLookup("Transfer", "n" + std::to_string(nodes[i])));
  }
  const size_t heavy = texts.size();
  // Heavy reads: 2000 rows of a label's edge listing, in both directions.
  texts.push_back(EdgeListing("isBlocked", kHeavyRows));
  texts.push_back(EdgeListing("~isBlocked", kHeavyRows));
  const std::vector<ReadText> zoo = ZooMix(base, args.seed);

  // Set-up: engine construction (CSR + statistics), server start, first
  // answer over the wire. Repeated; the median is reported.
  std::vector<double> setup_s;
  Served live;
  std::string first_bytes;
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    live.Stop();
    PropertyGraph copy = base;
    ScopedSpan span(tracer, "setup");
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<QueryEngine> engine;
    {
      ScopedSpan s(tracer, "QueryEngine::QueryEngine", span.id());
      engine = std::make_unique<QueryEngine>(std::move(copy), EngineOptions());
    }
    live = Serve(std::move(engine), tracer);
    first_bytes = FirstWireAnswer(live.server->port(), texts[0], tracer);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  GateSamples gate;
  const std::vector<Expected> expected =
      Gate(*live.engine, live.server->port(), texts, kGateConnections,
           tracer, &gate);
  if (Digest(first_bytes) != expected[0].digest) Die("setup answer differs");
  for (size_t i = heavy; i < texts.size(); ++i) {
    if (gate.chunks_by_text[i] < kHeavyMinChunks) {
      Die("heavy read '" + texts[i].text + "' streamed only " +
          std::to_string(gate.chunks_by_text[i]) + " chunks");
    }
  }

  Verdict verdict;
  const Zipf popularity(kLookupNodes, kLookupSkew);
  std::vector<Client> clients(kClients);
  std::vector<size_t> sent(kClients, 0);
  const uint16_t port = live.server->port();
  // Every 8th request is a heavy listing and every 48th an in-lookup; the
  // rest are out-lookups. The shares are fixed so that neither percentile
  // sits on the boundary between two populations: p50 reads the out-lookups
  // and p99 the middle of the in-lookups (~2% of requests), which take
  // milliseconds where out-lookups take microseconds.
  ClientOp op = [&](size_t c, Rng& r) {
    const size_t k = ++sent[c];
    const size_t i = k % kHeavyEvery == 0
                         ? heavy + (k / kHeavyEvery) % (texts.size() - heavy)
                     : k % kInLookupEvery == kInLookupEvery / 2 + 1
                         ? kLookupNodes + popularity.Draw(r)
                         : popularity.Draw(r);
    if (!EnsureConnected(clients[c], port)) return OpRecord{};
    return TimedWireRead(
        clients[c], texts[i], tracer, verdict,
        [&](const WireAnswer& a) { return Mismatch(expected[i], a); });
  };
  Timed timed = RunTimed(live.engine.get(), args.seconds, args.trace,
                         args.seed, tracer, verdict, op);
  verdict.ExitIfFailed();
  clients.clear();
  out.e2e = Summarize(timed.run);
  out.e2e.setup_s = Median(setup_s);

  if (args.trace) {
    AddOpLayers(timed.traced, /*wire=*/true, &out.layer);
    AddCounterLayers(*live.engine, timed.before, timed.after, &out.layer);
    out.layer["engine.queue_ms.p50"] = Percentile(gate.queue_ms, 50);
    out.layer["engine.queue_ms.p99"] = Percentile(gate.queue_ms, 99);
    out.layer["trace.overhead_pct"] = timed.overhead_pct;
    ProbeBuildAndCompile(base, texts, zoo, tracer, &out.layer);
    ProbeZooExec(*live.engine, zoo, {}, tracer, &out.layer);
  }
  live.Stop();
  out.notes = {"graph 20000 nodes / 200000 edges",
               "reads: 1-hop CRPQ lookups (Zipf s=1.0 over 512 nodes each "
               "way: 1024 texts), 1 in 48 inbound; every 8th a streamed "
               "2000-row RPQ listing",
               "plan cache 8 shards x 64 = 512 plans"};
  return out;
}

// ---------------------------------------------------------------------------
// engine_analytic

Outcome EngineAnalytic(const Args& args, Tracer& tracer) {
  Outcome out;
  const PropertyGraph base = GenerateGraph(kBigNodes, kBigEdges, args.seed);
  const std::vector<ReadText> zoo = ZooMix(base, args.seed);

  // Set-up: engine construction and the first answer through Submit.
  std::vector<double> setup_s;
  std::unique_ptr<QueryEngine> engine;
  std::string first_text;
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    engine.reset();
    PropertyGraph copy = base;
    ScopedSpan span(tracer, "setup");
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan s(tracer, "QueryEngine::QueryEngine", span.id());
      engine = std::make_unique<QueryEngine>(std::move(copy), EngineOptions());
    }
    LocalAnswer a = LocalRead(*engine, zoo[0], tracer, span.id(), 0);
    if (!a.response.ok()) Die("setup: first query failed");
    first_text = a.response.value().text;
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }

  // The gate serves the engine over loopback only while it runs.
  GateSamples gate;
  std::vector<Expected> expected;
  {
    GraphServer server(engine.get(), gqzoo::server::ServerOptions{});
    if (gqzoo::Result<bool> started = server.Start(); !started.ok()) {
      Die("server start: " + started.error().message());
    }
    // One connection: the gate's wire samples stand in for the server
    // layer here, so they must not queue behind each other.
    expected = Gate(*engine, server.port(), zoo, 1, tracer, &gate);
    server.Shutdown();
  }
  if (Digest(first_text) != expected[0].digest) Die("setup answer differs");

  Verdict verdict;
  // Each client runs the mix in rounds, every text once per round in a fresh
  // seeded order: every text runs equally often (the percentiles do not
  // depend on sampling luck) and the clients never lock into one phase.
  std::vector<std::vector<size_t>> round(kClients);
  ClientOp op = [&](size_t c, Rng& r) {
    OpRecord rec;
    if (round[c].empty()) {
      round[c].resize(zoo.size());
      std::iota(round[c].begin(), round[c].end(), size_t{0});
      for (size_t k = round[c].size(); k > 1; --k) {
        std::swap(round[c][k - 1], round[c][r.Below(k)]);
      }
    }
    const size_t i = round[c].back();
    round[c].pop_back();
    const uint64_t request = tracer.enabled() ? tracer.NewId() : 0;
    ScopedSpan root(tracer, "op.read", 0, request);
    LocalAnswer a = LocalRead(*engine, zoo[i], tracer, root.id(), request);
    rec.ms = a.ms;
    rec.language = zoo[i].language;
    if (!a.response.ok()) return rec;
    const QueryResponse& resp = a.response.value();
    if (expected[i].digest != Digest(resp.text) ||
        expected[i].rows != resp.num_rows) {
      verdict.Fail("wrong answer for '" + zoo[i].text + "'");
      return rec;
    }
    rec.ok = true;
    rec.engine_ms =
        std::chrono::duration<double, std::milli>(resp.latency).count();
    rec.queue_ms = a.ms - rec.engine_ms;
    rec.rows = resp.num_rows;
    rec.cache_hit = resp.cache_hit;
    return rec;
  };
  Timed timed = RunTimed(engine.get(), args.seconds, args.trace, args.seed,
                         tracer, verdict, op);
  verdict.ExitIfFailed();
  out.e2e = Summarize(timed.run);
  out.e2e.setup_s = Median(setup_s);

  if (args.trace) {
    AddOpLayers(timed.traced, /*wire=*/false, &out.layer);
    AddCounterLayers(*engine, timed.before, timed.after, &out.layer);
    // No server on the timed path: the wire layer is read off the gate.
    out.layer["server.overhead_ms.p50"] = Percentile(gate.overhead_ms, 50);
    out.layer["server.overhead_ms.p99"] = Percentile(gate.overhead_ms, 99);
    out.layer["server.chunks_per_read"] = Ratio(gate.chunks, gate.reads);
    out.layer["server.bytes_per_read"] = Ratio(gate.bytes, gate.reads);
    out.layer["trace.overhead_pct"] = timed.overhead_pct;
    ProbeBuildAndCompile(base, {}, zoo, tracer, &out.layer);
    ProbeZooExec(*engine, zoo, timed.traced.ops, tracer, &out.layer);
  }
  engine.reset();
  out.notes = {"graph 20000 nodes / 200000 edges",
               "reads: each client runs the " + std::to_string(zoo.size()) +
                   " zoo texts in rounds (shuffled), in-process Submit"};
  return out;
}

// ---------------------------------------------------------------------------
// wire_write

/// One client's write history. Adds and deletes alternate inside a batch;
/// a delete takes the client's oldest acknowledged edge once more than
/// kLiveEdgesPerClient are live, so the graph's size stays stable.
struct Writer {
  size_t client = 0;
  uint64_t next_edge = 0;
  std::deque<std::string> live;  // acked, not deleted; oldest first
  std::vector<std::string> deleted;  // acked deletes
  std::unordered_map<std::string, std::pair<std::string, std::string>> ends;
  std::vector<std::string> unknown;  // in a batch that was not acked
};

struct PendingBatch {
  MutationBatch batch;
  std::vector<std::string> added, removed;
};

PendingBatch NextBatch(Writer& w, Rng& rng,
                       const std::vector<std::string>& pool,
                       std::vector<std::atomic<uint64_t>>& adds_from) {
  PendingBatch p;
  for (size_t i = 0; i < kOpsPerBatch; ++i) {
    if (i % 2 == 1 && w.live.size() > kLiveEdgesPerClient) {
      p.removed.push_back(w.live.front());
      w.live.pop_front();
      p.batch.RemoveEdge(p.removed.back());
      continue;
    }
    const size_t src = rng.Below(pool.size());
    const std::string tgt = "n" + std::to_string(rng.Below(kSmallNodes));
    const std::string name =
        "w" + std::to_string(w.client) + "x" + std::to_string(w.next_edge++);
    // Counted before the write is sent, so a read that can see the edge
    // always sees the raised bound.
    adds_from[src].fetch_add(1);
    w.ends[name] = {pool[src], tgt};
    p.added.push_back(name);
    p.batch.AddEdge(name, pool[src], tgt, kWrittenLabel);
  }
  return p;
}

void Settle(Writer& w, const PendingBatch& p, bool acked) {
  for (const std::string& name : p.added) {
    (acked ? w.live.push_back(name) : w.unknown.push_back(name));
  }
  for (const std::string& name : p.removed) {
    (acked ? w.deleted.push_back(name) : w.unknown.push_back(name));
  }
}

/// Every acknowledged add that was not deleted must be in `g` with its
/// endpoints and label; every acknowledged delete must be gone.
size_t CheckWrites(const PropertyGraph& g, const std::vector<Writer>& writers) {
  size_t checked = 0;
  for (const Writer& w : writers) {
    for (const std::string& name : w.live) {
      const std::optional<gqzoo::EdgeId> e = g.FindEdge(name);
      const auto& [src, tgt] = w.ends.at(name);
      if (!e || g.LabelName(g.EdgeLabel(*e)) != kWrittenLabel ||
          g.NodeName(g.Src(*e)) != src || g.NodeName(g.Tgt(*e)) != tgt) {
        Die("acked write lost after restart: add-edge " + name);
      }
      ++checked;
    }
    for (const std::string& name : w.deleted) {
      if (g.FindEdge(name)) {
        Die("acked write lost after restart: del-edge " + name);
      }
      ++checked;
    }
  }
  return checked;
}

/// WAL counters sampled from the engine's stats report after writes; only
/// differences within one WAL generation (between checkpoints) count.
class WalSampler {
 public:
  void Sample(const QueryEngine& engine) {
    const std::string report = engine.StatsReport();
    const size_t at = report.find("wal_records");
    if (at == std::string::npos) return;
    unsigned long long r = 0, b = 0, s = 0;
    if (std::sscanf(report.c_str() + at,
                    "wal_records %llu wal_bytes %llu syncs %llu", &r, &b,
                    &s) != 3) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (have_ && r >= last_[0] && b >= last_[1] && s >= last_[2]) {
      records_ += r - last_[0];
      bytes_ += b - last_[1];
      syncs_ += s - last_[2];
    }
    last_ = {r, b, s};
    have_ = true;
  }
  double BytesPerOp() const {
    return Ratio(static_cast<double>(bytes_),
                 static_cast<double>(records_ * kOpsPerBatch));
  }
  double SyncsPerWrite() const {
    return Ratio(static_cast<double>(syncs_), static_cast<double>(records_));
  }

 private:
  std::mutex mu_;
  bool have_ = false;
  std::array<unsigned long long, 3> last_{};
  uint64_t records_ = 0, bytes_ = 0, syncs_ = 0;
};

QueryEngine::Options DurableOptions(const fs::path& dir, size_t compact_ops) {
  QueryEngine::Options o = EngineOptions();
  o.durability.dir = dir.string();
  o.durability.fsync = true;
  o.durability.group_commit_window_ms = kGroupCommitMs;
  o.mutation.compact_min_ops = compact_ops;
  return o;
}

std::unique_ptr<QueryEngine> Recover(PropertyGraph initial,
                                     QueryEngine::Options options) {
  gqzoo::Result<std::unique_ptr<QueryEngine>> engine =
      QueryEngine::RecoverFrom(std::move(initial), std::move(options));
  if (!engine.ok()) Die("RecoverFrom: " + engine.error().message());
  return std::move(engine).value();
}

Outcome WireWrite(const Args& args, const fs::path& state, Tracer& tracer) {
  Outcome out;
  const PropertyGraph base = GenerateGraph(kSmallNodes, kSmallEdges, args.seed);
  Rng rng(args.seed ^ 0x3717e);
  std::vector<std::string> pool;
  std::vector<ReadText> texts;  // [0, kWritePool): written label
  std::vector<uint32_t> nodes(kSmallNodes);
  std::iota(nodes.begin(), nodes.end(), 0u);
  for (size_t i = 0; i < kWritePool; ++i) {
    std::swap(nodes[i], nodes[i + rng.Below(kSmallNodes - i)]);
    pool.push_back("n" + std::to_string(nodes[i]));
    texts.push_back(OutLookup(kWrittenLabel, pool.back()));
  }
  for (size_t i = 0; i < kWritePool; ++i) {
    texts.push_back(OutLookup(kUntouchedLabel, pool[i]));
  }
  // Row bounds for the written label: the base graph's distinct targets
  // (never deleted), plus every edge the benchmark has added from the node.
  std::vector<uint64_t> base_rows(kWritePool);
  const gqzoo::LabelId written = *base.FindLabel(kWrittenLabel);
  for (size_t i = 0; i < kWritePool; ++i) {
    std::vector<gqzoo::NodeId> targets;
    for (gqzoo::EdgeId e : base.OutEdges(*base.FindNode(pool[i]))) {
      if (base.EdgeLabel(e) == written) targets.push_back(base.Tgt(e));
    }
    std::sort(targets.begin(), targets.end());
    base_rows[i] = static_cast<uint64_t>(
        std::unique(targets.begin(), targets.end()) - targets.begin());
  }
  std::vector<std::atomic<uint64_t>> adds_from(kWritePool);
  std::vector<Writer> writers(kClients);
  for (size_t c = 0; c < kClients; ++c) writers[c].client = c;
  const std::vector<ReadText> zoo = ZooMix(base, args.seed);

  // Untimed preparation: a durable directory holding a checkpoint (after a
  // fold) and an unfolded WAL tail, which every set-up restarts from.
  const fs::path prep = state / "prep";
  {
    std::unique_ptr<QueryEngine> engine = Recover(
        PropertyGraph(base), DurableOptions(prep, size_t{1} << 40));
    auto apply = [&](size_t rounds) {
      for (size_t round = 0; round < rounds; ++round) {
        for (Writer& w : writers) {
          PendingBatch p = NextBatch(w, rng, pool, adds_from);
          gqzoo::Result<QueryEngine::MutationResult> r =
              engine->ApplyMutation(p.batch);
          if (!r.ok()) Die("preparation write: " + r.error().message());
          Settle(w, p, /*acked=*/true);
        }
      }
    };
    apply(kPrepFoldedBatches);
    if (!engine->CompactNow()) Die("preparation compaction did not run");
    apply(kPrepTailBatches);
  }

  // Set-up: a restart. RecoverFrom (checkpoint decode, WAL replay, fresh
  // checkpoint), server start, first answer over the wire.
  const fs::path dir = state / "live";
  const QueryEngine::Options options = DurableOptions(dir, kCompactMinOps);
  const ReadText& first = texts[kWritePool];
  std::vector<double> setup_s, recover_ms;
  Served live;
  std::string first_bytes;
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    live.Stop();
    fs::remove_all(dir);
    fs::copy(prep, dir, fs::copy_options::recursive);
    ScopedSpan span(tracer, "setup");
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<QueryEngine> engine;
    {
      ScopedSpan s(tracer, "QueryEngine::RecoverFrom", span.id());
      engine = Recover(PropertyGraph(), options);
    }
    recover_ms.push_back(MsBetween(t0, Clock::now()));
    live = Serve(std::move(engine), tracer);
    first_bytes = FirstWireAnswer(live.server->port(), first, tracer);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  const gqzoo::storage::RecoveryInfo recovery = live.engine->recovery_info();

  GateSamples gate;
  const std::vector<Expected> expected =
      Gate(*live.engine, live.server->port(), texts, kGateConnections,
           tracer, &gate);
  if (Digest(first_bytes) != expected[kWritePool].digest) {
    Die("setup answer differs");
  }

  Verdict verdict;
  WalSampler wal;
  std::vector<Client> clients(kClients);
  const uint16_t port = live.server->port();
  QueryEngine* engine = live.engine.get();
  ClientOp op = [&](size_t c, Rng& r) {
    OpRecord rec;
    rec.write = r.Unit() < 0.5;
    if (!EnsureConnected(clients[c], port)) return rec;
    if (rec.write) {
      const uint64_t request = tracer.enabled() ? tracer.NewId() : 0;
      ScopedSpan root(tracer, "op.write", 0, request);
      PendingBatch p = NextBatch(writers[c], r, pool, adds_from);
      std::vector<std::string> lines;
      for (const gqzoo::MutationOp& m : p.batch.ops) {
        lines.push_back(m.ToString());
      }
      const Clock::time_point t0 = Clock::now();
      gqzoo::Result<DoneStatus> done = [&] {
        ScopedSpan span(tracer, "server::Client::Mutate", root.id(), request);
        return clients[c].Mutate(lines);
      }();
      rec.ms = MsBetween(t0, Clock::now());
      rec.ok = done.ok() && done.value().ok &&
               done.value().num_rows == kOpsPerBatch;
      if (!done.ok()) clients[c].Close();
      Settle(writers[c], p, rec.ok);
      if (rec.ok && tracer.enabled()) wal.Sample(*engine);
      return rec;
    }
    const size_t i = r.Below(texts.size());
    return TimedWireRead(
        clients[c], texts[i], tracer, verdict,
        [&](const WireAnswer& a) -> std::string {
          if (i >= kWritePool) return Mismatch(expected[i], a);
          const uint64_t most = base_rows[i] + adds_from[i].load();
          if (a.done.num_rows >= base_rows[i] && a.done.num_rows <= most) {
            return "";
          }
          return std::to_string(a.done.num_rows) + " rows, expected " +
                 std::to_string(base_rows[i]) + ".." + std::to_string(most);
        });
  };
  Timed timed = RunTimed(engine, args.seconds, args.trace, args.seed, tracer,
                         verdict, op);
  verdict.ExitIfFailed();
  clients.clear();
  out.e2e = Summarize(timed.run);
  out.e2e.setup_s = Median(setup_s);

  if (args.trace) {
    AddOpLayers(timed.traced, /*wire=*/true, &out.layer);
    AddCounterLayers(*engine, timed.before, timed.after, &out.layer);
    out.layer["engine.queue_ms.p50"] = Percentile(gate.queue_ms, 50);
    out.layer["engine.queue_ms.p99"] = Percentile(gate.queue_ms, 99);
    out.layer["trace.overhead_pct"] = timed.overhead_pct;
    out.layer["storage.recover_ms"] = Median(recover_ms);
    out.layer["storage.recovery_mapped"] = recovery.mapped ? 1 : 0;
    out.layer["storage.ops_replayed"] =
        static_cast<double>(recovery.ops_replayed);
    out.layer["storage.wal_bytes_per_op"] = wal.BytesPerOp();
    out.layer["storage.wal_syncs_per_write"] = wal.SyncsPerWrite();
    ProbeZooExec(*engine, zoo, {}, tracer, &out.layer);
  }

  // Graceful shutdown, restart from the directory, and every acked write
  // must be there. The stand-alone probes run in between, once no
  // background checkpoint can compete with them.
  live.Stop();
  if (args.trace) {
    std::string image;
    out.layer["storage.checkpoint_encode_ms"] = TimeMs(3, [&] {
      ScopedSpan span(tracer, "SnapshotCodec::EncodeSnapshot");
      image = gqzoo::storage::SnapshotCodec::EncodeSnapshot(base, 0);
    });
    out.layer["storage.checkpoint_bytes"] = static_cast<double>(image.size());
    ProbeBuildAndCompile(base, texts, zoo, tracer, &out.layer);
  }
  std::unique_ptr<QueryEngine> restarted = Recover(PropertyGraph(), options);
  const size_t checked = CheckWrites(*restarted->graph_snapshot(), writers);
  restarted.reset();
  out.notes = {
      "graph 1000 nodes / 8000 edges",
      "mix: 50% 8-op batches (add-edge/del-edge alternating, label owner), "
      "25% reads of owner, 25% reads of Transfer, over " +
          std::to_string(kWritePool) + " nodes",
      "durability: fsync on, group commit window " +
          std::to_string(kGroupCommitMs) + " ms; compaction every " +
          std::to_string(kCompactMinOps) + " ops (background)",
      "set-up: restart replaying " + std::to_string(recovery.ops_replayed) +
          " WAL ops over a checkpoint",
      "restart check: " + std::to_string(checked) + " acked ops verified"};
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"qps", "1/s"},
    {"read_p50_ms", "ms"},     {"read_p99_ms", "ms"},
    {"op_p99_ms", "ms"},       {"ok_share", "ratio"},
    {"peak_rss_mb", "MiB"},
};

const MetricDef kPerLayer[] = {
    {"server.overhead_ms.p50", "ms"},
    {"server.overhead_ms.p99", "ms"},
    {"server.chunks_per_read", "count"},
    {"server.bytes_per_read", "bytes"},
    {"engine.exec_ms.p50", "ms"},
    {"engine.exec_ms.p99", "ms"},
    {"engine.queue_ms.p50", "ms"},
    {"engine.queue_ms.p99", "ms"},
    {"engine.plan_cache.hit_ratio", "ratio"},
    {"engine.plan_cache.hits", "count"},
    {"engine.plan_cache.misses", "count"},
    {"engine.plan_cache.evictions", "count"},
    {"engine.compile_ms.rpq", "ms"},
    {"engine.compile_ms.crpq", "ms"},
    {"engine.compile_ms.dlcrpq", "ms"},
    {"engine.compile_ms.gql", "ms"},
    {"engine.compile_ms.gqlgroup", "ms"},
    {"engine.compile_ms.paths", "ms"},
    {"engine.shed", "count"},
    {"engine.queue_depth_high_water", "count"},
    {"engine.peak_query_bytes", "bytes"},
    {"eval.exec_ms.rpq.p50", "ms"},
    {"eval.exec_ms.crpq.p50", "ms"},
    {"eval.exec_ms.dlcrpq.p50", "ms"},
    {"eval.exec_ms.gql.p50", "ms"},
    {"eval.exec_ms.gqlgroup.p50", "ms"},
    {"eval.exec_ms.paths.p50", "ms"},
    {"rel.wcoj_execs", "count"},
    {"eval.rows_per_read", "count"},
    {"planner.stats_build_ms", "ms"},
    {"graph.csr_build_ms", "ms"},
    {"graph.merged_view_builds_per_write", "ratio"},
    {"mutation.compactions", "count"},
    {"mutation.plans_invalidated_per_write", "ratio"},
    {"storage.recover_ms", "ms"},
    {"storage.recovery_mapped", "count"},
    {"storage.ops_replayed", "count"},
    {"storage.checkpoint_encode_ms", "ms"},
    {"storage.checkpoint_bytes", "bytes"},
    {"storage.wal_bytes_per_op", "bytes"},
    {"storage.wal_syncs_per_write", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(0x80000000, &eax, &ebx, &ecx, &edx) && eax >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

void PrintHost() {
  const std::string build = GQZOO_PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  const bool comparable = build == "Release" && !asserts;
  std::printf("host nproc=%u cpu=\"%s\" compiler=\"%s\" build_type=%s "
              "assertions=%s comparable=%s\n",
              std::thread::hardware_concurrency(), CpuModel().c_str(),
              GQZOO_PERFBENCH_COMPILER, build.c_str(), asserts ? "on" : "off",
              comparable ? "yes" : "NO (not a Release build; numbers are not "
                                   "comparable with Release results)");
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(const Args& args) {
  const fs::path workdir(args.workdir);
  const fs::path state = workdir / ("state-" + args.workload + "-" +
                                    std::to_string(args.seed));
  fs::remove_all(state);
  fs::create_directories(state);
  // Traced runs trace set-up, the gate and the probes too; RunTimed switches
  // tracing off for the untraced half of the timed window.
  Tracer tracer(args.trace);

  PrintHost();
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d clients=%zu "
              "engine_threads=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, kClients, kEngineThreads);
  std::fflush(stdout);

  Outcome out;
  if (args.workload == "wire_lookup") {
    out = WireLookup(args, tracer);
  } else if (args.workload == "engine_analytic") {
    out = EngineAnalytic(args, tracer);
  } else {
    out = WireWrite(args, state, tracer);
  }
  fs::remove_all(state);
  out.e2e.peak_rss_mb = PeakRssMb();

  const EndToEnd& e = out.e2e;
  for (const std::string& note : out.notes) {
    std::printf("workload %s\n", note.c_str());
  }
  std::printf("ops reads %zu attempted / %zu failed, writes %zu attempted / "
              "%zu failed\n",
              e.reads_attempted, e.reads_failed, e.writes_attempted,
              e.writes_failed);
  const double error_share =
      Ratio(static_cast<double>(e.failed), static_cast<double>(e.attempted));
  const std::map<std::string, double> e2e = {
      {"setup_s", e.setup_s},         {"qps", e.qps},
      {"read_p50_ms", e.read_p50_ms}, {"read_p99_ms", e.read_p99_ms},
      {"op_p99_ms", e.op_p99_ms},     {"ok_share", 1.0 - error_share},
      {"peak_rss_mb", e.peak_rss_mb},
  };
  for (const MetricDef& m : kEndToEnd) {
    std::printf("metric %s %s %s\n", m.name, Number(e2e.at(m.name)).c_str(),
                m.unit);
  }
  std::printf("metric error_share %s ratio\n", Number(error_share).c_str());
  if (e.writes_attempted > 0) {
    std::printf("metric write_p50_ms %s ms\n", Number(e.write_p50_ms).c_str());
    std::printf("metric write_p99_ms %s ms\n", Number(e.write_p99_ms).c_str());
  }

  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(e.attempted) +
                     ", \"failed\": " + std::to_string(e.failed) +
                     ", \"metrics\": {";
  auto add = [&, first = true](const MetricDef& m, double v) mutable {
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + Number(v) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  };
  if (args.trace) {
    out.layer["trace.spans"] = static_cast<double>(tracer.size());
    for (const auto& [name, value] : out.layer) {
      if (std::none_of(std::begin(kPerLayer), std::end(kPerLayer),
                       [&](const MetricDef& m) { return name == m.name; })) {
        Die("undeclared layer metric " + name);
      }
    }
    // A layer a workload does not use reads 0 (e.g. storage on the
    // RAM-only workloads).
    for (const MetricDef& m : kPerLayer) {
      const auto it = out.layer.find(m.name);
      const double v = it == out.layer.end() ? 0.0 : it->second;
      std::printf("layer %s %s %s\n", m.name, Number(v).c_str(), m.unit);
      add(m, v);
    }
    const fs::path spans =
        workdir / ("spans-" + args.workload + "-seed" +
                   std::to_string(args.seed) + ".jsonl");
    if (!tracer.WriteJsonLines(spans.string())) {
      Die("cannot write " + spans.string());
    }
    std::printf("spans %zu written to %s\n", tracer.size(), spans.c_str());
  } else {
    for (const MetricDef& m : kEndToEnd) add(m, e2e.at(m.name));
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: gqzoo_perfbench --workload "
               "wire_lookup|engine_analytic|wire_write --seed <n> --seconds "
               "<s> --trace 0|1 [--workdir <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool seed = false, seconds = false, trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      seconds = *end == '\0' && args.seconds > 0 && args.seconds <= 600;
    } else if (flag == "--trace") {
      trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload != "wire_lookup" && args.workload != "engine_analytic" &&
      args.workload != "wire_write") {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (!seed || !seconds || !trace) {
    Usage("--seed, --seconds and --trace are required");
  }
  return args;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Main(perfbench::ParseArgs(argc, argv));
}
