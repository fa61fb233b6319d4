// TLC serving benchmark: what a client of a BEAS service sees over the wire.
//
// One process deploys a BeasService over TLC (SF 32, data seed 42) behind a
// net::Server on loopback and drives it with closed-loop BNW1 connections
// (each client waits for an answer before sending its next request); it
// does so kRounds times in turn, each deployment measured for a share of
// the run. It prints every end-to-end metric by name with its unit and
// sample count, checks every answer against an in-process reference with
// no caches and one instance per template against the conventional
// engine, pins the layer mix each workload claims, and ends with one JSON
// line.
//
//   tlcbench --workload tlc_uniform|tlc_hotkey|cdr_ingest --seed N
//            --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 1 additionally replays a seeded sample of the workload's requests
// one at a time, with spans around the benchmark's own calls into each
// layer, and reports per-layer metrics instead of end-to-end ones. The
// spans are written to DIR/spans-<workload>-seed<N>.jsonl.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bounded/bounded_executor.h"
#include "bounded/step_program.h"
#include "common/shard_config.h"
#include "common/task_pool.h"
#include "harness.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/beas_service.h"
#include "service/result_cache.h"
#include "sql/canonical_template.h"
#include "sql/sql_template.h"
#include "workload.h"
#include "workload/tlc_access_schema.h"
#include "workload/tlc_generator.h"

#ifndef TLCBENCH_BUILD_TYPE
#define TLCBENCH_BUILD_TYPE "unknown"
#endif

namespace tlcbench {
namespace {

using beas::BeasService;
using beas::QueryRequest;
using beas::QueryResponse;
using beas::Row;
using beas::Status;

constexpr double kScaleFactor = 32;
constexpr uint64_t kDataSeed = 42;
constexpr double kWarmupSeconds = 1.0;
constexpr double kWindowSeconds = 1.0;
constexpr size_t kReplaySamples = 600;
constexpr size_t kWriteProbes = 32;
// Two closed-loop connections: one connection leaves the vCPUs idle
// between requests, and wake-up latency then dominates and spreads the
// numbers (about twice the run-to-run spread measured with two).
constexpr size_t kConnections = 2;
// Deployments per run. Each is set up (setup_s is the median of their
// set-up times), warmed up, measured for 1/kRounds of the run, checked and
// torn down. The read metrics pool the windows of all of them, so they
// sample the whole wall-clock span of the run and several memory layouts:
// on a shared host a disturbance lasting seconds, or one deployment's
// layout, moved a single 10 s phase by up to ~15%.
constexpr int kRounds = 5;
constexpr long kTmpfsMagic = 0x01021994;

// Stream ids: each phase and connection draws from its own stream; round
// k adds k * kRoundStreams.
constexpr uint64_t kWarmupStream = 100;
constexpr uint64_t kTimedStream = 200;
constexpr uint64_t kTracedStreamOffset = 8;
constexpr uint64_t kRoundStreams = 16;
constexpr uint64_t kReplayStream = 300;
constexpr uint64_t kProbeStream = 400;
static_assert(kWarmupStream + kRounds * kRoundStreams <= kTimedStream &&
                  kTimedStream + kRounds * kRoundStreams <= kReplayStream,
              "the rounds' streams overlap");
// Global write indices of the replay's writes start here, past any index
// a timed run can reach.
constexpr uint64_t kReplayWriteBase = 1ull << 32;

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

struct Workload {
  const char* name;
  RequestStream::Kind kind;
  bool durable;
  size_t reads_per_write;  ///< 0 = read-only
};

const Workload kWorkloads[] = {
    {"tlc_uniform", RequestStream::Kind::kUniform, false, 0},
    {"tlc_hotkey", RequestStream::Kind::kHotKey, false, 0},
    {"cdr_ingest", RequestStream::Kind::kHotKey, true, 3},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

// ---------------------------------------------------------------------------
// Answers as bags: an order-independent digest (sum of row hashes), so a
// wire answer and its reference agree iff they hold the same rows with the
// same multiplicities, whatever their order.
// ---------------------------------------------------------------------------

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

uint64_t ValueHash(const beas::Value& v) {
  switch (v.type()) {
    case beas::TypeId::kInt64:
      return Mix(1 ^ Mix(static_cast<uint64_t>(v.AsInt64())));
    case beas::TypeId::kDate:
      return Mix(2 ^ Mix(static_cast<uint64_t>(v.AsDate())));
    case beas::TypeId::kDouble:
      // Micro-units: equal sums computed in another order still agree.
      return Mix(3 ^ Mix(static_cast<uint64_t>(std::llround(v.AsDouble() * 1e6))));
    case beas::TypeId::kString:
      return Mix(4 ^ std::hash<std::string>{}(v.AsString()));
    default:
      return Mix(5);
  }
}

struct BagDigest {
  uint64_t sum = 0;
  uint64_t rows = 0;
  bool operator==(const BagDigest& o) const {
    return sum == o.sum && rows == o.rows;
  }
  bool operator!=(const BagDigest& o) const { return !(*this == o); }
};

BagDigest Digest(const std::vector<Row>& rows) {
  BagDigest d;
  for (const Row& row : rows) {
    uint64_t h = 0x51ed270b27a1f2a5ull;
    for (const beas::Value& v : row) h = Mix(h * 31 + ValueHash(v));
    d.sum += Mix(h);
  }
  d.rows = rows.size();
  return d;
}

/// Sorted rendering of a bag, for the conventional cross-check.
std::vector<std::string> SortedBag(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) {
    std::string s;
    for (const beas::Value& v : row) {
      if (v.type() == beas::TypeId::kDouble) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6f", v.AsDouble());
        s += buf;
      } else {
        s += v.ToString();
      }
      s += '|';
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Environment fingerprint.
// ---------------------------------------------------------------------------

bool IsTmpfs(const std::string& dir) {
  struct statfs fs;
  return ::statfs(dir.c_str(), &fs) == 0 &&
         static_cast<long>(fs.f_type) == kTmpfsMagic;
}

double PeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void PrintFingerprint(const Args& args, const Workload& w,
                      const std::string& wal_dir) {
  const char* shards_env = std::getenv("BEAS_SHARDS");
  std::printf("environment:\n");
  std::printf("  nproc                 %ld\n", ::sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("  hardware_concurrency  %u\n",
              std::thread::hardware_concurrency());
  std::printf("  BEAS_SHARDS effective %zu (env: %s)\n",
              beas::ConfiguredShardCount(),
              shards_env == nullptr ? "unset" : shards_env);
  std::printf("  compiler              %s\n", __VERSION__);
  std::printf("  build type            %s\n", TLCBENCH_BUILD_TYPE);
  std::printf("  dataset               TLC SF %.0f, data seed %llu\n",
              kScaleFactor, static_cast<unsigned long long>(kDataSeed));
  std::printf("  workload              %s, request seed %llu\n", w.name,
              static_cast<unsigned long long>(args.seed));
  std::printf("  load                  %zu closed-loop BNW1 connection(s), "
              "1 client thread each; %d deployments in turn, each %.0f s "
              "warm-up, %.3g s measured\n",
              kConnections, kRounds, kWarmupSeconds, args.seconds / kRounds);
  beas::ServiceOptions service;
  std::printf("  service               %zu workers, %zu dispatchers, plan cache "
              "on, result cache %zu MiB\n",
              service.num_workers, beas::net::ServerOptions{}.num_dispatchers,
              service.result_cache_max_bytes >> 20);
  if (w.durable) {
    std::printf("  WAL                   %s (tmpfs: %s)\n", wal_dir.c_str(),
                IsTmpfs(wal_dir) ? "yes" : "no");
    std::printf("  flush policy          fsync on every group commit, default "
                "group commit; no checkpoint runs\n");
  } else {
    std::printf("  WAL                   none (in-memory service)\n");
  }
}

// ---------------------------------------------------------------------------
// Deployment: the service, TLC, its access schema and the wire server.
// ---------------------------------------------------------------------------

struct Deployment {
  std::unique_ptr<BeasService> svc;
  std::unique_ptr<beas::net::Server> server;
  std::string wal_dir;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    server.reset();  // stops before the service it serves goes away
    svc.reset();
    if (!wal_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(wal_dir, ec);
    }
  }
};

Status Deploy(const Workload& w, const std::string& wal_dir,
              Deployment* out) {
  beas::ServiceOptions options;
  if (w.durable) {
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
    if (!std::filesystem::create_directories(wal_dir, ec)) {
      return Status::IoError("cannot create " + wal_dir);
    }
    out->wal_dir = wal_dir;
    options.durability.dir = wal_dir;
  }
  out->svc = std::make_unique<BeasService>(options);
  BEAS_RETURN_NOT_OK(out->svc->durability_status());
  if (w.durable && !out->svc->durable()) {
    return Status::Internal("durable service did not open");
  }
  beas::TlcOptions tlc;
  tlc.scale_factor = kScaleFactor;
  tlc.seed = kDataSeed;
  BEAS_RETURN_NOT_OK(beas::GenerateTlc(out->svc->db(), tlc).status());
  for (const beas::AccessConstraint& c : beas::TlcAccessConstraints()) {
    BEAS_RETURN_NOT_OK(out->svc->RegisterConstraint(c));
  }
  out->server = std::make_unique<beas::net::Server>(out->svc.get());
  return out->server->Start();
}

// ---------------------------------------------------------------------------
// Closed-loop wire phases.
// ---------------------------------------------------------------------------

struct ReadRecord {
  RequestSpec spec;
  BagDigest digest;
};

struct PhaseOutput {
  std::vector<double> read_ms;
  std::vector<double> read_done_s;  ///< completion, seconds into the phase
  std::vector<double> write_ms;
  std::vector<ReadRecord> reads;
  uint64_t read_errors = 0;
  uint64_t write_errors = 0;
  uint64_t rows_acked = 0;
  int64_t last_ns = 0;
  std::string first_error;
};

struct Connection {
  beas::net::Client client;
  uint64_t writes_sent = 0;
};

/// One connection's closed loop from `start_ns` until `until_ns`: reads
/// drawn from
/// `stream`, and for a writing workload one write after every
/// `reads_per_write` reads. `spans` (may be null) records one span per
/// round trip.
void RunLoop(const Workload& w, size_t conn_index, size_t num_conns,
             Connection* conn, RequestStream* stream, int64_t start_ns,
             int64_t until_ns, SpanRecorder* spans, PhaseOutput* out) {
  QueryRequest request;
  for (uint64_t op = 0; NowNs() < until_ns; ++op) {
    uint64_t request_id = (static_cast<uint64_t>(conn_index) << 48) | op;
    if (w.reads_per_write > 0 && op % (w.reads_per_write + 1) ==
                                     w.reads_per_write) {
      uint64_t index = conn->writes_sent++ * num_conns + conn_index;
      std::vector<Row> rows = MakeWriteRows(index);
      int64_t t0 = NowNs();
      size_t span = spans == nullptr ? 0
                                     : spans->Begin("net.client_insert",
                                                    request_id);
      beas::Result<uint64_t> acked = conn->client.Insert("call", rows);
      if (spans != nullptr) spans->End(span);
      int64_t t1 = NowNs();
      out->last_ns = t1;
      if (!acked.ok() || *acked != rows.size()) {
        ++out->write_errors;
        if (out->first_error.empty()) {
          out->first_error = acked.ok() ? "short insert ack"
                                        : acked.status().ToString();
        }
        continue;
      }
      out->rows_acked += *acked;
      out->write_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      continue;
    }
    RequestSpec spec = stream->Next();
    request.sql = RenderSql(spec);
    int64_t t0 = NowNs();
    size_t span =
        spans == nullptr ? 0 : spans->Begin("net.client_query", request_id);
    beas::Result<QueryResponse> resp = conn->client.Query(request);
    if (spans != nullptr) spans->End(span);
    int64_t t1 = NowNs();
    out->last_ns = t1;
    if (!resp.ok()) {
      ++out->read_errors;
      if (out->first_error.empty()) out->first_error = resp.status().ToString();
      continue;
    }
    out->read_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    out->read_done_s.push_back(static_cast<double>(t1 - start_ns) / 1e9);
    out->reads.push_back(
        ReadRecord{spec, Digest(resp->result.rows)});
  }
}

struct PhaseResult {
  std::vector<PhaseOutput> conns;
  double seconds = 0;  ///< first send to last completion
  WindowedSummary windows;  ///< reads in one-second windows
};

PhaseResult RunPhase(const Workload& w, const Args& args, uint64_t stream_id,
                     double seconds, std::vector<Connection>* conns,
                     std::vector<SpanRecorder>* spans) {
  PhaseResult result;
  result.conns.resize(conns->size());
  std::vector<RequestStream> streams;
  for (size_t c = 0; c < conns->size(); ++c) {
    streams.emplace_back(w.kind, args.seed, stream_id + c);
  }
  std::atomic<bool> go{false};
  std::atomic<int64_t> start_ns{0};
  std::atomic<int64_t> until_ns{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns->size(); ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      RunLoop(w, c, conns->size(), &(*conns)[c], &streams[c],
              start_ns.load(), until_ns.load(),
              spans == nullptr ? nullptr : &(*spans)[c], &result.conns[c]);
    });
  }
  int64_t start = NowNs();
  start_ns.store(start);
  until_ns.store(start + static_cast<int64_t>(seconds * 1e9));
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  int64_t last = start;
  for (const PhaseOutput& o : result.conns) last = std::max(last, o.last_ns);
  result.seconds = static_cast<double>(last - start) / 1e9;
  std::vector<double> done_s, latency_ms;
  for (const PhaseOutput& o : result.conns) {
    done_s.insert(done_s.end(), o.read_done_s.begin(), o.read_done_s.end());
    latency_ms.insert(latency_ms.end(), o.read_ms.begin(), o.read_ms.end());
  }
  // Whole windows of about kWindowSeconds that tile the phase.
  size_t windows = static_cast<size_t>(
      std::max(1.0, std::round(seconds / kWindowSeconds)));
  result.windows = SummarizeWindows(done_s, latency_ms,
                                    seconds / static_cast<double>(windows),
                                    windows);
  return result;
}

// ---------------------------------------------------------------------------
// Counters: deltas of the service's public stats getters.
// ---------------------------------------------------------------------------

struct Counters {
  beas::ResultCacheStats result_cache;
  beas::PlanCacheStats plan_cache;
  uint64_t canonicalizations = 0;
  beas::durability::DurabilityCounters durability;
  uint64_t net_requests = 0;
  uint64_t net_bytes_out = 0;

  static Counters Sample(BeasService* svc) {
    Counters c;
    c.result_cache = svc->result_cache_stats();
    c.plan_cache = svc->cache_stats();
    c.canonicalizations = svc->template_canonicalizations();
    c.durability = svc->durability_counters();
    c.net_requests = svc->net_gauges()->requests_total.load();
    c.net_bytes_out = svc->net_gauges()->bytes_out_total.load();
    return c;
  }
};

/// Counter deltas summed over the timed phases of every round.
struct Deltas {
  double rc_hits = 0, rc_misses = 0, rc_evictions = 0, rc_invalidations = 0;
  double pc_hits = 0, pc_misses = 0, canonicalizations = 0;
  double fsyncs = 0, groups = 0, wal_bytes = 0;
  double net_requests = 0, net_bytes_out = 0;
  size_t rc_bytes = 0;  ///< resident after the last timed phase

  void Add(const Counters& before, const Counters& after) {
    auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
    rc_hits += d(after.result_cache.hits, before.result_cache.hits);
    rc_misses += d(after.result_cache.misses, before.result_cache.misses);
    rc_evictions += d(after.result_cache.evictions, before.result_cache.evictions);
    rc_invalidations += d(after.result_cache.invalidations,
                          before.result_cache.invalidations);
    pc_hits += d(after.plan_cache.hits, before.plan_cache.hits);
    pc_misses += d(after.plan_cache.misses, before.plan_cache.misses);
    canonicalizations += d(after.canonicalizations, before.canonicalizations);
    fsyncs += d(after.durability.wal_fsyncs_total,
                before.durability.wal_fsyncs_total);
    groups += d(after.durability.wal_group_commits_total,
                before.durability.wal_group_commits_total);
    wal_bytes += d(after.durability.wal_bytes_total,
                   before.durability.wal_bytes_total);
    net_requests += d(after.net_requests, before.net_requests);
    net_bytes_out += d(after.net_bytes_out, before.net_bytes_out);
    rc_bytes = after.result_cache.bytes;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Correctness gate.
// ---------------------------------------------------------------------------

RequestSpec Forward(RequestSpec spec) {
  spec.reversed = 0;
  return spec;
}

/// Reference answers for every distinct request: the paper's pipeline run
/// in-process through BeasSession (parse, bind, check, execute) with no
/// plan cache, no result cache and no canonicalization, on the forward
/// spelling. Runs on `threads` threads under shared read scopes.
bool ComputeReferences(BeasService* svc,
                       const std::vector<RequestSpec>& specs, size_t threads,
                       std::vector<BagDigest>* digests, std::string* error) {
  digests->assign(specs.size(), BagDigest{});
  std::atomic<size_t> next{0};
  std::atomic<bool> ok{true};
  std::string first_error;
  std::mutex error_mutex;
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < specs.size();
           i = next.fetch_add(1)) {
        beas::BeasSession::ExecutionDecision decision;
        beas::Result<beas::QueryResult> res = [&] {
          beas::Database::ReadScope lock(svc->db());
          return svc->session().Execute(RenderSql(specs[i]), &decision);
        }();
        if (!res.ok() || decision.mode !=
                             beas::BeasSession::ExecutionDecision::Mode::kBounded) {
          ok.store(false);
          std::lock_guard<std::mutex> guard(error_mutex);
          if (first_error.empty()) {
            first_error = RenderSql(specs[i]) + ": " +
                          (res.ok() ? "not answered boundedly"
                                    : res.status().ToString());
          }
          continue;
        }
        (*digests)[i] = Digest(res->rows);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (!ok.load()) *error = first_error;
  return ok.load();
}

struct Verdict {
  bool ok = true;
  std::vector<std::string> failures;
  void Fail(const std::string& why) {
    ok = false;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// Checks every recorded wire answer against the reference and, with
/// `cross_check`, one instance per template against the conventional
/// engine.
void VerifyAnswers(BeasService* svc, const std::vector<ReadRecord>& reads,
                   bool cross_check, Verdict* verdict, size_t* distinct_out) {
  std::unordered_map<uint64_t, size_t> slot;
  std::vector<RequestSpec> specs;
  for (const ReadRecord& r : reads) {
    if (slot.emplace(r.spec.AnswerKey(), specs.size()).second) {
      specs.push_back(Forward(r.spec));
    }
  }
  *distinct_out = specs.size();
  std::vector<BagDigest> ref;
  std::string error;
  size_t threads =
      std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  if (!ComputeReferences(svc, specs, threads, &ref, &error)) {
    verdict->Fail("reference evaluation failed: " + error);
    return;
  }
  size_t wrong = 0;
  for (const ReadRecord& r : reads) {
    const BagDigest& expect = ref[slot[r.spec.AnswerKey()]];
    if (r.digest != expect) {
      if (++wrong <= 3) {
        verdict->Fail("wrong answer (" + std::to_string(r.digest.rows) +
                      " rows, expected " + std::to_string(expect.rows) +
                      "): " + RenderSql(r.spec));
      }
    }
  }
  if (wrong > 3) {
    verdict->Fail(std::to_string(wrong) + " wrong answers in total");
  }
  if (!cross_check) return;

  // Conventional cross-check: the first non-empty instance per template
  // (else the first), via Database::Query — independent of the bounded
  // planner, executor and canonicalizer.
  for (uint8_t t = 0; t < kNumTemplates; ++t) {
    const RequestSpec* pick = nullptr;
    for (const RequestSpec& s : specs) {
      if (s.tmpl != t) continue;
      if (pick == nullptr) pick = &s;
      if (ref[slot[s.AnswerKey()]].rows > 0) {
        pick = &s;
        break;
      }
    }
    if (pick == nullptr) continue;
    std::string sql = RenderSql(*pick);
    beas::Result<beas::QueryResult> conventional = svc->db()->Query(sql);
    beas::Result<beas::QueryResult> bounded = [&] {
      beas::Database::ReadScope lock(svc->db());
      return svc->session().Execute(sql);
    }();
    if (!conventional.ok() || !bounded.ok()) {
      verdict->Fail("cross-check could not run: " + sql);
      continue;
    }
    bool agrees = SortedBag(conventional->rows) == SortedBag(bounded->rows);
    if (!agrees) {
      verdict->Fail("bounded answer differs from the conventional engine: " +
                    sql);
    }
    std::printf("  cross-check %-3s %4zu rows, conventional engine %s\n",
                TemplateName(t), conventional->rows.size(),
                agrees ? "agrees" : "DIFFERS");
  }
}

// ---------------------------------------------------------------------------
// The traced replay: one request at a time, spans around each layer call.
// ---------------------------------------------------------------------------

struct LayerSamples {
  std::vector<double> service_hit_us, service_miss_us;
  std::vector<double> wire_us, service_us;
  std::vector<double> codec_us, mask_us, canonicalize_us;
  std::vector<double> bind_us, check_us, fetch_us, execute_us, tail_us;
  std::vector<double> apply_us, ack_us;
  double tuples_fetched = 0, keys_probed = 0, rows_out = 0;
  size_t executions = 0;
  double probe_ns_per_key = 0;
  size_t probe_keys = 0, probe_hits = 0;
  uint64_t rows_written = 0;
};

/// Per-template state compiled once, like the service's plan cache.
struct TemplateState {
  bool compiled_ok = false;
  beas::CompiledPlan compiled;
};

class Replay {
 public:
  Replay(const Workload& w, const Args& args, Deployment* dep,
         beas::net::Client* client, SpanRecorder* spans)
      : w_(w),
        args_(args),
        dep_(dep),
        client_(client),
        spans_(spans),
        executor_(dep->svc->catalog()),
        pool_(beas::ServiceOptions{}.num_workers) {}

  /// Replays the sample; wire answers go to `reads` for verification.
  Status Run(std::vector<ReadRecord>* reads, LayerSamples* out) {
    RequestStream stream(w_.kind, args_.seed, kReplayStream);
    Rng probe_rng(StreamSeed(args_.seed, kProbeStream));
    uint64_t write_index = kReplayWriteBase;
    for (size_t i = 0; i < kReplaySamples; ++i) {
      uint64_t id = next_id_++;
      if (w_.reads_per_write > 0 && i % (w_.reads_per_write + 1) ==
                                        w_.reads_per_write) {
        BEAS_RETURN_NOT_OK(DurableWrite(id, write_index++, out));
        continue;
      }
      RequestSpec in_process = stream.Next();
      RequestSpec wire = stream.Next();
      BEAS_RETURN_NOT_OK(ServiceQuery(id, in_process, out, true));
      BEAS_RETURN_NOT_OK(Layers(id, in_process, out));
      BEAS_RETURN_NOT_OK(WireQuery(id, wire, reads, out));
    }
    // Both service paths on every workload: an unseen uniform draw is a
    // miss, and the same request again right after is a hit.
    for (size_t i = 0;
         i < kReplaySamples && (out->service_miss_us.size() < kReplaySamples / 4 ||
                                out->service_hit_us.size() < kReplaySamples / 4);
         ++i) {
      RequestSpec fresh = DrawUniform(&probe_rng);
      BEAS_RETURN_NOT_OK(ServiceQuery(next_id_++, fresh, out, false));
      BEAS_RETURN_NOT_OK(ServiceQuery(next_id_++, fresh, out, false));
    }
    AcProbes(out);
    // Write probes last, so no read above saw their invalidations.
    for (size_t i = 0; i < kWriteProbes; ++i) {
      BEAS_RETURN_NOT_OK(DurableWrite(next_id_++, write_index++, out));
      std::vector<Row> rows = MakeWriteRows(write_index++);
      size_t n = rows.size();
      Status st;
      out->apply_us.push_back(TimedSpan(spans_, "storage.apply", next_id_++, [&] {
        st = dep_->svc->db()->InsertBatch("call", std::move(rows));
      }));
      BEAS_RETURN_NOT_OK(st);
      out->rows_written += n;
    }
    return Status::OK();
  }

 private:
  Status DurableWrite(uint64_t id, uint64_t index, LayerSamples* out) {
    std::vector<Row> rows = MakeWriteRows(index);
    size_t n = rows.size();
    Status st;
    out->ack_us.push_back(TimedSpan(spans_, "durability.insert_batch", id, [&] {
      st = dep_->svc->InsertBatch("call", std::move(rows));
    }));
    BEAS_RETURN_NOT_OK(st);
    out->rows_written += n;
    return Status::OK();
  }

  /// BeasService::Query in-process; sorted into hit/miss by the answer's
  /// own flag. `mix` samples also feed the wire-overhead comparison.
  Status ServiceQuery(uint64_t id, const RequestSpec& spec, LayerSamples* out,
                      bool mix) {
    QueryRequest request;
    request.sql = RenderSql(spec);
    beas::Result<QueryResponse> resp = Status::OK();
    ScopedSpan root(spans_, "replay.request", id);
    double us = TimedSpan(spans_, "service.query", id,
                          [&] { resp = dep_->svc->Query(request); });
    BEAS_RETURN_NOT_OK(resp.status());
    (resp->result_cache_hit ? out->service_hit_us : out->service_miss_us)
        .push_back(us);
    if (mix) out->service_us.push_back(us);
    return Status::OK();
  }

  /// The layers under the service, called directly on the same request.
  Status Layers(uint64_t id, const RequestSpec& spec, LayerSamples* out) {
    ScopedSpan root(spans_, "replay.layers", id);
    std::string sql = RenderSql(spec);
    beas::Result<beas::SqlTemplate> masked = Status::OK();
    out->mask_us.push_back(TimedSpan(spans_, "sql.mask", id, [&] {
      masked = beas::MaskSqlLiterals(sql);
    }));
    BEAS_RETURN_NOT_OK(masked.status());
    out->canonicalize_us.push_back(TimedSpan(spans_, "sql.canonicalize", id, [&] {
      beas::CanonicalizedTemplate canon = beas::CanonicalizeTemplate(*masked);
      if (canon.changed) {
        beas::Result<std::string> rendered = beas::RenderTemplate(canon.tmpl);
        if (rendered.ok()) (void)beas::MaskSqlLiterals(*rendered);
      }
    }));

    BeasService* svc = dep_->svc.get();
    beas::Database::ReadScope lock(svc->db());
    beas::Result<beas::BoundQuery> query = Status::OK();
    out->bind_us.push_back(TimedSpan(spans_, "binder.bind", id, [&] {
      query = svc->db()->Bind(sql);
    }));
    BEAS_RETURN_NOT_OK(query.status());
    beas::Result<beas::CoverageResult> coverage = Status::OK();
    out->check_us.push_back(TimedSpan(spans_, "bounded.check", id, [&] {
      coverage = svc->session().Check(*query);
    }));
    BEAS_RETURN_NOT_OK(coverage.status());
    if (!coverage->covered) {
      return Status::Internal("template not covered: " + sql);
    }
    const beas::BoundedPlan& plan = coverage->plan;
    TemplateState& tmpl = templates_[spec.tmpl];
    if (!tmpl.compiled_ok) {
      beas::Result<beas::CompiledPlan> compiled =
          beas::CompileBoundedPlan(*query, plan, *svc->catalog());
      BEAS_RETURN_NOT_OK(compiled.status());
      tmpl.compiled = std::move(*compiled);
      tmpl.compiled_ok = true;
    }
    beas::BoundedExecOptions options;
    options.collect_stats = false;
    options.compiled = &tmpl.compiled;
    options.probe_pool = &pool_;
    beas::Result<beas::BoundedExecutor::Fragment> fragment = Status::OK();
    double fetch = TimedSpan(spans_, "bounded.fetch_chain", id, [&] {
      fragment = executor_.ExecuteFragment(*query, plan, options);
    });
    BEAS_RETURN_NOT_OK(fragment.status());
    beas::BoundedExecStats stats;
    beas::Result<beas::QueryResult> result = Status::OK();
    double execute = TimedSpan(spans_, "bounded.execute", id, [&] {
      result = executor_.Execute(*query, plan, options, &stats);
    });
    BEAS_RETURN_NOT_OK(result.status());
    out->fetch_us.push_back(fetch);
    out->execute_us.push_back(execute);
    // ExecuteFragment also materializes T as rows, which Execute skips, so
    // this difference is negative when the tail is cheaper than that.
    out->tail_us.push_back(execute - fetch);
    out->tuples_fetched += static_cast<double>(stats.tuples_fetched);
    out->keys_probed += static_cast<double>(stats.keys_probed);
    out->rows_out += static_cast<double>(result->rows.size());
    out->executions += 1;
    CollectFirstStepKeys(plan);
    return Status::OK();
  }

  Status WireQuery(uint64_t id, const RequestSpec& spec,
                   std::vector<ReadRecord>* reads, LayerSamples* out) {
    QueryRequest request;
    request.sql = RenderSql(spec);
    beas::Result<QueryResponse> resp = Status::OK();
    ScopedSpan root(spans_, "replay.request", id);
    out->wire_us.push_back(TimedSpan(spans_, "net.client_query", id, [&] {
      resp = client_->Query(request);
    }));
    BEAS_RETURN_NOT_OK(resp.status());
    reads->push_back(
        ReadRecord{spec, Digest(resp->result.rows)});
    // The four codec calls one round trip makes, on this request and its
    // answer.
    Status codec_status;
    out->codec_us.push_back(TimedSpan(spans_, "net.codec", id, [&] {
      std::string req_frame = beas::net::EncodeQueryRequestFrame(7, request);
      beas::Result<QueryRequest> decoded = beas::net::DecodeQueryRequest(
          reinterpret_cast<const uint8_t*>(req_frame.data()) +
              beas::net::kFrameHeaderSize,
          req_frame.size() - beas::net::kFrameHeaderSize);
      beas::net::WireResponse wire;
      wire.response = std::move(*resp);
      std::string resp_frame = beas::net::EncodeResponseFrame(7, wire);
      beas::Result<beas::net::WireResponse> back = beas::net::DecodeResponse(
          reinterpret_cast<const uint8_t*>(resp_frame.data()) +
              beas::net::kFrameHeaderSize,
          resp_frame.size() - beas::net::kFrameHeaderSize);
      if (!decoded.ok()) codec_status = decoded.status();
      if (!back.ok()) codec_status = back.status();
    }));
    return codec_status;
  }

  /// The first fetch step's constant keys (the cartesian product of its
  /// constant and IN-list key sources), grouped by access constraint.
  void CollectFirstStepKeys(const beas::BoundedPlan& plan) {
    if (plan.steps.empty()) return;
    const beas::FetchStep& step = plan.steps.front();
    std::vector<beas::ValueVec> keys(1);
    for (const beas::KeySource& src : step.key_sources) {
      std::vector<beas::Value> choices;
      if (src.kind == beas::KeySource::Kind::kConstant) {
        choices.push_back(src.constant);
      } else if (src.kind == beas::KeySource::Kind::kConstantList) {
        choices = src.list;
      } else {
        return;  // keyed from T: not a first-step constant probe
      }
      std::vector<beas::ValueVec> next;
      for (const beas::ValueVec& prefix : keys) {
        for (const beas::Value& v : choices) {
          next.push_back(prefix);
          next.back().push_back(v);
        }
      }
      keys = std::move(next);
    }
    std::vector<beas::ValueVec>& group = probe_keys_[step.constraint.name];
    group.insert(group.end(), keys.begin(), keys.end());
  }

  /// AcIndex::LookupBatch over the collected keys, repeated until the
  /// timing is long enough to read.
  void AcProbes(LayerSamples* out) {
    BeasService* svc = dep_->svc.get();
    beas::Database::ReadScope lock(svc->db());
    int64_t total_ns = 0;
    size_t total_keys = 0;
    for (const auto& group : probe_keys_) {
      const beas::AcIndex* index = svc->catalog()->IndexFor(group.first);
      if (index == nullptr || group.second.empty()) continue;
      std::vector<beas::AcIndex::BucketView> buckets(group.second.size());
      size_t rounds = 0;
      int64_t spent = 0;
      while (spent < 2000000 || rounds < 3) {
        spent += static_cast<int64_t>(
            1e3 * TimedSpan(spans_, "asx.lookup_batch", next_id_++, [&] {
              index->LookupBatch(group.second.data(), group.second.size(),
                                 buckets.data());
            }));
        ++rounds;
      }
      total_ns += spent;
      total_keys += rounds * group.second.size();
      out->probe_keys += group.second.size();
      for (const auto& b : buckets) out->probe_hits += b.size() > 0 ? 1 : 0;
    }
    out->probe_ns_per_key =
        Ratio(static_cast<double>(total_ns), static_cast<double>(total_keys));
  }

  const Workload& w_;
  const Args& args_;
  Deployment* dep_;
  beas::net::Client* client_;
  SpanRecorder* spans_;
  beas::BoundedExecutor executor_;
  beas::TaskPool pool_;  ///< like the service's probe fan-out pool
  TemplateState templates_[kNumTemplates];
  std::map<std::string, std::vector<beas::ValueVec>> probe_keys_;
  uint64_t next_id_ = 1ull << 56;
};

// ---------------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintLatency(const char* what, const LatencySummary& s) {
  if (s.p99_supported) {
    std::printf("  %-22s p50 %.4f ms  p99 %.4f ms  (n=%zu)\n", what, s.p50,
                s.p99, s.count);
  } else {
    std::printf("  %-22s p50 %.4f ms  p99 n/a: fewer than %zu samples beyond "
                "it  (n=%zu)\n",
                what, s.p50, kMinSamplesBeyond, s.count);
  }
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    out += buf;
  }
  return out + "}";
}

struct PhaseTotals {
  std::vector<double> read_ms, write_ms;
  uint64_t reads = 0, writes = 0, read_errors = 0, write_errors = 0;
  uint64_t rows_acked = 0;
  double seconds = 0;
  std::string first_error;
};

PhaseTotals Totals(const std::vector<PhaseResult>& phases) {
  PhaseTotals t;
  for (const PhaseResult& phase : phases) {
    t.seconds += phase.seconds;
    for (const PhaseOutput& o : phase.conns) {
      t.read_ms.insert(t.read_ms.end(), o.read_ms.begin(), o.read_ms.end());
      t.write_ms.insert(t.write_ms.end(), o.write_ms.begin(), o.write_ms.end());
      t.reads += o.read_ms.size() + o.read_errors;
      t.writes += o.write_ms.size() + o.write_errors;
      t.read_errors += o.read_errors;
      t.write_errors += o.write_errors;
      t.rows_acked += o.rows_acked;
      if (t.first_error.empty()) t.first_error = o.first_error;
    }
  }
  return t;
}

void Append(std::vector<ReadRecord>* all, const PhaseResult& phase) {
  for (const PhaseOutput& o : phase.conns) {
    all->insert(all->end(), o.reads.begin(), o.reads.end());
  }
}

uint64_t RowsAcked(const PhaseResult& phase) {
  uint64_t rows = 0;
  for (const PhaseOutput& o : phase.conns) rows += o.rows_acked;
  return rows;
}

/// Fills the plan cache with every template in both spellings, then runs
/// the workload untimed for kWarmupSeconds.
Status WarmUp(const Workload& w, const Args& args, uint64_t stream,
              std::vector<Connection>* conns, PhaseResult* out) {
  for (uint8_t t = 0; t < kNumTemplates; ++t) {
    for (uint8_t rev = 0; rev < 2; ++rev) {
      RequestSpec spec;
      spec.tmpl = t;
      spec.reversed = rev;
      QueryRequest request;
      request.sql = RenderSql(spec);
      BEAS_RETURN_NOT_OK((*conns)[0].client.Query(request).status());
    }
  }
  *out = RunPhase(w, args, stream, kWarmupSeconds, conns, nullptr);
  return Status::OK();
}

/// What the rounds of a run add up to.
struct RunState {
  std::vector<double> setup_s;
  std::vector<PhaseResult> plain;   ///< untraced timed phases
  std::vector<PhaseResult> traced;  ///< timed phases with wire spans
  std::vector<SpanRecorder> wire_spans =
      std::vector<SpanRecorder>(kConnections);
  SpanRecorder replay_spans;
  LayerSamples layers;
  Deltas deltas;
  Verdict verdict;
};

/// One round: deploys, warms up, measures args.seconds / kRounds (a traced
/// run splits that into an untraced and a traced half; the difference is
/// the tracing overhead), replays the traced sample in the last round,
/// checks every answer of the round and tears the deployment down.
/// Returns false when the run cannot go on.
bool RunRound(const Workload& w, const Args& args, int k,
              const std::string& wal_dir, RunState* run) {
  const bool last = k + 1 == kRounds;
  const uint64_t offset = static_cast<uint64_t>(k) * kRoundStreams;
  Deployment dep;
  int64_t t0 = NowNs();
  Status st = Deploy(w, wal_dir, &dep);
  run->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  if (!st.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", st.ToString().c_str());
    return false;
  }
  if (k == 0) {
    PrintFingerprint(args, w, dep.wal_dir.empty() ? args.out_dir : dep.wal_dir);
    std::printf("correctness:\n");
  }
  BeasService* svc = dep.svc.get();
  std::vector<Connection> conns(kConnections);
  for (Connection& c : conns) {
    st = c.client.Connect("127.0.0.1", dep.server->port());
    if (!st.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", st.ToString().c_str());
      return false;
    }
  }

  PhaseResult warmup;
  st = WarmUp(w, args, kWarmupStream + offset, &conns, &warmup);
  if (!st.ok()) {
    std::fprintf(stderr, "warm-up failed: %s\n", st.ToString().c_str());
    return false;
  }
  std::vector<ReadRecord> reads;
  Append(&reads, warmup);
  uint64_t rows_acked = RowsAcked(warmup);

  const double seconds = args.seconds / kRounds;
  Counters before = Counters::Sample(svc);
  run->plain.push_back(RunPhase(w, args, kTimedStream + offset,
                                args.trace ? seconds / 2 : seconds, &conns,
                                nullptr));
  Append(&reads, run->plain.back());
  rows_acked += RowsAcked(run->plain.back());
  if (args.trace) {
    run->traced.push_back(
        RunPhase(w, args, kTimedStream + offset + kTracedStreamOffset,
                 seconds / 2, &conns, &run->wire_spans));
    Append(&reads, run->traced.back());
    rows_acked += RowsAcked(run->traced.back());
  }
  run->deltas.Add(before, Counters::Sample(svc));

  // The traced replay (per-layer numbers), before the correctness gate
  // turns the caches off.
  uint64_t rows_replayed = 0;
  if (args.trace && last) {
    Replay replay(w, args, &dep, &conns[0].client, &run->replay_spans);
    st = replay.Run(&reads, &run->layers);
    if (!st.ok()) {
      std::fprintf(stderr, "replay failed: %s\n", st.ToString().c_str());
      return false;
    }
    rows_replayed = run->layers.rows_written;
  }

  // The correctness gate; the conventional cross-check once per run.
  svc->set_cache_enabled(false);
  svc->set_result_cache_enabled(false);
  size_t distinct = 0;
  int64_t v0 = NowNs();
  VerifyAnswers(svc, reads, last, &run->verdict, &distinct);
  std::printf("  deployment %d: %zu wire answers (%zu distinct requests) "
              "checked against the cache-free in-process reference in "
              "%.2f s\n",
              k + 1, reads.size(), distinct,
              static_cast<double>(NowNs() - v0) / 1e9);
  if (w.reads_per_write > 0 || rows_replayed > 0) {
    beas::Result<beas::QueryResult> count =
        svc->db()->Query(WrittenRowsCountSql());
    uint64_t expected = rows_acked + rows_replayed;
    if (!count.ok() || count->rows.size() != 1 ||
        count->rows[0][0].AsInt64() != static_cast<int64_t>(expected)) {
      run->verdict.Fail("rows on the write dates differ from rows acked (" +
                        std::to_string(expected) + ")");
    } else {
      std::printf("  deployment %d: rows on the write dates: %llu = rows "
                  "acked\n",
                  k + 1, static_cast<unsigned long long>(expected));
    }
  }
  for (Connection& c : conns) c.client.Close();
  return true;
}

int Run(const Args& args) {
  const Workload* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string wal_root = args.out_dir + "/wal-" + w.name + "-" +
                               std::to_string(::getpid());
  std::printf("== tlcbench %s (seed %llu, %s) ==\n", w.name,
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");

  RunState run;
  for (int k = 0; k < kRounds; ++k) {
    if (!RunRound(w, args, k, wal_root + "-" + std::to_string(k), &run)) {
      return 2;
    }
  }
  double peak_rss_mb = PeakRssMb();
  Verdict& verdict = run.verdict;
  const LayerSamples& layers = run.layers;

  // --- End-to-end metrics.
  std::vector<PhaseResult> all_timed = run.plain;
  all_timed.insert(all_timed.end(), run.traced.begin(), run.traced.end());
  PhaseTotals timed = Totals(all_timed);
  uint64_t attempted = timed.reads + timed.writes;
  uint64_t failed = timed.read_errors + timed.write_errors;
  double error_ratio = Ratio(static_cast<double>(failed),
                             static_cast<double>(attempted));
  LatencySummary read_lat = Summarize(timed.read_ms);
  LatencySummary write_lat = Summarize(timed.write_ms);
  // The rate is the median over the windows of every round's untraced
  // timed phase, and p50 is over every read. The p99 is the lowest of the
  // rounds' p99s: interference from the shared host only ever adds
  // latency, and it moves the tail most (a hot-key run with 3-5% steal
  // read a p99 four times a quiet run's), while a slower program raises
  // the p99 of every round.
  std::vector<WindowedSummary> parts;
  double read_p99 = 0;
  for (const PhaseResult& p : run.plain) {
    parts.push_back(p.windows);
    std::vector<double> round_ms;
    for (const PhaseOutput& o : p.conns) {
      round_ms.insert(round_ms.end(), o.read_ms.begin(), o.read_ms.end());
    }
    double p99 = Summarize(std::move(round_ms)).p99;
    if (parts.size() == 1 || p99 < read_p99) read_p99 = p99;
  }
  WindowedSummary windows = PoolWindows(parts);
  double read_qps = windows.median_rate;
  double setup_median = Median(run.setup_s);
  if (error_ratio > 0) {
    verdict.Fail("error_ratio " + std::to_string(error_ratio) + ": " +
                 timed.first_error);
  }
  if (!windows.p99_supported) {
    verdict.Fail("too few reads for a p99 in some window (n=" +
                 std::to_string(windows.min_window_count) + ")");
  }

  std::printf("end-to-end (%.3f s measured):\n", timed.seconds);
  std::printf("  read_qps               %.1f 1/s  (median of %zu windows; "
              "overall %zu reads in %.3f s)\n",
              read_qps, windows.windows, read_lat.count, timed.seconds);
  std::printf("  read_p99_ms            %.4f ms  (lowest of %zu deployments' "
              "p99; median of the windows' p99 %.4f, smallest window n=%zu)\n",
              read_p99, parts.size(), windows.median_p99,
              windows.min_window_count);
  std::printf("  per window             ");
  for (size_t i = 0; i < windows.windows; ++i) {
    std::printf(" %.0f/%.3f", windows.rates[i], windows.p99s[i]);
  }
  std::printf("  (1/s / p99 ms)\n");
  PrintLatency("read round trip", read_lat);
  if (w.reads_per_write > 0) {
    std::printf("  write_rows_per_s       %.1f rows/s  (%llu rows in %zu "
                "writes)\n",
                Ratio(static_cast<double>(timed.rows_acked), timed.seconds),
                static_cast<unsigned long long>(timed.rows_acked),
                write_lat.count);
    PrintLatency("write round trip", write_lat);
  } else {
    std::printf("  write_*                n/a (read-only workload)\n");
  }
  std::printf("  error_ratio            %.6f  (%llu of %llu operations)\n",
              error_ratio, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("  setup_s                %.4f s  (median of %zu: generate, "
              "index, %sserver start)\n",
              setup_median, run.setup_s.size(),
              w.durable ? "durable open, " : "");
  std::printf("  peak_rss_mb            %.1f MB\n", peak_rss_mb);

  // --- Counter deltas and the workload self-checks.
  const Deltas& d = run.deltas;
  double reads_d = static_cast<double>(timed.reads);
  double writes_d = static_cast<double>(timed.writes);
  double rc_hits = d.rc_hits;
  double rc_misses = d.rc_misses;
  double rc_hit_ratio = Ratio(rc_hits, rc_hits + rc_misses);
  double rc_evictions = d.rc_evictions;
  double rc_invalidations = d.rc_invalidations;
  double pc_hits = d.pc_hits;
  double pc_misses = d.pc_misses;
  double pc_hit_ratio = Ratio(pc_hits, pc_hits + pc_misses);
  double rewritten_ratio = Ratio(d.canonicalizations, reads_d);
  double fsyncs = d.fsyncs;
  double groups = d.groups;
  double wal_bytes = d.wal_bytes;
  double rows_d = static_cast<double>(timed.rows_acked);
  double response_bytes = Ratio(d.net_bytes_out, d.net_requests);

  std::printf("layer mix (timed phase):\n");
  std::printf("  result cache hit ratio %.4f (%.0f hits, %.0f misses)\n",
              rc_hit_ratio, rc_hits, rc_misses);
  std::printf("  plan cache hit ratio   %.4f (%.0f hits, %.0f misses)\n",
              pc_hit_ratio, pc_hits, pc_misses);
  std::printf("  rewritten canonically  %.4f of %.0f reads\n", rewritten_ratio,
              reads_d);
  std::printf("  result cache: %.0f evictions, %.0f invalidations, %zu bytes "
              "resident\n",
              rc_evictions, rc_invalidations, d.rc_bytes);
  if (w.durable) {
    std::printf("  WAL: %.0f fsyncs, %.0f group commits, %.0f bytes for %.0f "
                "rows\n",
                fsyncs, groups, wal_bytes, rows_d);
  }
  auto self_check = [&](bool pass, const std::string& what) {
    std::printf("  self-check %-44s %s\n", what.c_str(), pass ? "ok" : "FAILED");
    if (!pass) verdict.Fail("workload self-check failed: " + what);
  };
  if (std::string(w.name) == "tlc_hotkey") {
    self_check(rc_hit_ratio >= 0.9, "result cache hit ratio >= 0.9");
    self_check(rewritten_ratio > 0, "some reads rewritten canonically");
  } else if (std::string(w.name) == "tlc_uniform") {
    self_check(rc_hit_ratio < 0.5, "result cache hit ratio < 0.5");
    self_check(pc_hit_ratio >= 0.99, "plan cache hit ratio >= 0.99");
  } else {
    self_check(rc_invalidations > 0, "writes invalidated cached answers");
    self_check(fsyncs > 0, "group commits fsynced");
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    // Tracing overhead: the traced halves minus the untraced halves.
    PhaseTotals plain = Totals(run.plain);
    PhaseTotals traced = Totals(run.traced);
    LatencySummary plain_lat = Summarize(plain.read_ms);
    LatencySummary traced_lat = Summarize(traced.read_ms);
    std::printf("tracing overhead (traced halves minus untraced halves): read p50 "
                "%+.4f ms (%.4f vs %.4f), read_qps %+.1f 1/s\n",
                traced_lat.p50 - plain_lat.p50, traced_lat.p50, plain_lat.p50,
                Ratio(static_cast<double>(traced_lat.count), traced.seconds) -
                    Ratio(static_cast<double>(plain_lat.count), plain.seconds));

    SpanRecorder all_spans;
    for (const SpanRecorder& r : run.wire_spans) all_spans.Append(r);
    all_spans.Append(run.replay_spans);
    std::string path = args.out_dir + "/spans-" + w.name + "-seed" +
                       std::to_string(args.seed) + ".jsonl";
    if (!all_spans.WriteJsonLines(path)) {
      verdict.Fail("could not write spans to " + path);
    }
    std::printf("per-layer self time (%zu spans written to %s):\n",
                all_spans.spans().size(), path.c_str());
    std::printf("  %-26s %8s %12s %12s\n", "span", "count", "median us",
                "total ms");
    for (const LayerSelfTime& l : AggregateSelfTimes(all_spans)) {
      std::printf("  %-26s %8zu %12.3f %12.3f\n", l.name.c_str(), l.count,
                  l.median_us, l.total_ms);
    }
    std::printf("  asx probes: %zu first-step keys, %zu non-empty buckets\n",
                layers.probe_keys, layers.probe_hits);

    double execs = static_cast<double>(layers.executions);
    metrics = {
        {"net.overhead_us", Median(layers.wire_us) - Median(layers.service_us), "us"},
        {"net.codec_us", Median(layers.codec_us), "us"},
        {"net.response_bytes", response_bytes, "bytes"},
        {"service.hit_us", Median(layers.service_hit_us), "us"},
        {"service.miss_us", Median(layers.service_miss_us), "us"},
        {"result_cache.hit_ratio", rc_hit_ratio, "ratio"},
        {"result_cache.evictions_per_kread", 1000 * Ratio(rc_evictions, reads_d), "count"},
        {"result_cache.invalidations_per_write", Ratio(rc_invalidations, writes_d), "count"},
        {"result_cache.bytes", static_cast<double>(d.rc_bytes), "bytes"},
        {"plan_cache.hit_ratio", pc_hit_ratio, "ratio"},
        {"sql.mask_us", Median(layers.mask_us), "us"},
        {"sql.canonicalize_us", Median(layers.canonicalize_us), "us"},
        {"sql.rewritten_ratio", rewritten_ratio, "ratio"},
        {"binder.bind_us", Median(layers.bind_us), "us"},
        {"bounded.check_us", Median(layers.check_us), "us"},
        {"bounded.fetch_chain_us", Median(layers.fetch_us), "us"},
        {"bounded.execute_us", Median(layers.execute_us), "us"},
        {"bounded.tail_us", Median(layers.tail_us), "us"},
        {"bounded.tuples_fetched_per_read", Ratio(layers.tuples_fetched, execs), "count"},
        {"bounded.keys_probed_per_read", Ratio(layers.keys_probed, execs), "count"},
        {"bounded.rows_out_per_tuple", Ratio(layers.rows_out, layers.tuples_fetched), "ratio"},
        {"asx.probe_ns_per_key", layers.probe_ns_per_key, "ns"},
        {"storage.apply_us", Median(layers.apply_us), "us"},
        {"durability.ack_us", Median(layers.ack_us), "us"},
        {"durability.fsyncs_per_write", Ratio(fsyncs, writes_d), "count"},
        {"durability.rows_per_group", Ratio(rows_d, groups), "count"},
        {"durability.wal_bytes_per_row", Ratio(wal_bytes, rows_d), "bytes"},
    };
    std::printf("per-layer metrics:\n");
    for (const Metric& m : metrics) {
      std::printf("  %-38s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
    }
  } else {
    metrics = {
        {"read_qps", read_qps, "1/s"},
        {"read_p50_ms", read_lat.p50, "ms"},
        {"read_p99_ms", read_p99, "ms"},
        {"setup_s", setup_median, "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  }

  if (!verdict.ok) {
    std::printf("FAILED:\n");
    for (const std::string& f : verdict.failures) {
      std::printf("  %s\n", f.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              verdict.ok ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              JsonMetrics(metrics).c_str());
  std::fflush(stdout);
  return verdict.ok ? 0 : 1;
}

}  // namespace
}  // namespace tlcbench

int main(int argc, char** argv) {
  tlcbench::Args args;
  if (!tlcbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tlcbench --workload tlc_uniform|tlc_hotkey|cdr_ingest "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  return tlcbench::Run(args);
}
