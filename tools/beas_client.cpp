// beas_client: CLI for the BEAS wire protocol, plus the loopback selftest
// storm (the beas_client_selftest ctest, which the CI matrix runs under
// every build type, sanitizers included).
//
//   beas_client --port 7687 "SELECT call.region FROM call WHERE ..."
//   beas_client --port 7687 --mode check "SELECT ..."
//   beas_client --port 7687 --ping
//   beas_client --selftest          # in-process server + multi-client storm
//
// The selftest is the acceptance harness for the network front door: it
// boots a BeasService with an underprovisioned tenant, serves it on an
// ephemeral loopback port, and drives 8 concurrent connections of mixed
// reads (two spellings of one template) and writes across two tenants —
// verifying bit-identical answers against the in-process reference, typed
// errors for the over-budget tenant, and live wire gauges. Exits non-zero
// on any violation. ctest runs it as beas_client_selftest.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "net/client.h"
#include "net/server.h"
#include "service/beas_service.h"
#include "types/value.h"

namespace {

using beas::AccessConstraint;
using beas::BeasService;
using beas::QueryMode;
using beas::QueryRequest;
using beas::QueryResponse;
using beas::Result;
using beas::Row;
using beas::Schema;
using beas::ServiceOptions;
using beas::Status;
using beas::StatusCode;
using beas::TypeId;
using beas::Value;

// ---------------------------------------------------------------------------
// Selftest.
// ---------------------------------------------------------------------------

constexpr int kStableKeys = 32;   // keys the storm reads (never written)
constexpr int kFanout = 16;       // rows per key; deduced bound = declared N
constexpr uint64_t kDeclaredBound = 64;

std::vector<Row> SortedRows(std::vector<Row> rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

bool RowsEqual(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      if (!a[i][j].Equals(b[i][j])) return false;
    }
  }
  return true;
}

int RunSelftest() {
  ServiceOptions options;
  options.num_workers = 4;
  // Global pool sized so the storm occasionally degrades; tenant "beta"
  // runs under a tight cap so it also sees typed rejections.
  options.max_inflight_cost = 8 * kDeclaredBound;
  options.tenant_cost_caps["beta"] = kDeclaredBound + kDeclaredBound / 2;
  BeasService service(options);

  if (!service
           .CreateTable("t", Schema({{"k", TypeId::kInt64},
                                     {"v", TypeId::kInt64}}))
           .ok()) {
    std::fprintf(stderr, "selftest: CreateTable failed\n");
    return 1;
  }
  std::vector<Row> seed;
  for (int k = 0; k < kStableKeys; ++k) {
    for (int f = 0; f < kFanout; ++f) {
      seed.push_back({Value::Int64(k), Value::Int64(k * 1000 + f)});
    }
  }
  if (!service.InsertBatch("t", std::move(seed)).ok()) {
    std::fprintf(stderr, "selftest: seed insert failed\n");
    return 1;
  }
  if (!service
           .RegisterConstraint(
               AccessConstraint{"acc_t", "t", {"k"}, {"v"}, kDeclaredBound})
           .ok()) {
    std::fprintf(stderr, "selftest: RegisterConstraint failed\n");
    return 1;
  }

  // In-process reference, captured before the storm's writers add keys
  // outside the stable range.
  std::vector<std::vector<Row>> reference(kStableKeys);
  for (int k = 0; k < kStableKeys; ++k) {
    auto resp =
        service.Query({"SELECT t.v FROM t WHERE t.k = " + std::to_string(k)});
    if (!resp.ok()) {
      std::fprintf(stderr, "selftest: reference query failed: %s\n",
                   resp.status().ToString().c_str());
      return 1;
    }
    reference[k] = SortedRows(resp->result.rows);
  }

  beas::net::ServerOptions server_options;
  server_options.num_dispatchers = 8;
  beas::net::Server server(&service, server_options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "selftest: server start failed\n");
    return 1;
  }

  // Hold each execution open ~1ms so pipelined requests genuinely overlap
  // in admission — without this the storm drains faster than contention
  // can build and the tenant-cap paths never fire.
  beas::fail::ArmForTesting("exec_step=sleep(1)@*");

  constexpr int kClients = 8;
  constexpr int kItersPerClient = 40;
  std::atomic<int> failures{0};
  std::atomic<uint64_t> queries{0}, inserts{0}, rejected{0}, degraded{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      beas::net::Client client;
      if (!client.Connect(server.host(), server.port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      std::mt19937 rng(static_cast<unsigned>(c) * 7919 + 17);
      const std::string tenant = (c % 2 == 0) ? "alpha" : "beta";
      for (int i = 0; i < kItersPerClient; ++i) {
        if (rng() % 5 == 0) {
          // Write path: keys disjoint from the stable read range.
          std::vector<Row> rows;
          int64_t k = 1000 + static_cast<int64_t>(rng() % 1000);
          rows.push_back({Value::Int64(k), Value::Int64(i)});
          auto ack = client.Insert("t", rows);
          if (!ack.ok() || *ack != 1) {
            std::fprintf(stderr, "selftest: insert failed: %s\n",
                         ack.status().ToString().c_str());
            failures.fetch_add(1);
            return;
          }
          inserts.fetch_add(1);
          continue;
        }
        // Pipelined burst: several queries in flight on one connection is
        // what actually exercises admission overlap and the dispatch
        // queue — sequential round trips finish too fast to contend.
        constexpr int kBurst = 4;
        int keys[kBurst];
        uint32_t ids[kBurst];
        bool burst_ok = true;
        for (int b = 0; b < kBurst; ++b) {
          keys[b] = static_cast<int>(rng() % kStableKeys);
          // Two spellings of one template: the literal-first one is
          // served in canonical form, so the storm also drives the
          // canonical-form memo and binds canonical templates.
          QueryRequest request;
          request.sql =
              b % 2 == 0
                  ? "SELECT t.v FROM t WHERE t.k = " + std::to_string(keys[b])
                  : "SELECT t.v FROM t WHERE " + std::to_string(keys[b]) +
                        " = t.k";
          request.tenant = tenant;
          auto id = client.SendQuery(request);
          if (!id.ok()) {
            failures.fetch_add(1);
            return;
          }
          ids[b] = *id;
        }
        for (int b = 0; b < kBurst; ++b) {
          auto reply = client.ReadResponse();
          queries.fetch_add(1);
          if (!reply.ok()) {
            std::fprintf(stderr, "selftest: read failed: %s\n",
                         reply.status().ToString().c_str());
            failures.fetch_add(1);
            return;
          }
          int k = -1;
          for (int j = 0; j < kBurst; ++j) {
            if (ids[j] == reply->first) k = keys[j];
          }
          if (k < 0) {
            std::fprintf(stderr, "selftest: response to unknown id\n");
            failures.fetch_add(1);
            return;
          }
          const auto& wire = reply->second;
          if (!wire.status.ok()) {
            // Over-budget tenants must fail *typed*: kResourceExhausted
            // is the only acceptable error under load.
            if (wire.status.code() == StatusCode::kResourceExhausted) {
              rejected.fetch_add(1);
              continue;
            }
            std::fprintf(stderr, "selftest: query failed untyped: %s\n",
                         wire.status.ToString().c_str());
            failures.fetch_add(1);
            burst_ok = false;
            break;
          }
          const QueryResponse& resp = wire.response;
          if (resp.degraded || resp.timed_out || resp.eta < 1.0) {
            // Honest partial answer under admission pressure: must be a
            // subset of the reference.
            degraded.fetch_add(1);
            if (resp.result.rows.size() > reference[k].size()) {
              std::fprintf(stderr, "selftest: degraded answer larger than "
                                   "reference for k=%d\n", k);
              failures.fetch_add(1);
              burst_ok = false;
              break;
            }
            continue;
          }
          // Exact answer: must be bit-identical to the in-process result.
          if (!RowsEqual(SortedRows(resp.result.rows), reference[k])) {
            std::fprintf(stderr,
                         "selftest: wire answer diverged from in-process "
                         "reference for k=%d (%zu vs %zu rows)\n",
                         k, resp.result.rows.size(), reference[k].size());
            failures.fetch_add(1);
            burst_ok = false;
            break;
          }
        }
        if (!burst_ok) return;
      }
      client.Close();
    });
  }
  for (std::thread& t : clients) t.join();
  beas::fail::ArmForTesting("");

  // The underprovisioned beta tenant must actually have been squeezed:
  // a storm where the caps never fired proves nothing.
  if (rejected.load() + degraded.load() == 0) {
    std::fprintf(stderr,
                 "selftest: admission never degraded or rejected — the "
                 "storm did not generate contention\n");
    failures.fetch_add(1);
  }

  // Wire gauges must have moved (and the stats table must expose them).
  beas::NetGauges* gauges = service.net_gauges();
  if (gauges->requests_total.load() == 0 ||
      gauges->bytes_in_total.load() == 0 ||
      gauges->bytes_out_total.load() == 0) {
    std::fprintf(stderr, "selftest: net gauges did not move\n");
    failures.fetch_add(1);
  }
  if (service.template_canonicalizations() == 0 ||
      service.template_memo_entries() == 0) {
    std::fprintf(stderr, "selftest: no request was served canonicalized\n");
    failures.fetch_add(1);
  }
  beas::TenantCounters beta = service.tenant_counters("beta");
  if (beta.requests_total == 0) {
    std::fprintf(stderr, "selftest: tenant accounting did not move\n");
    failures.fetch_add(1);
  }
  server.Stop();

  std::printf(
      "selftest: %llu queries (%llu rejected, %llu degraded), %llu inserts, "
      "%d clients, failures=%d\n",
      static_cast<unsigned long long>(queries.load()),
      static_cast<unsigned long long>(rejected.load()),
      static_cast<unsigned long long>(degraded.load()),
      static_cast<unsigned long long>(inserts.load()), kClients,
      failures.load());
  return failures.load() == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// CLI.
// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(
      stderr,
      "usage: beas_client [--host H] [--port P] [--mode auto|bounded|approx|"
      "check]\n"
      "                   [--tenant T] [--timeout-ms N] [--fetch-budget N]\n"
      "                   [--approx-budget N] [--ping] [--selftest] [SQL]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7687;
  QueryRequest request;
  bool ping = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--selftest") return RunSelftest();
    if (arg == "--ping") {
      ping = true;
    } else if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return Usage();
      host = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage();
      port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--mode") {
      const char* v = next();
      if (v == nullptr) return Usage();
      auto mode = beas::ParseQueryMode(v);
      if (!mode.ok()) {
        std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
        return 2;
      }
      request.mode = *mode;
    } else if (arg == "--tenant") {
      const char* v = next();
      if (v == nullptr) return Usage();
      request.tenant = v;
    } else if (arg == "--timeout-ms") {
      const char* v = next();
      if (v == nullptr) return Usage();
      request.options.timeout_millis = std::atoll(v);
    } else if (arg == "--fetch-budget") {
      const char* v = next();
      if (v == nullptr) return Usage();
      request.options.fetch_budget = std::strtoull(v, nullptr, 10);
    } else if (arg == "--approx-budget") {
      const char* v = next();
      if (v == nullptr) return Usage();
      request.approx_budget = std::strtoull(v, nullptr, 10);
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else {
      request.sql = arg;
    }
  }
  if (!ping && request.sql.empty()) return Usage();

  beas::net::Client client;
  Status st = client.Connect(host, port);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (ping) {
    st = client.Ping();
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("pong from %s:%u\n", host.c_str(), port);
    return 0;
  }
  Result<QueryResponse> resp = client.Query(request);
  if (!resp.ok()) {
    std::fprintf(stderr, "[%s] %s\n",
                 beas::StatusCodeName(resp.status().code()),
                 resp.status().message().c_str());
    return 1;
  }
  if (request.mode == QueryMode::kCheckOnly) {
    std::printf("covered: %s\n", resp->covered ? "yes" : "no");
    if (!resp->covered) std::printf("reason: %s\n", resp->reason.c_str());
    if (resp->covered) {
      std::printf("deduced bound M = %llu\n",
                  static_cast<unsigned long long>(
                      resp->decision.deduced_bound));
    }
    return 0;
  }
  std::printf("%s", resp->result.ToTable().c_str());
  std::printf("-- %zu row(s); eta=%.4f%s%s; %s\n", resp->result.rows.size(),
              resp->eta, resp->degraded ? " (degraded)" : "",
              resp->timed_out ? " (timed out)" : "",
              resp->decision.explanation.c_str());
  return 0;
}
