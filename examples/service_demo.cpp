// Service demo: the concurrent query-service layer on top of the BEAS
// pipeline — template plan cache, prepared instantiation, worker pool,
// and maintenance-driven invalidation.
//
// Walkthrough:
//   1. stand up a BeasService (it owns the Database + AS catalog +
//      maintenance module + worker pool);
//   2. load the TLC workload and register its access schema;
//   3. serve repeated *parameterized templates* — the first instance pays
//      the full parse+bind+coverage-search cost, every later instance is
//      instantiated from the cached template plan;
//   4. show what invalidates the cache (bound adjustments) and what does
//      not (plain inserts, kept fresh by incremental index maintenance);
//   5. push a concurrent batch through the worker pool.
//
// Every read goes through BeasService::Query (or Submit, its queued
// form). Exits non-zero on any error, so it doubles as a smoke test.

#include <cinttypes>
#include <cstdio>

#include "common/string_util.h"
#include "service/beas_service.h"
#include "workload/tlc_access_schema.h"
#include "workload/tlc_generator.h"

using namespace beas;  // examples favor brevity

namespace {

int errors = 0;

/// Prints one answer: which cache served it — the materialized result
/// cache, the template plan cache, or neither — and the plan decision.
void Show(const char* tag, const Result<QueryResponse>& resp) {
  if (!resp.ok()) {
    ++errors;
    std::printf("%-28s ERROR %s\n", tag, resp.status().ToString().c_str());
    return;
  }
  const char* served = resp->result_cache_hit ? "result-hit"
                       : resp->cache_hit      ? "plan-hit"
                                              : "miss";
  std::printf("%-28s %4zu rows  %-10s  %s\n", tag, resp->result.rows.size(),
              served, resp->decision.explanation.c_str());
}

}  // namespace

int main() {
  // --- 1. The service owns the whole stack. ---
  ServiceOptions options;
  options.num_workers = 4;
  options.cache_capacity = 256;
  BeasService service(options);

  // --- 2. Bulk-load TLC and register its access schema (setup phase). ---
  TlcOptions tlc;
  tlc.scale_factor = 0.5;
  auto stats = GenerateTlc(service.db(), tlc);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  if (Status st = RegisterTlcAccessSchema(service.catalog()); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("loaded: %s\n", stats->ToString().c_str());

  // --- 3. One template, many parameterizations. ---
  std::printf("\n-- repeated parameterized template --\n");
  for (int64_t pnum : {10001, 10002, 10003, 10001}) {
    std::string sql = StringPrintf(
        "SELECT DISTINCT call.recnum FROM call WHERE call.pnum = %" PRId64
        " AND call.date = '2016-03-15'",
        pnum);
    Show(("pnum=" + std::to_string(pnum)).c_str(), service.Query({sql}));
  }

  // --- 4a. Plain inserts do NOT invalidate (indices maintained). ---
  std::printf("\n-- plain insert: no invalidation, fresh answer --\n");
  Status st = service.Insert(
      "call", {Value::Int64(10001), Value::Int64(424242),
               Value::DateFromString("2016-03-15").ValueOrDie(),
               Value::String("R1"), Value::Int64(60), Value::Double(0.25),
               Value::Int64(17), Value::Int64(12345678)});
  if (!st.ok()) {
    ++errors;
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
  }
  Show("pnum=10001 after insert",
       service.Query({"SELECT DISTINCT call.recnum FROM call WHERE "
                      "call.pnum = 10001 AND call.date = '2016-03-15'"}));

  // --- 4b. Maintenance bound adjustment DOES invalidate. ---
  std::printf("\n-- maintenance adjustment: affected templates evicted --\n");
  size_t changed = 0;
  st = service.RunAdjustmentCycle(1.2, &changed);
  if (!st.ok()) {
    ++errors;
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
  }
  std::printf("adjusted %zu declared bounds\n", changed);
  Show("pnum=10001 after adjust",
       service.Query({"SELECT DISTINCT call.recnum FROM call WHERE "
                      "call.pnum = 10001 AND call.date = '2016-03-15'"}));

  // --- 5. A concurrent batch through the worker pool. ---
  std::printf("\n-- worker pool --\n");
  std::vector<std::future<Result<QueryResponse>>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(service.Submit({StringPrintf(
        "SELECT call.region, count(*) AS calls FROM call "
        "WHERE call.pnum = %d AND call.date = '2016-03-15' "
        "GROUP BY call.region ORDER BY calls DESC LIMIT 3",
        10001 + i % 8)}));
  }
  size_t ok = 0;
  for (auto& f : futures) {
    if (f.get().ok()) ++ok;
  }
  std::printf("%zu/%zu concurrent queries answered\n", ok, futures.size());

  std::printf("\n%s\n", service.cache_stats().ToString().c_str());
  return errors == 0 && ok == futures.size() ? 0 : 1;
}
