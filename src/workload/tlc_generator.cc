#include "workload/tlc_generator.h"

#include <algorithm>

#include "common/rng.h"
#include "common/string_util.h"
#include "workload/tlc_schema.h"

namespace beas {

namespace {

// Workload dimensions.
constexpr int kDays = 28;  // 2016-03-01 .. 2016-03-28
constexpr int kNumRegions = 8;
constexpr int kNumPids = 20;
constexpr int kTowersPerRegion = 25;

const char* kTypes[] = {"bank", "hospital", "school", "retail", "restaurant",
                        "pharmacy"};
const char* kCountries[] = {"US", "UK", "DE", "FR", "JP", "CN", "BR"};
const char* kMethods[] = {"card", "cash", "transfer"};
const char* kCategories[] = {"billing", "network", "service", "roaming"};
const char* kPlans[] = {"basic", "plus", "pro"};
const char* kOperators[] = {"north-op", "south-op", "east-op"};

int64_t MarchDate(int day) { return 20160300 + day; }

int64_t MonthDate(int month, int day) {
  return 20160000 + static_cast<int64_t>(month) * 100 + day;
}

std::string RegionName(int index) { return "R" + std::to_string(index + 1); }

}  // namespace

std::string TlcStats::ToString() const {
  std::string out = StringPrintf("TLC dataset: %zu subscribers, %zu rows\n",
                                 num_pnums, total_rows);
  std::vector<std::string> names = TlcTableNames();
  for (size_t i = 0; i < names.size(); ++i) {
    out += StringPrintf("  %-11s %zu\n", names[i].c_str(), rows_per_table[i]);
  }
  return out;
}

Result<TlcStats> GenerateTlc(Database* db, const TlcOptions& options) {
  BEAS_RETURN_NOT_OK(CreateTlcTables(db));
  Rng rng(options.seed);
  TlcStats stats;

  size_t num_pnums = std::max<size_t>(
      100, static_cast<size_t>(400.0 * options.scale_factor));
  stats.num_pnums = num_pnums;

  std::vector<int64_t> pnums;
  pnums.reserve(num_pnums);
  for (size_t i = 0; i < num_pnums; ++i) {
    pnums.push_back(kTlcProbePnum + static_cast<int64_t>(i));
  }

  // Home region of each subscriber; the probe lives in R1.
  auto region_of = [&](int64_t pnum) {
    if (pnum == kTlcProbePnum) return std::string(kTlcRegion);
    return RegionName(static_cast<int>(pnum % kNumRegions));
  };

  std::vector<TableHeap*> heaps;
  {
    std::vector<std::string> names = TlcTableNames();
    for (const std::string& name : names) {
      BEAS_ASSIGN_OR_RETURN(TableInfo * info, db->catalog()->GetTable(name));
      heaps.push_back(info->heap());
    }
  }
  enum TableIdx {
    kCall = 0, kPackage, kBusiness, kCustomer, kMessage, kDataUsage,
    kTower, kHandoff, kComplaint, kPayment, kRoaming, kPromotion,
  };
  // Rows are buffered per table and appended through the batch path every
  // kFlushRows rows: one dictionary-encoding pass per chunk instead of a
  // per-row insert (the same write-batching grain BeasService::InsertBatch
  // gives concurrent loaders), while no more than a chunk per table is
  // ever held as Values beside the packed heap. Each table still receives
  // its rows in generation order, so slots, first-appearance dictionary
  // codes and shard placement are those of one batch at the end.
  constexpr size_t kFlushRows = 4096;
  std::vector<std::vector<Row>> pending(heaps.size());
  auto flush = [&](size_t t) {
    heaps[t]->InsertBatchUnchecked(std::move(pending[t]));
    pending[t].clear();
    pending[t].reserve(kFlushRows);
  };
  auto insert = [&](TableIdx t, Row row) {
    pending[t].push_back(std::move(row));
    ++stats.rows_per_table[t];
    ++stats.total_rows;
    if (pending[t].size() == kFlushRows) flush(t);
  };

  // --- business: each subscriber is a business with probability 0.3; the
  // probe is always a bank in R1 (the Q1 cohort seed). ---
  std::vector<int64_t> bank_r1;  // the Example-2 cohort
  for (int64_t pnum : pnums) {
    bool is_probe = pnum == kTlcProbePnum;
    if (!is_probe && !rng.Chance(0.3)) continue;
    std::string type = is_probe ? kTlcBusinessType : kTypes[rng.Uniform(0, 5)];
    std::string region = region_of(pnum);
    insert(kBusiness, {Value::Int64(pnum), Value::String(type),
                       Value::String(region),
                       Value::String("biz_" + std::to_string(pnum))});
    if (type == kTlcBusinessType && region == kTlcRegion) {
      bank_r1.push_back(pnum);
    }
  }

  // --- package: 1–3 random packages per subscriber in 2016; every cohort
  // member additionally holds package kTlcPackageId spanning kTlcDate. ---
  for (int64_t pnum : pnums) {
    int count = static_cast<int>(rng.Uniform(1, 3));
    for (int i = 0; i < count; ++i) {
      int m1 = static_cast<int>(rng.Uniform(1, 11));
      int m2 = static_cast<int>(rng.Uniform(m1, 12));
      int64_t pid = rng.Uniform(1, kNumPids);
      // Keep the random packages away from the cohort pid so the cohort's
      // Q1 answer stays deterministic-ish but the data is not degenerate.
      if (pid == kTlcPackageId && rng.Chance(0.5)) pid = kNumPids;
      insert(kPackage,
             {Value::Int64(pnum), Value::Int64(pid),
              Value::Date(MonthDate(m1, 1)), Value::Date(MonthDate(m2, 28)),
              Value::Int64(kTlcYear), Value::Double(5.0 + rng.UniformReal(0, 55))});
    }
  }
  for (int64_t pnum : bank_r1) {
    insert(kPackage,
           {Value::Int64(pnum), Value::Int64(kTlcPackageId),
            Value::Date(MonthDate(1, 1)), Value::Date(MonthDate(6, 30)),
            Value::Int64(kTlcYear), Value::Double(29.9)});
  }

  // --- call: ~half the subscriber-days have 1–6 calls; cohort members and
  // the probe always call on kTlcDate. ψ1 conformance: at most 6 distinct
  // (recnum, region) per (pnum, date) — well under the declared 500. ---
  auto random_recnum = [&]() {
    return pnums[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(num_pnums) - 1))];
  };
  auto make_call = [&](int64_t pnum, int64_t date, int64_t recnum) {
    insert(kCall, {Value::Int64(pnum), Value::Int64(recnum), Value::Date(date),
                   Value::String(region_of(pnum)),
                   Value::Int64(rng.Uniform(10, 600)),
                   Value::Double(rng.UniformReal(0.05, 9.5)),
                   Value::Int64(rng.Uniform(1, 500)),
                   Value::Int64(pnum * 10 + 1)});
  };
  BEAS_ASSIGN_OR_RETURN(Value d0, Value::DateFromString(kTlcDate));
  for (int64_t pnum : pnums) {
    bool is_probe = pnum == kTlcProbePnum;
    for (int day = 1; day <= kDays; ++day) {
      bool active = is_probe || rng.Chance(0.5);
      if (!active) continue;
      int calls = is_probe ? 3 : static_cast<int>(rng.Uniform(1, 6));
      for (int i = 0; i < calls; ++i) {
        make_call(pnum, MarchDate(day), random_recnum());
      }
    }
  }
  for (int64_t pnum : bank_r1) {
    make_call(pnum, d0.AsDate(), random_recnum());
  }

  // --- customer: one per subscriber. ---
  for (int64_t pnum : pnums) {
    insert(kCustomer,
           {Value::Int64(pnum), Value::Int64(pnum + 90000),
            Value::Int64(rng.Uniform(18, 80)),
            Value::String(rng.Chance(0.5) ? "M" : "F"),
            Value::String("C" + std::to_string(rng.Uniform(1, 12))),
            Value::String(kPlans[rng.Uniform(0, 2)])});
  }

  // --- message: lighter than call. ---
  for (int64_t pnum : pnums) {
    for (int day = 1; day <= kDays; ++day) {
      if (!rng.Chance(0.3)) continue;
      int count = static_cast<int>(rng.Uniform(1, 4));
      for (int i = 0; i < count; ++i) {
        insert(kMessage, {Value::Int64(pnum), Value::Int64(random_recnum()),
                          Value::Date(MarchDate(day)),
                          Value::String(region_of(pnum)),
                          Value::Int64(rng.Uniform(1, 160))});
      }
    }
  }

  // --- data_usage: at most one row per subscriber-day (ψ6: N=24 holds
  // trivially); the probe has usage every day (Q6's IN-list dates). ---
  for (int64_t pnum : pnums) {
    bool is_probe = pnum == kTlcProbePnum;
    for (int day = 1; day <= kDays; ++day) {
      if (!is_probe && !rng.Chance(0.8)) continue;
      insert(kDataUsage, {Value::Int64(pnum), Value::Date(MarchDate(day)),
                          Value::Double(rng.UniformReal(1, 2048)),
                          Value::String(region_of(pnum))});
    }
  }

  // --- tower: fixed per region (does not scale with SF). ---
  int64_t tid = 1;
  std::vector<std::vector<int64_t>> towers_by_region(kNumRegions);
  for (int r = 0; r < kNumRegions; ++r) {
    for (int i = 0; i < kTowersPerRegion; ++i) {
      towers_by_region[r].push_back(tid);
      insert(kTower, {Value::Int64(tid), Value::String(RegionName(r)),
                      Value::Int64(rng.Uniform(100, 5000)),
                      Value::String(kOperators[rng.Uniform(0, 2)])});
      ++tid;
    }
  }

  // --- handoff: 1–3 towers per active subscriber-day. ---
  for (int64_t pnum : pnums) {
    bool is_probe = pnum == kTlcProbePnum;
    int region_idx = is_probe ? 0 : static_cast<int>(pnum % kNumRegions);
    for (int day = 1; day <= kDays; ++day) {
      if (!is_probe && !rng.Chance(0.3)) continue;
      int count = static_cast<int>(rng.Uniform(1, 3));
      for (int i = 0; i < count; ++i) {
        insert(kHandoff,
               {Value::Int64(pnum), Value::Date(MarchDate(day)),
                Value::Int64(rng.Pick(towers_by_region[region_idx])),
                Value::Int64(rng.Uniform(1, 20))});
      }
    }
  }

  // --- complaint: keyed by customer id; every cohort member's customer
  // files one severe complaint (Q7's answer seed). ---
  for (int64_t pnum : pnums) {
    int64_t cid = pnum + 90000;
    if (rng.Chance(0.4)) {
      int count = static_cast<int>(rng.Uniform(1, 3));
      for (int i = 0; i < count; ++i) {
        insert(kComplaint,
               {Value::Int64(cid), Value::Date(MarchDate(rng.Uniform(1, kDays))),
                Value::String(kCategories[rng.Uniform(0, 3)]),
                Value::Int64(rng.Uniform(1, 5))});
      }
    }
  }
  for (int64_t pnum : bank_r1) {
    insert(kComplaint,
           {Value::Int64(pnum + 90000), Value::Date(MarchDate(20)),
            Value::String("network"), Value::Int64(4)});
  }

  // --- payment: six monthly payments per customer in 2016 (ψ9: N=12). ---
  for (int64_t pnum : pnums) {
    int64_t cid = pnum + 90000;
    for (int month = 1; month <= 6; ++month) {
      insert(kPayment, {Value::Int64(cid), Value::Int64(month),
                        Value::Int64(kTlcYear),
                        Value::Double(rng.UniformReal(10, 200)),
                        Value::String(kMethods[rng.Uniform(0, 2)])});
    }
  }

  // --- roaming: ~10% of subscribers roam; the probe roams on the three
  // dates Q3 asks about. ---
  for (int64_t pnum : pnums) {
    if (pnum == kTlcProbePnum) continue;
    if (!rng.Chance(0.1)) continue;
    int count = static_cast<int>(rng.Uniform(1, 5));
    for (int i = 0; i < count; ++i) {
      insert(kRoaming,
             {Value::Int64(pnum), Value::Date(MarchDate(rng.Uniform(1, kDays))),
              Value::String(kCountries[rng.Uniform(0, 6)]),
              Value::Int64(rng.Uniform(1, 120))});
    }
  }
  for (int day : {10, 11, 12}) {
    insert(kRoaming, {Value::Int64(kTlcProbePnum), Value::Date(MarchDate(day)),
                      Value::String("UK"), Value::Int64(15 + day)});
  }

  // --- promotion: per (pid, region, month) with probability 0.25; the
  // cohort package always has Q1–Q3 promotions in three regions (Q10). ---
  for (int64_t pid = 1; pid <= kNumPids; ++pid) {
    for (int r = 0; r < kNumRegions; ++r) {
      for (int month = 1; month <= 12; ++month) {
        bool planted = pid == kTlcPackageId && month <= 3 && r < 3;
        if (!planted && !rng.Chance(0.25)) continue;
        insert(kPromotion,
               {Value::Int64(pid), Value::String(RegionName(r)),
                Value::Int64(month),
                Value::Double(rng.UniformReal(0.05, 0.5))});
      }
    }
  }

  for (size_t t = 0; t < heaps.size(); ++t) {
    flush(t);
    heaps[t]->ShrinkToFit();  // the load is complete: drop arena headroom
  }
  return stats;
}

}  // namespace beas
