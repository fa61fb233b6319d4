#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "types/value.h"

namespace tlcbench {

namespace {

const char* const kTypeNames[kTypes] = {"bank",     "hospital", "school",
                                        "retail",   "restaurant",
                                        "pharmacy"};

constexpr int64_t kFirstPnum = 10001;
constexpr uint64_t kHotSetStream = 0x686f74;  // "hot"

std::string Quoted(const std::string& s) { return "'" + s + "'"; }

std::string MarchDate(int day) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "2016-03-%02d", day);
  return buf;
}

std::string JoinConjuncts(std::vector<std::string> conjuncts, bool reversed) {
  if (reversed) std::reverse(conjuncts.begin(), conjuncts.end());
  std::string out;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (i > 0) out += " AND ";
    out += conjuncts[i];
  }
  return out;
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng mix(seed ^ (stream * 0xd1b54a32d192ed03ull));
  mix.Next();
  return mix.Next();
}

const char* TemplateName(uint8_t tmpl) {
  static const char* const kNames[kNumTemplates] = {"Q1", "Q2", "Q4", "Q5",
                                                    "Q9"};
  return tmpl < kNumTemplates ? kNames[tmpl] : "?";
}

uint64_t RequestSpec::AnswerKey() const {
  return (static_cast<uint64_t>(tmpl) << 40) |
         (static_cast<uint64_t>(a) << 24) | (static_cast<uint64_t>(b) << 16) |
         (static_cast<uint64_t>(c) << 8) | static_cast<uint64_t>(d);
}

std::string RenderSql(const RequestSpec& spec) {
  const std::string pnum = std::to_string(kFirstPnum + spec.a);
  const std::string date = Quoted(MarchDate(spec.c + 1));
  switch (spec.tmpl) {
    case kQ1:
      return "SELECT call.region FROM call, package, business WHERE " +
             JoinConjuncts(
                 {"business.type = " + Quoted(kTypeNames[spec.a % kTypes]),
                  "business.region = " +
                      Quoted("R" + std::to_string(spec.b + 1)),
                  "business.pnum = call.pnum", "call.date = " + date,
                  "call.pnum = package.pnum", "package.year = 2016",
                  "package.start <= " + date, "package.end >= " + date,
                  "package.pid = " + std::to_string(spec.d + 1)},
                 spec.reversed != 0);
    case kQ2:
      return "SELECT DISTINCT call.recnum FROM call WHERE " +
             JoinConjuncts({"call.pnum = " + pnum, "call.date = " + date},
                           spec.reversed != 0);
    case kQ4:
      return "SELECT sum(payment.amount) AS total FROM customer, payment "
             "WHERE " +
             JoinConjuncts({"customer.pnum = " + pnum,
                            "customer.cid = payment.cid",
                            "payment.year = 2016"},
                           spec.reversed != 0);
    case kQ5:
      return "SELECT call.region, count(*) AS calls FROM call WHERE " +
             JoinConjuncts({"call.pnum = " + pnum, "call.date = " + date},
                           spec.reversed != 0) +
             " GROUP BY call.region ORDER BY calls DESC LIMIT 3";
    default:
      return "SELECT handoff.tid, tower.capacity FROM handoff, tower WHERE " +
             JoinConjuncts({"handoff.pnum = " + pnum,
                            "handoff.date = " + date,
                            "handoff.tid = tower.tid"},
                           spec.reversed != 0);
  }
}

RequestSpec DrawUniform(Rng* rng) {
  return DrawParams(static_cast<uint8_t>(rng->Below(kNumTemplates)), rng);
}

RequestSpec DrawParams(uint8_t tmpl, Rng* rng) {
  RequestSpec spec;
  spec.tmpl = tmpl;
  if (spec.tmpl == kQ1) {
    spec.a = static_cast<uint16_t>(rng->Below(kTypes));
    spec.b = static_cast<uint8_t>(rng->Below(kRegions));
    spec.c = static_cast<uint8_t>(rng->Below(kMarchDays));
    spec.d = static_cast<uint8_t>(rng->Below(kPids));
  } else {
    spec.a = static_cast<uint16_t>(rng->Below(kSubscribers));
    spec.c = spec.tmpl == kQ4 ? 0 : static_cast<uint8_t>(
                                        rng->Below(kMarchDays));
  }
  return spec;
}

RequestStream::RequestStream(Kind kind, uint64_t seed, uint64_t stream)
    : kind_(kind), rng_(StreamSeed(seed, stream)) {
  if (kind_ != Kind::kHotKey) return;
  Rng hot_rng(StreamSeed(seed, kHotSetStream));
  // Rank k holds template k mod 5, so the template mix (and with it the
  // share of answers a write invalidates) is the same for every seed;
  // the seed picks only the parameters.
  std::unordered_set<uint64_t> seen;
  while (hot_.size() < kHotTuples) {
    RequestSpec spec = DrawParams(
        static_cast<uint8_t>(hot_.size() % kNumTemplates), &hot_rng);
    if (seen.insert(spec.AnswerKey()).second) hot_.push_back(spec);
  }
  double total = 0;
  for (size_t k = 0; k < kHotTuples; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfS);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

RequestSpec RequestStream::Next() {
  if (kind_ == Kind::kUniform) return DrawUniform(&rng_);
  double u = rng_.Unit();
  size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  RequestSpec spec = hot_[std::min(rank, hot_.size() - 1)];
  spec.reversed = static_cast<uint8_t>(rng_.Below(2));
  return spec;
}

std::vector<beas::Row> MakeWriteRows(uint64_t write_index) {
  using beas::Value;
  std::vector<beas::Row> rows;
  rows.reserve(kRowsPerWrite);
  for (uint64_t j = 0; j < kRowsPerWrite; ++j) {
    uint64_t i = write_index * kRowsPerWrite + j;
    int64_t pnum = kFirstPnum + static_cast<int64_t>(i % kSubscribers);
    int64_t day = 1 + static_cast<int64_t>((i / kSubscribers) % 30);
    rows.push_back(
        {Value::Int64(pnum),
         Value::Int64(kFirstPnum +
                      static_cast<int64_t>((i * 7919) % kSubscribers)),
         Value::Date(20160400 + day),
         Value::String("R" + std::to_string(1 + i % kRegions)),
         Value::Int64(10 + static_cast<int64_t>(i % 590)),
         Value::Double(0.05 + static_cast<double>(i % 946) * 0.01),
         Value::Int64(1 + static_cast<int64_t>(i % 500)),
         Value::Int64(pnum * 10 + 1)});
  }
  return rows;
}

const char* WrittenRowsCountSql() {
  return "SELECT count(*) AS n FROM call WHERE call.date >= '2016-04-01'";
}

}  // namespace tlcbench
