// Tests of the benchmark's own code: the percentile and sample-count rule,
// span self-time arithmetic, and seeded request streams. Exits non-zero on
// the first failed check.

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "types/value.h"
#include "workload.h"

namespace tlcbench {
namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // deliberately unsorted
  return v;
}

void TestPercentiles() {
  LatencySummary s = Summarize(OneTo(100));
  CHECK(s.count == 100);
  CHECK(s.p50 == 50);
  CHECK(s.p99 == 99);
  CHECK(!s.p99_supported);  // one sample beyond the p99

  CHECK(Median(OneTo(4)) == 2);  // nearest rank: ceil(0.5 * 4) = 2
  CHECK(Median(OneTo(5)) == 3);
  CHECK(Median({}) == 0);
  CHECK(QuantileSorted({7}, 0.99) == 7);
}

void TestSampleCountRule() {
  // p99 of n samples has n - ceil(0.99 n) samples beyond it.
  CHECK(SamplesBeyond(100, 0.99) == 1);
  CHECK(SamplesBeyond(999, 0.99) == 9);
  CHECK(SamplesBeyond(1000, 0.99) == 10);
  CHECK(SamplesBeyond(0, 0.99) == 0);
  CHECK(!Summarize(OneTo(999)).p99_supported);
  LatencySummary s = Summarize(OneTo(1000));
  CHECK(s.p99_supported);
  CHECK(s.p99 == 990);
  CHECK(s.p50 == 500);
}

void TestWindows() {
  // Three one-second windows of 1000 reads each; the middle one stalls.
  std::vector<double> done_s, latency;
  for (int i = 0; i < 3000; ++i) {
    done_s.push_back(i / 1000.0);
    latency.push_back(i >= 1000 && i < 2000 ? 100.0 : 1.0);
  }
  done_s.push_back(3.5);  // past the last whole window: left out
  latency.push_back(1e6);
  WindowedSummary w = SummarizeWindows(done_s, latency, 1.0, 3);
  CHECK(w.windows == 3);
  CHECK(w.median_rate == 1000);
  CHECK(w.median_p99 == 1.0);
  CHECK(w.min_window_count == 1000);
  CHECK(w.p99_supported);

  // A window with fewer than 1000 reads cannot support its p99.
  done_s.resize(2500);
  latency.resize(2500);
  WindowedSummary thin = SummarizeWindows(done_s, latency, 1.0, 3);
  CHECK(thin.min_window_count == 500);
  CHECK(!thin.p99_supported);

  // Pooled phases: medians over every window of every phase.
  WindowedSummary slow = SummarizeWindows(
      std::vector<double>(1200, 0.5), std::vector<double>(1200, 3.0), 1.0, 1);
  WindowedSummary pooled = PoolWindows({w, slow});
  CHECK(pooled.windows == 4);
  CHECK(pooled.rates.size() == 4 && pooled.p99s.size() == 4);
  CHECK(pooled.median_rate == 1000);  // nearest rank 2 of 1000, 1000, 1000, 1200
  CHECK(pooled.median_p99 == 1.0);    // 1, 1, 3, 100
  CHECK(pooled.min_window_count == 1000);
  CHECK(pooled.p99_supported);
  CHECK(!PoolWindows({w, thin}).p99_supported);
  CHECK(PoolWindows({thin, w}).min_window_count == 500);
}

Span MakeSpan(int64_t parent, int64_t start, int64_t end) {
  Span s;
  s.name = "x";
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTimes() {
  std::vector<Span> spans = {
      MakeSpan(-1, 0, 100),   // 0: root
      MakeSpan(0, 10, 30),    // 1
      MakeSpan(0, 20, 50),    // 2: overlaps 1; union 10..50
      MakeSpan(0, 60, 70),    // 3
      MakeSpan(0, 90, 120),   // 4: clipped to the root's end
      MakeSpan(2, 25, 45),    // 5: grandchild, counts against 2 only
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  CHECK(self[0] == 100 - (40 + 10 + 10));
  CHECK(self[1] == 20);
  CHECK(self[2] == 30 - 20);
  CHECK(self[3] == 10);
  CHECK(self[5] == 20);

  // Recorded spans nest under the innermost open one.
  SpanRecorder rec;
  size_t root = rec.Begin("root", 1);
  size_t child = rec.Begin("child", 1);
  rec.End(child);
  size_t sibling = rec.Begin("sibling", 1);
  rec.End(sibling);
  rec.End(root);
  size_t next_root = rec.Begin("root", 2);
  rec.End(next_root);
  CHECK(rec.spans()[child].parent == static_cast<int64_t>(root));
  CHECK(rec.spans()[sibling].parent == static_cast<int64_t>(root));
  CHECK(rec.spans()[next_root].parent == -1);
  std::vector<int64_t> rec_self = SelfTimesNs(rec.spans());
  const Span& r = rec.spans()[root];
  CHECK(rec_self[root] <= r.end_ns - r.start_ns);
  CHECK(rec_self[root] >= 0);

  // Appending re-bases parents.
  SpanRecorder merged;
  merged.Append(rec);
  merged.Append(rec);
  CHECK(merged.spans().size() == 2 * rec.spans().size());
  CHECK(merged.spans()[rec.spans().size() + child].parent ==
        static_cast<int64_t>(rec.spans().size() + root));

  std::vector<LayerSelfTime> layers = AggregateSelfTimes(merged);
  CHECK(layers.size() == 3);
  CHECK(layers[0].name == "root" && layers[0].count == 4);
}

std::vector<RequestSpec> Draw(RequestStream::Kind kind, uint64_t seed,
                              uint64_t stream, size_t n) {
  RequestStream s(kind, seed, stream);
  std::vector<RequestSpec> out;
  for (size_t i = 0; i < n; ++i) out.push_back(s.Next());
  return out;
}

void TestStreams() {
  for (RequestStream::Kind kind :
       {RequestStream::Kind::kUniform, RequestStream::Kind::kHotKey}) {
    std::vector<RequestSpec> a = Draw(kind, 7, 3, 2000);
    CHECK(a == Draw(kind, 7, 3, 2000));  // same seed, same stream
    CHECK(!(a == Draw(kind, 8, 3, 2000)));
    CHECK(!(a == Draw(kind, 7, 4, 2000)));
    std::set<uint8_t> templates;
    for (const RequestSpec& r : a) {
      templates.insert(r.tmpl);
      CHECK(r.tmpl < kNumTemplates);
      CHECK(r.c < kMarchDays);
      if (r.tmpl == kQ1) {
        CHECK(r.a < kTypes && r.b < kRegions && r.d < kPids);
      } else {
        CHECK(r.a < kSubscribers);
      }
    }
    CHECK(templates.size() == kNumTemplates);
  }

  // Uniform draws are spelled forward and almost never repeat.
  std::vector<RequestSpec> u = Draw(RequestStream::Kind::kUniform, 7, 3, 2000);
  std::set<uint64_t> distinct;
  for (const RequestSpec& r : u) {
    CHECK(r.reversed == 0);
    distinct.insert(r.AnswerKey());
  }
  CHECK(distinct.size() > 1900);

  // Hot-key draws: a fixed hot set shared by every stream of a seed, Zipf
  // skewed, in both spellings.
  std::vector<RequestSpec> h = Draw(RequestStream::Kind::kHotKey, 7, 3, 20000);
  std::vector<RequestSpec> other =
      Draw(RequestStream::Kind::kHotKey, 7, 9, 20000);
  std::set<uint64_t> hot, hot_other;
  size_t reversed = 0;
  std::vector<size_t> freq;
  std::vector<uint64_t> keys;
  for (const RequestSpec& r : h) {
    hot.insert(r.AnswerKey());
    reversed += r.reversed;
    size_t i = 0;
    while (i < keys.size() && keys[i] != r.AnswerKey()) ++i;
    if (i == keys.size()) {
      keys.push_back(r.AnswerKey());
      freq.push_back(0);
    }
    ++freq[i];
  }
  for (const RequestSpec& r : other) hot_other.insert(r.AnswerKey());
  CHECK(hot.size() <= RequestStream::kHotTuples);
  CHECK(hot.size() > 100);
  size_t shared = 0;
  for (uint64_t k : hot_other) shared += hot.count(k);
  CHECK(shared == hot_other.size());
  CHECK(reversed > 9000 && reversed < 11000);
  size_t top = 0;
  for (size_t i = 0; i < freq.size(); ++i) {
    if (freq[i] > freq[top]) top = i;
  }
  CHECK(freq[top] > h.size() / 10);  // rank 1 of Zipf(1.2) over 256: ~25%
  CHECK((keys[top] >> 40) == kQ1);   // rank k is of template k mod 5

  // The two spellings hold the same conjuncts.
  RequestSpec q1 = h.front();
  q1.tmpl = kQ1;
  RequestSpec q1r = q1;
  q1.reversed = 0;
  q1r.reversed = 1;
  std::string fwd = RenderSql(q1), rev = RenderSql(q1r);
  CHECK(fwd != rev);
  CHECK(fwd.size() == rev.size());
  CHECK(q1.AnswerKey() == q1r.AnswerKey());

  // Writes are deterministic and dated April 2016.
  std::vector<beas::Row> w1 = MakeWriteRows(5), w2 = MakeWriteRows(5);
  CHECK(w1.size() == kRowsPerWrite);
  for (size_t i = 0; i < w1.size(); ++i) {
    CHECK(w1[i].size() == 8);
    CHECK(w1[i][2].AsDate() >= 20160401 && w1[i][2].AsDate() <= 20160430);
    for (size_t j = 0; j < w1[i].size(); ++j) CHECK(w1[i][j] == w2[i][j]);
  }
}

}  // namespace
}  // namespace tlcbench

int main() {
  tlcbench::TestPercentiles();
  tlcbench::TestSampleCountRule();
  tlcbench::TestWindows();
  tlcbench::TestSelfTimes();
  tlcbench::TestStreams();
  if (tlcbench::failures > 0) {
    std::fprintf(stderr, "tlcbench_test: %d check(s) failed\n",
                 tlcbench::failures);
    return 1;
  }
  std::printf("tlcbench_test: all checks passed\n");
  return 0;
}
