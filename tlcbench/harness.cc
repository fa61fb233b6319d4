#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace tlcbench {

namespace {

/// Nearest rank (1-based) of quantile `q` among `n` samples.
size_t Rank(size_t n, double q) {
  if (n == 0) return 0;
  double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::min(n, std::max<size_t>(1, static_cast<size_t>(r)));
}

}  // namespace

size_t SamplesBeyond(size_t n, double q) { return n - Rank(n, q); }

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[Rank(sorted.size(), q) - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, 0.5);
}

LatencySummary Summarize(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  LatencySummary s;
  s.count = values.size();
  s.p50 = QuantileSorted(values, 0.5);
  s.p99 = QuantileSorted(values, 0.99);
  s.p99_supported = SamplesBeyond(values.size(), 0.99) >= kMinSamplesBeyond;
  return s;
}

WindowedSummary SummarizeWindows(const std::vector<double>& done_s,
                                 const std::vector<double>& latency,
                                 double window_s, size_t windows) {
  std::vector<std::vector<double>> per_window(windows);
  for (size_t i = 0; i < done_s.size() && i < latency.size(); ++i) {
    double w = std::floor(done_s[i] / window_s);
    if (w >= 0 && w < static_cast<double>(windows)) {
      per_window[static_cast<size_t>(w)].push_back(latency[i]);
    }
  }
  WindowedSummary s;
  s.windows = windows;
  s.p99_supported = windows > 0;
  s.min_window_count = windows > 0 ? per_window[0].size() : 0;
  for (std::vector<double>& window : per_window) {
    LatencySummary l = Summarize(std::move(window));
    s.rates.push_back(static_cast<double>(l.count) / window_s);
    s.p99s.push_back(l.p99);
    s.p99_supported = s.p99_supported && l.p99_supported;
    s.min_window_count = std::min(s.min_window_count, l.count);
  }
  s.median_rate = Median(s.rates);
  s.median_p99 = Median(s.p99s);
  return s;
}

WindowedSummary PoolWindows(const std::vector<WindowedSummary>& parts) {
  WindowedSummary s;
  s.p99_supported = !parts.empty();
  for (const WindowedSummary& part : parts) {
    s.min_window_count = s.windows == 0 ? part.min_window_count
                                        : std::min(s.min_window_count,
                                                   part.min_window_count);
    s.windows += part.windows;
    s.rates.insert(s.rates.end(), part.rates.begin(), part.rates.end());
    s.p99s.insert(s.p99s.end(), part.p99s.begin(), part.p99s.end());
    s.p99_supported = s.p99_supported && part.p99_supported;
  }
  s.median_rate = Median(s.rates);
  s.median_p99 = Median(s.p99s);
  return s;
}

size_t SpanRecorder::Begin(const char* name, uint64_t request) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  spans_.back().start_ns = NowNs();
  return spans_.size() - 1;
}

void SpanRecorder::End(size_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanRecorder::Append(const SpanRecorder& other) {
  int64_t base = static_cast<int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;  // end of the union covered so far
    for (const auto& kid : kids) {
      int64_t lo = std::max(kid.first, cursor);
      int64_t hi = std::min(kid.second, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,"
                 "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 i, s.name, static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<LayerSelfTime> AggregateSelfTimes(const SpanRecorder& recorder) {
  std::vector<int64_t> self = SelfTimesNs(recorder.spans());
  std::vector<LayerSelfTime> out;
  std::vector<std::vector<double>> samples;
  for (size_t i = 0; i < recorder.spans().size(); ++i) {
    const std::string name = recorder.spans()[i].name;
    size_t slot = 0;
    while (slot < out.size() && out[slot].name != name) ++slot;
    if (slot == out.size()) {
      out.push_back(LayerSelfTime{name, 0, 0, 0});
      samples.emplace_back();
    }
    samples[slot].push_back(static_cast<double>(self[i]) / 1e3);
    out[slot].count += 1;
    out[slot].total_ms += static_cast<double>(self[i]) / 1e6;
  }
  for (size_t slot = 0; slot < out.size(); ++slot) {
    out[slot].median_us = Median(std::move(samples[slot]));
  }
  return out;
}

}  // namespace tlcbench
