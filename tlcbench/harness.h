#ifndef TLCBENCH_HARNESS_H_
#define TLCBENCH_HARNESS_H_

// Measurement helpers of the TLC serving benchmark: latency summaries that
// refuse to print a percentile the sample cannot support, and an in-memory
// span recorder whose per-layer self times the traced run reports.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tlcbench {

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Number of samples strictly beyond the nearest-rank `q`-quantile of `n`
/// samples (rank ceil(q * n), 1-based).
size_t SamplesBeyond(size_t n, double q);

/// A percentile is reported only when at least this many samples lie
/// beyond it.
constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank quantile of an ascending-sorted sample; 0 when empty.
double QuantileSorted(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (sorts a copy); 0 when empty.
double Median(std::vector<double> values);

/// \brief A latency distribution: count, median and p99, with p99 marked
/// unsupported when fewer than kMinSamplesBeyond samples lie beyond it.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  bool p99_supported = false;
};

LatencySummary Summarize(std::vector<double> values);

/// \brief A timed phase cut into equal windows, summarized by the median
/// over windows of the completion rate and of the p99 latency, so that a
/// disturbance confined to a few windows moves neither.
struct WindowedSummary {
  size_t windows = 0;
  std::vector<double> rates;  ///< per window, completions per second
  std::vector<double> p99s;   ///< per window
  double median_rate = 0;
  double median_p99 = 0;
  size_t min_window_count = 0;
  /// Every window holds kMinSamplesBeyond samples beyond its p99.
  bool p99_supported = false;
};

/// `done_s[i]` is when sample i completed (seconds into the phase) and
/// `latency[i]` its latency. Samples completing after the last whole
/// window are left out.
WindowedSummary SummarizeWindows(const std::vector<double>& done_s,
                                 const std::vector<double>& latency,
                                 double window_s, size_t windows);

/// The windows of several phases as one summary: medians over all their
/// windows, p99 supported only if it is in every part.
WindowedSummary PoolWindows(const std::vector<WindowedSummary>& parts);

/// \brief One timed interval of the benchmark's own calls into a layer.
struct Span {
  const char* name = "";  ///< static string: "<layer>.<call>"
  uint64_t request = 0;   ///< replayed request id (shared by its spans)
  int64_t parent = -1;    ///< index of the enclosing span, -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// \brief Spans kept in memory for the whole run and written out at exit.
/// Single-threaded: the traced replay issues one request at a time.
class SpanRecorder {
 public:
  /// Opens a span under the innermost open span; returns its index.
  size_t Begin(const char* name, uint64_t request);
  /// Closes span `index` (must be the innermost open one).
  void End(size_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Appends another recorder's closed spans, re-basing parent indices.
  void Append(const SpanRecorder& other);

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Self time of every span: its duration minus the part of it its direct
/// children cover (overlapping children are merged, and clipped to the
/// parent).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Runs `fn` inside a span named `name`; returns its duration in µs.
template <typename Fn>
double TimedSpan(SpanRecorder* recorder, const char* name, uint64_t request,
                 Fn&& fn) {
  size_t index = recorder->Begin(name, request);
  fn();
  recorder->End(index);
  const Span& span = recorder->spans()[index];
  return static_cast<double>(span.end_ns - span.start_ns) / 1e3;
}

/// \brief RAII span; `recorder` may be null (tracing off).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t request)
      : recorder_(recorder),
        index_(recorder == nullptr ? 0 : recorder->Begin(name, request)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  size_t index_;
};

/// \brief Per-name aggregate of span self times.
struct LayerSelfTime {
  std::string name;
  size_t count = 0;
  double median_us = 0;
  double total_ms = 0;
};

/// Groups spans by name (in first-appearance order).
std::vector<LayerSelfTime> AggregateSelfTimes(const SpanRecorder& recorder);

}  // namespace tlcbench

#endif  // TLCBENCH_HARNESS_H_
