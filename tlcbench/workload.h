#ifndef TLCBENCH_WORKLOAD_H_
#define TLCBENCH_WORKLOAD_H_

// The benchmark's request streams over the generated TLC dataset: five
// covered templates, parameters drawn uniformly over their generated
// domains or Zipf-skewed over a fixed hot set, each request spelled with
// its WHERE conjuncts forward or reversed. Every draw comes from the
// stream's own seed, so a seed reproduces the same requests.

#include <cstdint>
#include <string>
#include <vector>

#include "types/tuple.h"

namespace tlcbench {

/// SplitMix64: a small, portable generator (identical draws everywhere).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Mixes a seed with a stream id into an independent stream seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// The templates: TLC Q1 (paper Example 2), Q2, Q4, Q5 and Q9.
enum Template : uint8_t { kQ1 = 0, kQ2, kQ4, kQ5, kQ9, kNumTemplates };

const char* TemplateName(uint8_t tmpl);

/// Generated domains at the benchmark's scale (TLC SF 32).
constexpr int kSubscribers = 12800;  ///< pnums 10001..22800
constexpr int kMarchDays = 28;       ///< 2016-03-01..28
constexpr int kTypes = 6;
constexpr int kRegions = 8;
constexpr int kPids = 20;

/// \brief One read request, as indices into the generated domains.
/// Q1 uses (a = type, b = region, c = day, d = pid); the other templates
/// use (a = subscriber offset, c = day); Q4 ignores the day.
struct RequestSpec {
  uint8_t tmpl = kQ1;
  uint8_t reversed = 0;  ///< WHERE conjuncts spelled in reverse order
  uint16_t a = 0;
  uint8_t b = 0;
  uint8_t c = 0;
  uint8_t d = 0;

  /// Identity of the answer: every field but the spelling.
  uint64_t AnswerKey() const;
  bool operator==(const RequestSpec& o) const {
    return tmpl == o.tmpl && reversed == o.reversed && a == o.a &&
           b == o.b && c == o.c && d == o.d;
  }
};

/// The request's SQL text in its spelling.
std::string RenderSql(const RequestSpec& spec);

/// A uniform draw: template uniform over the five, every parameter
/// uniform over its domain, forward spelling.
RequestSpec DrawUniform(Rng* rng);

/// A draw of template `tmpl` with every parameter uniform over its domain.
RequestSpec DrawParams(uint8_t tmpl, Rng* rng);

/// \brief Draws reads for one workload: uniform over the domains, or
/// Zipf(s) over kHotTuples hot requests fixed by the seed alone (so every
/// connection of a run shares one hot set; rank k is of template k mod 5),
/// each spelled forward or reversed with equal odds.
class RequestStream {
 public:
  enum class Kind { kUniform, kHotKey };
  static constexpr size_t kHotTuples = 256;
  static constexpr double kZipfS = 1.2;

  RequestStream(Kind kind, uint64_t seed, uint64_t stream);

  RequestSpec Next();

 private:
  Kind kind_;
  Rng rng_;
  std::vector<RequestSpec> hot_;
  std::vector<double> cdf_;  ///< Zipf CDF over hot_ ranks
};

/// Rows of one write: 8 `call` rows dated April 2016 (outside every
/// read's dates), fully determined by the write's global index.
constexpr size_t kRowsPerWrite = 8;
std::vector<beas::Row> MakeWriteRows(uint64_t write_index);

/// The SQL that counts every row the writes can have produced.
const char* WrittenRowsCountSql();

}  // namespace tlcbench

#endif  // TLCBENCH_WORKLOAD_H_
