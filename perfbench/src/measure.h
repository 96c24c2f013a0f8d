// Measurement primitives shared by every perfbench workload: the
// percentile rule, counter windows, the sdafd STATS parser, /proc readers,
// the benchmark-side span tracer and a minimal JSON writer. Nothing here
// links against the system under test, so perfbench_tests covers it alone.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// CLOCK_MONOTONIC nanoseconds.
[[nodiscard]] std::int64_t now_ns();

// ---------------------------------------------------------------- samples

// Latency samples with bounded memory: every sample is kept up to `cap`,
// after which a seeded reservoir keeps a uniform subset. count() is always
// the exact number of samples offered.
class SampleSet {
 public:
  explicit SampleSet(std::size_t cap = std::size_t{1} << 20,
                     std::uint64_t seed = 0x5EED);
  void add(double v);
  [[nodiscard]] std::uint64_t count() const { return seen_; }
  [[nodiscard]] double sum() const { return sum_; }
  // Kept samples, sorted ascending.
  [[nodiscard]] std::vector<double> sorted() const;
  void merge(const SampleSet& other);

 private:
  std::size_t cap_;
  std::uint64_t rng_;
  std::uint64_t seen_ = 0;
  double sum_ = 0.0;
  std::vector<double> kept_;
};

// The percentile rule: a percentile is reported only when at least
// kMinBeyond samples lie beyond it, and always with its sample count.
inline constexpr std::uint64_t kMinBeyond = 10;

struct Quantile {
  double value = 0.0;
  std::uint64_t count = 0;   // samples the quantile was taken over
  std::uint64_t beyond = 0;  // samples strictly above its rank
  bool supported = false;    // beyond >= kMinBeyond
};

// Nearest-rank quantile (rank = ceil(q * n), 1-based) over sorted samples.
[[nodiscard]] Quantile quantile(const std::vector<double>& sorted, double q);

// ---------------------------------------------------------- counter windows

using Counters = std::map<std::string, double>;

// end - start per key (a key missing at start counts from 0). A counter
// that went backwards means the two reads do not bracket one window (a
// reset or a different source); that is reported, not clamped.
struct WindowDiff {
  Counters delta;
  std::vector<std::string> went_backwards;
};
[[nodiscard]] WindowDiff diff_window(const Counters& start, const Counters& end);

// ------------------------------------------------------------ STATS parser

struct PromSample {
  std::string family;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

// Parses a Prometheus text exposition page (the sdafd STATS reply).
// Comment lines are skipped; a malformed sample line makes the parse fail.
[[nodiscard]] std::optional<std::vector<PromSample>> parse_prometheus(
    const std::string& text);

// Sum of `family` over samples whose labels contain every (key, value) in
// `match`; a label value ending in '*' matches by prefix. nullopt = the
// family has no matching sample.
[[nodiscard]] std::optional<double> prom_sum(
    const std::vector<PromSample>& samples, const std::string& family,
    const std::map<std::string, std::string>& match = {});

// Max of `family` over matching samples (gauges such as *_max).
[[nodiscard]] std::optional<double> prom_max(
    const std::vector<PromSample>& samples, const std::string& family,
    const std::map<std::string, std::string>& match = {});

// ------------------------------------------------------------------ /proc

// utime + stime of a process in seconds (/proc/<pid>/stat; 0 = self).
[[nodiscard]] double process_cpu_seconds(int pid = 0);
// VmHWM of a process in MiB (/proc/<pid>/status; 0 = self).
[[nodiscard]] double peak_rss_mib(int pid = 0);

// ----------------------------------------------------------------- tracing

// Spans recorded by the benchmark around its calls into each layer. Each
// thread owns one SpanLog (no synchronisation on the hot path); spans stay
// in memory and are written out once the run ends. Durations are also
// folded into a per-name SampleSet so per-layer percentiles cover every
// call even after the stored-span cap is reached.
struct Span {
  std::uint32_t name = 0;     // index into the log's name table
  std::uint32_t parent = 0;   // 1-based index of the parent span, 0 = root
  std::uint64_t id = 0;       // round-trip id shared by related spans
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::vector<std::string> names,
                   std::size_t max_stored = std::size_t{1} << 14);
  // Records one span; returns its 1-based index (0 when not stored).
  std::uint32_t record(std::uint32_t name, std::uint64_t id,
                       std::int64_t start_ns, std::int64_t end_ns,
                       std::uint32_t parent = 0);
  [[nodiscard]] const SampleSet& durations(std::uint32_t name) const {
    return durations_[name];
  }
  [[nodiscard]] double busy_ns(std::uint32_t name) const {
    return durations_[name].sum();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // Appends the stored spans as Chrome trace events (one object per line).
  void append_chrome_events(std::string* out, int tid) const;

 private:
  std::vector<std::string> names_;
  std::size_t max_stored_;
  std::vector<Span> spans_;
  std::vector<SampleSet> durations_;
};

// Writes every log's spans to `path` as a Chrome trace (chrome://tracing).
bool write_trace(const std::string& path, const std::vector<const SpanLog*>& logs);

// --------------------------------------------------------------------- JSON

// Flat JSON object writer: numbers keep every digit (%.17g).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& integer(const std::string& key, std::int64_t v);
  JsonObject& boolean(const std::string& key, bool v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

[[nodiscard]] std::string json_escape(const std::string& s);

}  // namespace perfbench
