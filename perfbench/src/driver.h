// The perfbench driver's workloads. Each one sets up the system under test
// several times (set-up time is a metric), measures a closed loop for the
// requested window, reads the layers' own counters at the window's start
// and end, and checks its outputs against an oracle before reporting.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"
#include "src/exec/run_types.h"
#include "src/graph/stream_graph.h"
#include "src/runtime/kernel.h"
#include "src/runtime/message.h"

namespace perfbench {

// Set-ups per wide_ladder run; setup_s is their median (filtered_ingest,
// whose set-up is far shorter, takes more; service_mix: run.py).
inline constexpr std::size_t kSetupReps = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path for --trace runs ("" = none)
  // service_mix only: the daemon under test.
  std::string socket;
  int daemon_pid = 0;
};

struct Result {
  bool correct = true;
  std::vector<std::string> errors;  // oracle mismatches and failures
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Counters e2e;    // end-to-end metrics (untraced window)
  Counters layer;  // per-layer metrics (traced window)
  Counters info;   // sample counts, worker counts, sizes

  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

// Splits the measurement window: an untraced run gives the end-to-end
// metrics; with tracing on, a second, traced half gives the per-layer
// metrics and the throughput difference between the halves. Both halves of
// a traced run carry the same monitoring load (counter reads, STATS
// sampling), so that difference is the spans' cost alone.
struct Window {
  double untraced_s = 0.0;
  double traced_s = 0.0;
};
[[nodiscard]] Window split_window(const Options& o);

// Unmeasured run time between the last set-up and the window: throughput
// climbs for about a second after a pool starts.
inline constexpr double kSettleSeconds = 1.0;

// The phases of one run, in order; tallies are kept per phase.
enum Phase : std::size_t {
  kWarmup = 0,
  kUntraced = 1,
  kTraced = 2,
  kTail = 3,  // draining after the window closed
  kPhases = 4,
};

// What one window measured: wall time, CPU of the system under test, and
// the items it accepted.
struct WindowTotals {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double items = 0.0;
};

// Sets throughput_items_per_s and cpu_us_per_item over the whole untraced
// window, and rtt_p50_us and rtt_p99_us over all its round-trip samples (in
// ns). A run whose p50 breaks the percentile rule fails when `required`;
// the p99 is informational and only flagged (info rtt_p99_us.supported).
void report_window(Result* r, const WindowTotals& w, const SampleSet& rtt,
                   bool required);

[[nodiscard]] Result run_filtered_ingest(const Options& o);
[[nodiscard]] Result run_wide_ladder(const Options& o);
[[nodiscard]] Result run_service_mix(const Options& o);
// One daemon set-up measurement: connect + open the interactive stream,
// report that time (info interactive.open_ms), finish, exit.
[[nodiscard]] Result run_service_probe(const Options& o);

// Delivered sequence numbers of the first `items` inputs on the Sim
// backend -- the oracle every concurrent run is compared against.
[[nodiscard]] std::vector<std::uint64_t> sim_delivered(
    const sdaf::StreamGraph& g,
    const std::vector<std::shared_ptr<sdaf::runtime::Kernel>>& kernels,
    const sdaf::exec::RunSpec& run, std::uint64_t items);

// Median of a small sample (set-up repetitions).
[[nodiscard]] double median(std::vector<double> v);

// Puts the quantile of `samples` into `out[name]` scaled by `scale`,
// its sample count into info[name + ".samples"] and whether the percentile
// rule holds into info[name + ".supported"]; records an error when
// `required` and the rule is not met.
void put_quantile(Result* r, Counters* out, const std::string& name,
                  const SampleSet& samples, double q, double scale,
                  bool required);

[[nodiscard]] double value_or_zero(const Counters& c, const std::string& key);

// True when `v` holds `seq` as an int64: every relay in the workloads carries
// the value its source was given (or fired with) to the sink unchanged.
[[nodiscard]] bool carries_seq(const sdaf::runtime::Value& v, std::uint64_t seq);

// Per-layer runtime/pool/qos metrics from one counter window. The window's
// keys are the same for every workload: ch.* (channel traffic), node.fires,
// pool.* (scheduler counters summed over workers) and lane.<tenant>.*.
void derive_layers(const Counters& delta, double items, double wall_s,
                   double cpu_s, Counters* layer);

void check_window_counters(Result* r, const WindowDiff& w);

// The net and service-only qos metrics, which the in-process workloads do
// not reach: reported as 0, the "flat" prediction.
void zero_service_layers(Counters* layer);

}  // namespace perfbench
