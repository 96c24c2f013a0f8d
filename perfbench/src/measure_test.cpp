// Self-tests for the measurement primitives: the percentile rule, counter
// window diffing, and parsing of the sdafd STATS families the benchmark
// reads. Run: perfbench_tests (exit 0 = all pass).
#include <cmath>
#include <cstdio>
#include <string>

#include "measure.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

std::vector<double> iota(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentile_rule() {
  // 1000 samples: p99 is the 990th, with exactly 10 beyond -> supported.
  const Quantile p99 = quantile(iota(1000), 0.99);
  CHECK(p99.value == 990.0);
  CHECK(p99.beyond == 10);
  CHECK(p99.count == 1000);
  CHECK(p99.supported);
  // 999 samples leave only 9 beyond the p99 rank -> not supported.
  const Quantile short99 = quantile(iota(999), 0.99);
  CHECK(short99.beyond == 9);
  CHECK(!short99.supported);
  // Median of an odd count is the middle sample.
  const Quantile p50 = quantile(iota(21), 0.50);
  CHECK(p50.value == 11.0);
  CHECK(p50.supported);
  // Empty input: zero count, unsupported.
  const Quantile none = quantile({}, 0.5);
  CHECK(none.count == 0 && !none.supported);
}

void test_sample_set() {
  SampleSet s(100, 7);
  for (int i = 0; i < 10000; ++i) s.add(static_cast<double>(i));
  CHECK(s.count() == 10000);
  CHECK(s.sorted().size() == 100);
  CHECK(s.sum() == 10000.0 * 9999.0 / 2.0);
  // The reservoir is a spread-out subset, not the first 100 samples.
  CHECK(s.sorted().back() > 5000.0);
  SampleSet a(8);
  SampleSet b(8);
  a.add(1);
  b.add(2);
  a.merge(b);
  CHECK(a.count() == 2 && a.sorted().size() == 2);
}

void test_counter_window() {
  const Counters start = {{"frames", 100}, {"fires", 5}};
  const Counters end = {{"frames", 160}, {"fires", 5}, {"new", 3}};
  const WindowDiff w = diff_window(start, end);
  CHECK(w.delta.at("frames") == 60);
  CHECK(w.delta.at("fires") == 0);
  CHECK(w.delta.at("new") == 3);  // absent at start counts from zero
  CHECK(w.went_backwards.empty());
  // A reset between the reads, or a counter that vanished, is reported.
  const WindowDiff bad = diff_window({{"frames", 10}, {"gone", 1}}, {{"frames", 4}});
  CHECK(bad.went_backwards.size() == 2);
}

const char* kStatsPage =
    "# HELP sdaf_channel_data_pushed_total Data items pushed.\n"
    "# TYPE sdaf_channel_data_pushed_total counter\n"
    "sdaf_channel_data_pushed_total{tenant=\"batch/2\",edge=\"0\",from=\"a\",to=\"b\"} 40\n"
    "sdaf_channel_data_pushed_total{tenant=\"batch/3\",edge=\"0\",from=\"a\",to=\"b\"} 2\n"
    "sdaf_worker_futex_parks_total{tenant=\"interactive/1\",worker=\"0\"} 7\n"
    "sdaf_worker_futex_parks_total{tenant=\"interactive/1\",worker=\"1\"} 5\n"
    "sdaf_worker_futex_parks_total{tenant=\"batch/2\",worker=\"0\"} 7\n"
    "sdaf_tenant_queue_depth_max{tenant=\"interactive\"} 3\n"
    "sdaf_tenant_queue_depth_max{tenant=\"batch\"} 9\n"
    "sdaf_tenant_sched_dequeued_total{tenant=\"interactive\"} 1200\n"
    "sdaf_tenant_sched_dequeued_total{tenant=\"batch\"} 3400\n"
    "sdaf_tenant_credits_in_flight{tenant=\"batch\"} 17\n"
    "sdaf_tenant_credits_in_flight{tenant=\"we\\\"ird\"} 1\n"
    "sdafd_frames_total 123456\n"
    "sdafd_push_timeouts_total 0\n";

void test_stats_parse() {
  const auto page = parse_prometheus(kStatsPage);
  CHECK(page.has_value());
  if (!page) return;
  CHECK(prom_sum(*page, "sdafd_frames_total").value_or(-1) == 123456);
  CHECK(prom_sum(*page, "sdafd_push_timeouts_total").value_or(-1) == 0);
  CHECK(prom_max(*page, "sdaf_tenant_queue_depth_max", {{"tenant", "batch"}})
            .value_or(-1) == 9);
  CHECK(prom_sum(*page, "sdaf_tenant_sched_dequeued_total",
                 {{"tenant", "interactive"}})
            .value_or(-1) == 1200);
  CHECK(prom_max(*page, "sdaf_tenant_credits_in_flight", {{"tenant", "batch"}})
            .value_or(-1) == 17);
  CHECK(prom_max(*page, "sdaf_tenant_credits_in_flight", {{"tenant", "we\"ird"}})
            .value_or(-1) == 1);
  // Prefix match sums one family across streams; per-stream pool counters
  // are read from a single stream's labels.
  CHECK(prom_sum(*page, "sdaf_channel_data_pushed_total", {{"tenant", "*"}})
            .value_or(-1) == 42);
  CHECK(prom_sum(*page, "sdaf_worker_futex_parks_total",
                 {{"tenant", "interactive/*"}})
            .value_or(-1) == 12);
  CHECK(!prom_sum(*page, "sdaf_missing_total").has_value());
  // Malformed sample lines fail the whole parse.
  CHECK(!parse_prometheus("sdafd_frames_total\n").has_value());
  CHECK(!parse_prometheus("x{tenant=\"a} 1\n").has_value());
  CHECK(!parse_prometheus("x{tenant=\"a\"} nope\n").has_value());
}

void test_json() {
  JsonObject o;
  o.num("a", 0.1).integer("b", 3).str("c", "q\"x\n").boolean("d", false);
  CHECK(o.done() ==
        "{\"a\": 0.10000000000000001, \"b\": 3, \"c\": \"q\\\"x\\n\", "
        "\"d\": false}");
}

void test_span_log() {
  SpanLog log({"root", "child"}, 2);
  const std::uint32_t root = log.record(0, 9, 100, 200);
  CHECK(root == 1);
  CHECK(log.record(1, 9, 120, 150, root) == 2);
  CHECK(log.record(1, 9, 160, 170, root) == 0);  // over the stored cap
  CHECK(log.durations(1).count() == 2);         // still timed
  CHECK(log.busy_ns(1) == 40.0);
  CHECK(log.spans()[1].parent == root && log.spans()[1].id == 9);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_sample_set();
  test_counter_window();
  test_stats_parse();
  test_json();
  test_span_log();
  if (g_failures == 0) std::printf("perfbench_tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
