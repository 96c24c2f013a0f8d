// perfbench_driver -- runs one perfbench workload and prints one JSON line
// (correctness, operation counts, metrics, build stamp). perfbench/run.py
// builds it, manages the sdafd daemon for service_mix, and turns this line
// into the benchmark's result.
//
//   perfbench_driver --workload=filtered_ingest --seed=3 --seconds=10
//   perfbench_driver --workload=service_mix --socket=PATH --daemon-pid=PID
//                    [--trace=1 --trace-out=FILE]
//
// Exit status: 0 outputs correct, 1 oracle mismatch or failure, 2 usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "driver.h"

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload=NAME [--seed=N] "
               "[--seconds=S] [--trace=0|1]\n"
               "       [--trace-out=FILE] [--socket=PATH --daemon-pid=PID]\n"
               "workloads: filtered_ingest wide_ladder service_mix "
               "service_probe\n");
  return 2;
}

std::string counters_json(const Counters& c) {
  JsonObject o;
  for (const auto& [k, v] : c) o.num(k, v);
  return o.done();
}

bool value_of(const std::string& arg, const char* flag, std::string* out) {
  const std::string prefix = std::string(flag) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    char* end = nullptr;
    if (value_of(arg, "--workload", &v)) {
      o.workload = v;
    } else if (value_of(arg, "--seed", &v)) {
      o.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (value_of(arg, "--seconds", &v)) {
      o.seconds = std::strtod(v.c_str(), &end);
      if (!(o.seconds > 0.0)) return usage();
    } else if (value_of(arg, "--trace", &v)) {
      o.trace = v == "1";
    } else if (value_of(arg, "--trace-out", &v)) {
      o.trace_out = v;
    } else if (value_of(arg, "--socket", &v)) {
      o.socket = v;
    } else if (value_of(arg, "--daemon-pid", &v)) {
      o.daemon_pid = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown flag %s\n", arg.c_str());
      return usage();
    }
  }

  Result r;
  try {
    if (o.workload == "filtered_ingest") {
      r = run_filtered_ingest(o);
    } else if (o.workload == "wide_ladder") {
      r = run_wide_ladder(o);
    } else if (o.workload == "service_mix" || o.workload == "service_probe") {
      if (o.socket.empty() || o.daemon_pid <= 0) return usage();
      r = o.workload == "service_mix" ? run_service_mix(o) : run_service_probe(o);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    r.fail(std::string("exception: ") + e.what());
  }
  if (o.trace && o.workload != "service_probe") {
    // Tracing overhead: the traced half's whole-window throughput against
    // the untraced half's, both measured in this run under the same
    // monitoring load.
    const double untraced = value_or_zero(r.e2e, "throughput_items_per_s");
    const double traced = value_or_zero(r.info, "trace.throughput_items_per_s");
    r.layer["trace.overhead_frac"] = untraced > 0 ? 1.0 - traced / untraced : 0.0;
  }

  std::string errors = "[";
  for (std::size_t i = 0; i < r.errors.size(); ++i)
    errors += (i ? ", \"" : "\"") + json_escape(r.errors[i]) + "\"";
  errors += "]";
  JsonObject stamp;
  stamp.str("compiler", PERFBENCH_COMPILER)
      .str("build_type", PERFBENCH_BUILD_TYPE)
#ifdef NDEBUG
      .boolean("ndebug", true);
#else
      .boolean("ndebug", false);
#endif
  JsonObject out;
  out.str("workload", o.workload)
      .boolean("correct", r.correct)
      .raw("errors", errors)
      .integer("attempted", static_cast<std::int64_t>(r.attempted))
      .integer("failed", static_cast<std::int64_t>(r.failed))
      .raw("e2e", counters_json(r.e2e))
      .raw("layer", counters_json(r.layer))
      .raw("info", counters_json(r.info))
      .raw("stamp", stamp.done());
  std::printf("%s\n", out.done().c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
