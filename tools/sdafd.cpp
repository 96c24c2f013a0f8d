// sdafd -- the sdaf service daemon. Binds a Unix-domain and/or TCP
// listener, speaks the framed wire protocol (docs/PROTOCOL.md), and
// multiplexes client streams onto pooled exec::Streams through one
// poll()-driven event loop (src/net/server.h).
//
//   sdafd --unix=/tmp/sdafd.sock
//   sdafd --tcp --port=7411 --host=0.0.0.0 --workers=8
//   sdafd --unix=PATH --tcp --port=0          # both; port 0 = ephemeral
//
// On startup the daemon prints one line per bound listener to stdout
// ("listening unix PATH" / "listening tcp HOST:PORT") and flushes, so
// harnesses can wait for readiness and discover an ephemeral port.
//
// SIGTERM/SIGINT begin a graceful drain: listeners close immediately,
// live connections get --drain-grace-ms to Finish their streams, then the
// loop exits and teardown aborts whatever remains. A second signal forces
// an immediate stop.
//
// Exit status: 0 clean shutdown, 1 bind failure, 2 usage.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/net/server.h"

using namespace sdaf;

namespace {

net::Server* g_server = nullptr;
volatile std::sig_atomic_t g_signals = 0;

// Async-signal-safe: request_drain/request_stop are plain atomic stores.
void on_signal(int) {
  if (g_server == nullptr) return;
  const std::sig_atomic_t seen = g_signals;
  g_signals = seen + 1;
  if (seen == 0)
    g_server->request_drain();
  else
    g_server->request_stop();
}

int usage() {
  std::fprintf(
      stderr,
      "usage: sdafd [--unix=PATH] [--tcp] [--host=H] [--port=P]\n"
      "             [--workers=N] [--push-wait-ms=MS] [--drain-grace-ms=MS]\n"
      "             [qos budget flags, see below]\n"
      "  --unix=PATH        listen on a Unix-domain socket at PATH\n"
      "  --tcp              listen on TCP (default host 127.0.0.1)\n"
      "  --host=H           TCP bind address\n"
      "  --port=P           TCP port (0 = ephemeral, printed on stdout)\n"
      "  --workers=N        shared pool workers (0 = hardware concurrency)\n"
      "  --push-wait-ms=MS  per-push ingress deadline (default 50)\n"
      "  --drain-grace-ms=MS  grace after SIGTERM/SIGINT (default 2000)\n"
      "qos admission budgets (0 = unlimited, the default; docs/QOS.md):\n"
      "  --max-channel-bytes=N   certified channel memory across streams\n"
      "  --max-channel-slots=N   certified channel slots across streams\n"
      "  --max-nodes=N           total graph nodes on the shared pool\n"
      "  --max-tenants=N         distinct tenants with live streams\n"
      "  --max-streams-per-tenant=N\n"
      "  --max-dummy-ratio=R     per-stream predicted overhead cap (float)\n"
      "  --tenant-credits=N      per-tenant in-flight item window\n"
      "At least one of --unix / --tcp is required.\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_f64(const char* s, double* out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v >= 0.0)) return false;  // NaN fails
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  net::ServerOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t n = 0;
    if (arg.rfind("--unix=", 0) == 0) {
      opt.unix_path = arg.substr(7);
    } else if (arg == "--tcp") {
      opt.tcp = true;
    } else if (arg.rfind("--host=", 0) == 0) {
      opt.tcp = true;
      opt.host = arg.substr(7);
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 7, &n) || n > 65535) return usage();
      opt.tcp = true;
      opt.tcp_port = static_cast<std::uint16_t>(n);
    } else if (arg.rfind("--workers=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 10, &n)) return usage();
      opt.pool_workers = static_cast<std::size_t>(n);
    } else if (arg.rfind("--push-wait-ms=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 15, &n)) return usage();
      opt.push_wait = std::chrono::milliseconds(n);
    } else if (arg.rfind("--drain-grace-ms=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 17, &n)) return usage();
      opt.drain_grace = std::chrono::milliseconds(n);
    } else if (arg.rfind("--max-channel-bytes=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 20, &n)) return usage();
      opt.budgets.max_channel_bytes = n;
    } else if (arg.rfind("--max-channel-slots=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 20, &n)) return usage();
      opt.budgets.max_channel_slots = n;
    } else if (arg.rfind("--max-nodes=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 12, &n)) return usage();
      opt.budgets.max_nodes = n;
    } else if (arg.rfind("--max-tenants=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 14, &n)) return usage();
      opt.budgets.max_tenants = n;
    } else if (arg.rfind("--max-streams-per-tenant=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 25, &n)) return usage();
      opt.budgets.max_streams_per_tenant = n;
    } else if (arg.rfind("--max-dummy-ratio=", 0) == 0) {
      double r = 0.0;
      if (!parse_f64(arg.c_str() + 18, &r)) return usage();
      opt.budgets.max_dummy_ratio = r;
    } else if (arg.rfind("--tenant-credits=", 0) == 0) {
      if (!parse_u64(arg.c_str() + 17, &n)) return usage();
      opt.tenant_credits = n;
    } else {
      std::fprintf(stderr, "sdafd: unknown flag %s\n", arg.c_str());
      return usage();
    }
  }
  if (opt.unix_path.empty() && !opt.tcp) return usage();

  net::Server server(std::move(opt));
  if (!server.start()) return 1;
  g_server = &server;
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  if (!server.unix_path().empty())
    std::printf("listening unix %s\n", server.unix_path().c_str());
  if (server.tcp_port() != 0)
    std::printf("listening tcp %u\n", static_cast<unsigned>(server.tcp_port()));
  std::fflush(stdout);

  server.run();

  const net::ServiceStats s = server.stats();
  std::fprintf(stderr,
               "sdafd: done (connections=%llu streams=%llu frames=%llu "
               "errors=%llu in=%llu out=%llu)\n",
               static_cast<unsigned long long>(s.connections_total),
               static_cast<unsigned long long>(s.streams_total),
               static_cast<unsigned long long>(s.frames_total),
               static_cast<unsigned long long>(s.errors_total),
               static_cast<unsigned long long>(s.items_in_total),
               static_cast<unsigned long long>(s.items_out_total));
  return 0;
}
