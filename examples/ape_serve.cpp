/// \file ape_serve.cpp
/// The estimation daemon (DESIGN.md section 11): serve estimate /
/// synthesize / simulate requests over a Unix socket until SIGTERM (or
/// SIGINT), then drain gracefully and exit 0.
///
///   ape_serve --socket /tmp/ape.sock --max-in-flight 2 --queue 4
///
/// Every synthesize request runs under the supervisor's fixed recovery
/// ladder (forced numerical-health recovery, then relaxed tolerances,
/// then the APE estimate-only fallback; DESIGN.md section 10).
///
/// SIGTERM starts the drain: the listener closes, in-flight requests get
/// drain_grace_s to finish (each one is answered — completed, degraded
/// or shed "draining"), the stats flush to stderr and the process exits
/// 0. A second SIGTERM falls back to the default disposition (kill).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/estimator/process.h"
#include "src/serve/server.h"
#include "src/util/error.h"
#include "src/util/signal.h"

namespace {

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "ape_serve: %s\n", msg.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  ape::serve::ServeOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--socket") {
      options.socket_path = next();
    } else if (arg == "--max-in-flight") {
      options.max_in_flight = std::atoi(next().c_str());
    } else if (arg == "--queue") {
      options.queue_slots = std::atoi(next().c_str());
    } else if (arg == "--max-connections") {
      options.max_connections = std::atoi(next().c_str());
    } else if (arg == "--quota") {
      options.quota_per_conn = std::atoi(next().c_str());
    } else if (arg == "--max-deadline-s") {
      options.max_deadline_s = std::atof(next().c_str());
    } else if (arg == "--drain-grace-s") {
      options.drain_grace_s = std::atof(next().c_str());
    } else if (arg == "--cache") {
      options.cache_capacity = static_cast<size_t>(std::atol(next().c_str()));
    } else if (arg == "--iters") {
      options.synth_iterations = std::atoi(next().c_str());
    } else if (arg == "--quarantine") {
      options.quarantine_threshold = std::atoi(next().c_str());
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: ape_serve --socket PATH [--max-in-flight N] [--queue N]\n"
          "                 [--max-connections N] [--quota N]\n"
          "                 [--max-deadline-s S] [--drain-grace-s S]\n"
          "                 [--cache N] [--iters N] [--quarantine N]\n"
          "                 [--seed S]\n");
      return 0;
    } else {
      die("unknown option '" + arg + "' (see --help)");
    }
  }
  if (options.socket_path.empty()) die("--socket is required (see --help)");

  // The signal handler cancels this token and tickles the wake pipe; the
  // server's accept loop polls the pipe and starts its drain. The token
  // itself is not the server's drain token (that one fires only after
  // the grace window) — it exists for the handler's contract.
  static ape::CancelToken stop;
  ape::util::install_cancel_on_signal(stop);

  try {
    const ape::est::Process proc = ape::est::Process::default_1u2();
    ape::serve::Server server(proc, options);
    std::fprintf(stderr, "ape_serve: listening on %s (max_in_flight=%d queue=%d)\n",
                 server.socket_path().c_str(), options.max_in_flight,
                 options.queue_slots);
    return server.serve_forever(ape::util::signal_wake_fd());
  } catch (const ape::Error& e) {
    die(e.what());
  }
}
