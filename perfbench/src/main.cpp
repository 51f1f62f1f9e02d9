/// apebench: the repository benchmark.
///
///   apebench --workload <table4_seeded|verify_batch|serve_mixed|yield_mc>
///            --seed <n> --seconds <s> --trace <0|1>
///            [--workdir <dir>] [--source-id <id>]
///
/// Runs a fixed amount of work derived from (seed, seconds), checks the
/// outputs, and prints a run record, then as its last line one JSON
/// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1. A
/// traced run also writes its spans and per-layer table to --workdir.
/// Exits 1 when an output check fails, 2 on bad arguments.


#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.h"

namespace {

using namespace apebench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},      {"ok_frac", "fraction"},
    {"spec_met_frac", "fraction"}, {"ops_per_s", "1/s"},   {"op_ms_p50", "ms"},
    {"op_ms_p90", "ms"},       {"est_ms_tmean", "ms"},       {"gain_err_p50", "fraction"},
    {"ugf_err_p50", "fraction"},
};

constexpr MetricSpec kPerLayer[] = {
    {"synth.evals", "count"},           {"synth.eval_us", "us"},
    {"synth.self_s", "s"},              {"synth.skipped_frac", "fraction"},
    {"spice.verify_ms", "ms"},          {"spice.ac_ms", "ms"},
    {"spice.tran_ms", "ms"},            {"spice.factorizations", "count"},
    {"spice.solves", "count"},          {"spice.ac_points", "count"},
    {"spice.refined_frac", "fraction"}, {"spice.sparse_refactors", "count"},
    {"spice.symbolic_reuses", "count"}, {"spice.sim_failed_frac", "fraction"},
    {"estimator.calls", "count"},       {"estimator.us_per_call", "us"},
    {"estimator.fail_frac", "fraction"},{"runtime.cache_hits", "count"},
    {"runtime.cache_misses", "count"},  {"runtime.cache_hit_frac", "fraction"},
    {"runtime.evictions", "count"},     {"runtime.sweep_self_frac", "fraction"},
    {"runtime.scaling_eff_2t", "fraction"}, {"lint.prove_calls", "count"},
    {"lint.prove_us", "us"},            {"lint.pruned_frac", "fraction"},
    {"stat.points", "count"},           {"stat.mismatch_us", "us"},
    {"stat.point_eval_us", "us"},       {"serve.ping_rtt_us", "us"},
    {"serve.overhead_ms", "ms"},        {"serve.degraded", "count"},
    {"serve.shed", "count"},            {"serve.errors", "count"},
    {"serve.peak_in_flight", "count"},  {"est_lat.p50_ms", "ms"},
    {"est_lat.p90_ms", "ms"},           {"est_lat.p99_ms", "ms"},
    {"trace.overhead_frac", "fraction"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "apebench: %s\nusage: apebench --workload <table4_seeded|verify_batch|"
               "serve_mixed|yield_mc> --seed <n> --seconds <s> --trace <0|1> "
               "[--workdir <dir>] [--source-id <id>]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stoi(v);
      } else if (a == "--trace") {
        o.trace = std::stoi(v) != 0;
      } else if (a == "--workdir") {
        o.workdir = v;
      } else if (a == "--source-id") {
        o.source_id = v;
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.seconds < 1 || o.seconds > 600) usage("--seconds must be in [1, 600]");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string run_record(const Options& o, const Result& r) {
  std::string j = "{\"workload\":" + json_str(o.workload) +
                  ",\"seed\":" + std::to_string(o.seed) +
                  ",\"seconds\":" + std::to_string(o.seconds) +
                  ",\"trace\":" + (o.trace ? "true" : "false") +
                  ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                  ",\"cpu\":" + json_str(cpu_model()) +
                  ",\"compiler\":" + json_str(APEBENCH_COMPILER) +
                  ",\"build_type\":" + json_str(APEBENCH_BUILD_TYPE) +
                  ",\"source\":" + json_str(o.source_id) +
                  ",\"ops\":" + std::to_string(r.attempted) + ",\"samples\":{";
  bool first = true;
  for (const auto& [k, v] : r.samples) {
    j += (first ? "" : ",") + json_str(k) + ":" + std::to_string(v);
    first = false;
  }
  j += "}";
  for (const auto& [k, v] : r.record) j += "," + json_str(k) + ":" + json_str(v);
  return j + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  Tracer::instance().enable(opt.trace);

  Result r;
  try {
    if (opt.workload == "table4_seeded") {
      r = run_table4_seeded(opt);
    } else if (opt.workload == "verify_batch") {
      r = run_verify_batch(opt);
    } else if (opt.workload == "serve_mixed") {
      r = run_serve_mixed(opt);
    } else if (opt.workload == "yield_mc") {
      r = run_yield_mc(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apebench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  // Layers a workload does not exercise report 0 in a traced run.
  std::string metrics;
  const MetricSpec* begin = opt.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec* end = opt.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  char buf[128];
  for (const MetricSpec* m = begin; m != end; ++m) {
    const auto it = r.metrics.find(m->name);
    const double v = it == r.metrics.end() ? 0.0 : it->second;
    if (!opt.trace && it == r.metrics.end()) r.check(false, std::string("missing metric ") + m->name);
    if (!std::isfinite(v)) r.check(false, std::string("non-finite metric ") + m->name);
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    if (!metrics.empty()) metrics += ",";
    metrics += json_str(m->name) + ":{\"value\":" + buf + ",\"unit\":" + json_str(m->unit) + "}";
  }

  const std::string record = run_record(opt, r);
  const std::string stem =
      opt.workdir + "/" + opt.workload + "-s" + std::to_string(opt.seed) + (opt.trace ? "-trace" : "");
  std::ofstream(stem + ".run.json") << record << "\n";
  if (opt.trace) {
    Tracer::instance().write_jsonl(stem + ".spans.jsonl");
    const std::string table = Tracer::instance().layer_table();
    std::ofstream(stem + ".layers.txt") << table;
    std::printf("%s", table.c_str());
  }
  for (const std::string& f : r.check_failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("run %s\n", record.c_str());
  const bool correct = r.check_failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", r.attempted, r.failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
