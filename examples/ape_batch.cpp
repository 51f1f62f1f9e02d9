/// ape_batch — batch estimation / synthesis over a spec file.
///
/// The service-shaped front end of the batch runtime (DESIGN.md §7):
/// reads opamp specs (one per line, `key=value` tokens), fans them
/// across the runtime::Executor pool with a shared estimate cache, and
/// emits per-job JSON plus aggregate throughput.
///
///   ape_batch                           # built-in Table-1 spec set
///   ape_batch --threads 8 specs.txt     # pooled synthesis batch
///   ape_batch --estimate-only specs.txt # APE estimates only (no anneal)
///   ape_batch --timeout-ms 500 --recover specs.txt     # supervised run
///   ape_batch --checkpoint run.ckpt specs.txt          # checkpointed run
///   ape_batch --resume run.ckpt --checkpoint run.ckpt specs.txt
///   ape_batch --corners all --mc-samples 64 --yield    # PVT + MC yield
///
/// Corner sweeps (DESIGN.md §12): any of --corners/--mc-samples/--yield
/// switches to sweep mode — each spec's nominal design (the APE
/// estimate by default; --synthesize for a full supervised synthesis
/// pass, which also honours --timeout-ms/--recover/--checkpoint/
/// --resume) is evaluated across the selected PVT corners and, with
/// --mc-samples N, across N Pelgrom mismatch draws per corner, and the
/// per-job + pooled YieldReports (pass rates, worst corner, Wilson CI)
/// are emitted. --yield-weight W adds the worst-corner cost term to the
/// annealer in any synthesis mode.
///
/// Synthesis batches run under the supervised runtime (DESIGN.md §10):
/// --timeout-ms bounds each job's wall clock, --recover arms the
/// recovery ladder (a forced numerical-health re-run, a relaxed-tolerance
/// re-run, then the APE estimate-only fallback), --quarantine N trips
/// the circuit breaker after N consecutive failures of the same spec
/// fingerprint, and --checkpoint/--resume persist and restore finished
/// jobs bit-exactly.
///
/// Spec file grammar (one spec per line, '#' starts a comment):
///
///   name=oa0 gain=200 ugf=1.3e6 ibias=1e-6 cload=10e-12
///   name=oa1 gain=500 source=wilson buffer=1 zout=1e3 area=5000e-12
///
/// Unknown keys are rejected; omitted keys keep OpAmpSpec defaults.
/// Output is a single JSON document on stdout (or --out FILE):
/// {"config":{...},"jobs":[...],"aggregate":{...}}.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/batch.h"
#include "src/runtime/cache.h"
#include "src/runtime/supervisor.h"
#include "src/runtime/sweep.h"
#include "src/stat/corners.h"
#include "src/util/error.h"
#include "src/util/signal.h"

using namespace ape;

namespace {

struct NamedSpec {
  std::string name;
  est::OpAmpSpec spec;
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "ape_batch: %s\n", msg.c_str());
  std::exit(2);
}

/// Parse one `key=value` token into \p out.
void apply_token(const std::string& tok, int line_no, NamedSpec& out) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos || eq == 0) {
    die("line " + std::to_string(line_no) + ": expected key=value, got '" +
        tok + "'");
  }
  const std::string key = tok.substr(0, eq);
  const std::string val = tok.substr(eq + 1);
  auto num = [&] {
    try {
      size_t used = 0;
      const double v = std::stod(val, &used);
      if (used != val.size()) throw std::invalid_argument(val);
      return v;
    } catch (const std::exception&) {
      die("line " + std::to_string(line_no) + ": bad number '" + val +
          "' for key '" + key + "'");
    }
  };
  if (key == "name") {
    out.name = val;
  } else if (key == "gain") {
    out.spec.gain = num();
  } else if (key == "ugf") {
    out.spec.ugf_hz = num();
  } else if (key == "ibias") {
    out.spec.ibias = num();
  } else if (key == "cload") {
    out.spec.cload = num();
  } else if (key == "zout") {
    out.spec.zout = num();
  } else if (key == "area") {
    out.spec.area_budget = num();
  } else if (key == "buffer") {
    out.spec.buffer = num() != 0.0;
  } else if (key == "source") {
    if (val == "mirror") {
      out.spec.source = est::CurrentSourceKind::Mirror;
    } else if (val == "wilson") {
      out.spec.source = est::CurrentSourceKind::Wilson;
    } else {
      die("line " + std::to_string(line_no) +
          ": source must be mirror|wilson, got '" + val + "'");
    }
  } else {
    die("line " + std::to_string(line_no) + ": unknown key '" + key + "'");
  }
}

std::vector<NamedSpec> read_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot open spec file '" + path + "'");
  std::vector<NamedSpec> specs;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string tok;
    NamedSpec ns;
    bool any = false;
    while (tokens >> tok) {
      apply_token(tok, line_no, ns);
      any = true;
    }
    if (!any) continue;
    if (ns.name.empty()) ns.name = "job" + std::to_string(specs.size());
    specs.push_back(std::move(ns));
  }
  if (specs.empty()) die("spec file '" + path + "' contains no specs");
  return specs;
}

std::vector<NamedSpec> builtin_specs() {
  std::vector<NamedSpec> specs;
  for (const auto& row : bench::table1_specs()) {
    specs.push_back({row.name, bench::to_spec(row)});
  }
  return specs;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void put_kv(std::string& json, const char* key, double v, bool comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"%s\":%.17g", key, v);
  json += buf;
  if (comma) json += ',';
}

}  // namespace

int main(int argc, char** argv) {
  runtime::BatchOptions options;
  options.synth.use_ape_seed = true;
  options.synth.anneal.iterations = 2000;
  bool estimate_only = false;
  std::string spec_path;
  std::string out_path;
  double timeout_ms = 0.0;
  bool recover = false;
  int quarantine_threshold = 0;  // 0 = quarantine disabled
  std::string checkpoint_path;
  int checkpoint_every = 1;
  std::string resume_path;
  std::string corners_sel;       // --corners (empty = no sweep)
  int mc_samples = 0;            // --mc-samples
  bool yield_flag = false;       // --yield (sweep with default corners)
  bool sweep_synthesize = false; // --synthesize (sweep nominal pass)
  double yield_weight = 0.0;     // --yield-weight (annealer corner term)

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value after " + arg);
      return argv[++i];
    };
    if (arg == "--threads") {
      options.threads = std::atoi(next().c_str());
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--iters") {
      options.synth.anneal.iterations = std::atoi(next().c_str());
    } else if (arg == "--restarts") {
      options.synth.restarts = std::atoi(next().c_str());
    } else if (arg == "--blind") {
      options.synth.use_ape_seed = false;
    } else if (arg == "--estimate-only") {
      estimate_only = true;
    } else if (arg == "--timeout-ms") {
      timeout_ms = std::atof(next().c_str());
    } else if (arg == "--recover") {
      recover = true;
    } else if (arg == "--quarantine") {
      quarantine_threshold = std::atoi(next().c_str());
    } else if (arg == "--checkpoint") {
      checkpoint_path = next();
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = std::atoi(next().c_str());
    } else if (arg == "--resume") {
      resume_path = next();
    } else if (arg == "--corners") {
      corners_sel = next();
    } else if (arg == "--mc-samples") {
      mc_samples = std::atoi(next().c_str());
    } else if (arg == "--yield") {
      yield_flag = true;
    } else if (arg == "--synthesize") {
      sweep_synthesize = true;
    } else if (arg == "--yield-weight") {
      yield_weight = std::atof(next().c_str());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: ape_batch [--threads N] [--seed S] [--iters N]\n"
          "                 [--restarts M] [--blind] [--estimate-only]\n"
          "                 [--timeout-ms T] [--recover] [--quarantine N]\n"
          "                 [--checkpoint FILE] [--checkpoint-every N]\n"
          "                 [--resume FILE]\n"
          "                 [--corners all|tm,ws,...] [--mc-samples N]\n"
          "                 [--yield] [--synthesize] [--yield-weight W]\n"
          "                 [--out FILE] [specfile]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      die("unknown option '" + arg + "' (see --help)");
    } else {
      spec_path = arg;
    }
  }
  if (estimate_only &&
      (!checkpoint_path.empty() || !resume_path.empty())) {
    die("--checkpoint/--resume apply to synthesis batches only");
  }

  const std::vector<NamedSpec> named =
      spec_path.empty() ? builtin_specs() : read_spec_file(spec_path);
  std::vector<est::OpAmpSpec> specs;
  specs.reserve(named.size());
  for (const auto& ns : named) specs.push_back(ns.spec);

  const est::Process proc = est::Process::default_1u2();
  runtime::EstimateCache cache;
  options.cache = &cache;

  const bool sweep_mode = !corners_sel.empty() || mc_samples > 0 || yield_flag;
  stat::CornerSet corner_set;
  if (sweep_mode || yield_weight > 0.0) {
    try {
      corner_set =
          stat::CornerSet::parse(corners_sel.empty() ? "all" : corners_sel);
    } catch (const Error& e) {
      die(e.what());
    }
  }
  if (yield_weight > 0.0) {
    // Worst-corner cost term in the annealer (any synthesis mode).
    options.synth.yield_weight = yield_weight;
    options.synth.corner_procs = corner_set.realize(proc);
  }

  if (sweep_mode) {
    if (estimate_only && sweep_synthesize) {
      die("--estimate-only and --synthesize conflict");
    }
    if (!sweep_synthesize && (!checkpoint_path.empty() || !resume_path.empty())) {
      die("--checkpoint/--resume in sweep mode require --synthesize");
    }
    runtime::SweepOptions sw;
    sw.supervisor.batch = options;
    sw.supervisor.job_timeout_s = timeout_ms / 1000.0;
    sw.supervisor.recover = recover;
    runtime::QuarantineRegistry sweep_quarantine;
    if (quarantine_threshold > 0) {
      sw.supervisor.quarantine = &sweep_quarantine;
      sw.supervisor.quarantine_threshold = quarantine_threshold;
    }
    sw.supervisor.checkpoint_path = checkpoint_path;
    sw.supervisor.checkpoint_every = checkpoint_every > 0 ? checkpoint_every : 1;
    sw.supervisor.resume_path = resume_path;
    static CancelToken sweep_interrupt;
    util::install_cancel_on_signal(sweep_interrupt);
    sw.supervisor.cancel = &sweep_interrupt;
    sw.corners = corner_set;
    sw.mc_samples = mc_samples;
    sw.synthesize = sweep_synthesize;

    runtime::SweepResult r;
    try {
      r = mc_samples > 0 ? runtime::run_monte_carlo(proc, specs, sw)
                         : runtime::run_corner_sweep(proc, specs, sw);
    } catch (const Error& e) {
      die(e.what());
    }

    std::string json = "{\"config\":{";
    put_kv(json, "jobs", double(specs.size()));
    put_kv(json, "seed", double(options.seed));
    put_kv(json, "mc_samples", double(r.samples_per_corner));
    json += "\"corners\":\"" + json_escape(sw.corners.names()) + "\",";
    json += std::string("\"mode\":\"") +
            (sweep_synthesize ? "sweep-synthesize" : "sweep-estimate") +
            "\"},\n\"jobs\":[\n";
    for (size_t i = 0; i < r.jobs.size(); ++i) {
      const auto& j = r.jobs[i];
      json += "{\"name\":\"" + json_escape(named[i].name) + "\",";
      put_kv(json, "index", double(j.index));
      if (j.ok) {
        const auto ci = j.report.ci();
        json += "\"ok\":true,";
        put_kv(json, "yield", j.report.yield());
        put_kv(json, "ci_lo", ci.lo);
        put_kv(json, "ci_hi", ci.hi);
        put_kv(json, "samples", double(j.report.total.samples));
        put_kv(json, "passes", double(j.report.total.pass));
        json += "\"worst_corner\":\"" +
                json_escape(j.report.worst_corner_name()) + "\",";
        std::string feasible;
        for (uint8_t ok : j.corner_estimate_ok) feasible += ok ? '1' : '0';
        json += "\"corner_estimate_ok\":\"" + feasible + "\",";
        json += "\"report\":" + j.report.to_json();
      } else {
        json += "\"ok\":false,\"error\":\"" + json_escape(j.error) + "\"";
      }
      json += i + 1 < r.jobs.size() ? "},\n" : "}\n";
    }
    json += "],\n\"aggregate\":{";
    const auto ci = r.aggregate.ci();
    put_kv(json, "jobs", double(r.stats.jobs));
    put_kv(json, "failed", double(r.stats.failed));
    put_kv(json, "met_spec", double(r.stats.met_spec));
    put_kv(json, "threads", double(r.stats.threads));
    put_kv(json, "wall_seconds", r.stats.wall_seconds);
    put_kv(json, "jobs_per_second", r.stats.jobs_per_second);
    put_kv(json, "cache_hits", double(r.stats.cache.hits));
    put_kv(json, "cache_misses", double(r.stats.cache.misses));
    put_kv(json, "cache_hit_rate", r.stats.cache.hit_rate());
    put_kv(json, "yield", r.aggregate.yield());
    put_kv(json, "ci_lo", ci.lo);
    put_kv(json, "ci_hi", ci.hi);
    put_kv(json, "yield_samples", double(r.aggregate.total.samples));
    put_kv(json, "yield_passes", double(r.aggregate.total.pass));
    json += "\"worst_corner\":\"" +
            json_escape(r.aggregate.worst_corner_name()) + "\",";
    put_kv(json, "samples_per_corner", double(r.samples_per_corner));
    put_kv(json, "cancelled_jobs", double(r.supervision.cancelled_jobs));
    put_kv(json, "resumed_jobs", double(r.supervision.resumed_jobs), false);
    json += "}}\n";

    if (out_path.empty()) {
      std::fputs(json.c_str(), stdout);
    } else {
      std::ofstream out(out_path);
      if (!out) die("cannot write '" + out_path + "'");
      out << json;
      std::fprintf(stderr,
                   "ape_batch: wrote %s (%d jobs x %zu corners x %d samples, "
                   "yield %.1f%%)\n",
                   out_path.c_str(), r.stats.jobs, sw.corners.size(),
                   r.samples_per_corner, 100.0 * r.aggregate.yield());
    }
    if (util::last_signal() != 0) return 130;
    return r.stats.failed == 0 ? 0 : 1;
  }

  std::string json = "{\"config\":{";
  put_kv(json, "jobs", double(specs.size()));
  put_kv(json, "seed", double(options.seed));
  put_kv(json, "iterations", double(options.synth.anneal.iterations));
  put_kv(json, "restarts", double(options.synth.restarts));
  json += std::string("\"mode\":\"") +
          (estimate_only ? "estimate" : "synthesize") + "\"},\n\"jobs\":[\n";

  runtime::BatchStats stats;
  runtime::SupervisionStats supervision;
  if (estimate_only) {
    const auto r = runtime::estimate_opamp_batch(proc, specs, options);
    stats = r.stats;
    for (size_t i = 0; i < r.jobs.size(); ++i) {
      const auto& j = r.jobs[i];
      json += "{\"name\":\"" + json_escape(named[i].name) + "\",";
      put_kv(json, "index", double(j.index));
      if (j.ok) {
        json += "\"ok\":true,";
        const est::OpAmpPerf& p = j.outcome->perf;
        put_kv(json, "gain", p.gain);
        put_kv(json, "ugf_hz", p.ugf_hz);
        put_kv(json, "phase_margin", p.phase_margin);
        put_kv(json, "gate_area", p.gate_area);
        put_kv(json, "dc_power", p.dc_power, false);
      } else {
        json += "\"ok\":false,\"error\":\"" + json_escape(j.error) + "\"";
      }
      json += i + 1 < r.jobs.size() ? "},\n" : "}\n";
    }
  } else {
    runtime::SupervisorOptions sup;
    sup.batch = options;
    sup.job_timeout_s = timeout_ms / 1000.0;
    sup.recover = recover;
    runtime::QuarantineRegistry quarantine;
    if (quarantine_threshold > 0) {
      sup.quarantine = &quarantine;
      sup.quarantine_threshold = quarantine_threshold;
    }
    sup.checkpoint_path = checkpoint_path;
    sup.checkpoint_every = checkpoint_every > 0 ? checkpoint_every : 1;
    sup.resume_path = resume_path;

    // SIGINT/SIGTERM trip the run's CancelToken instead of killing the
    // process: in-flight jobs stop at their next probe, the supervisor
    // writes its final checkpoint (cancelled jobs recorded unfinished,
    // so --resume re-runs exactly those), and we exit 130 below. A
    // second signal falls through to the default disposition.
    static CancelToken interrupt;
    util::install_cancel_on_signal(interrupt);
    sup.cancel = &interrupt;

    const auto r = runtime::run_supervised_opamp_batch(proc, specs, sup);
    stats = r.stats;
    supervision = r.supervision;
    for (size_t i = 0; i < r.jobs.size(); ++i) {
      const auto& j = r.jobs[i];
      json += "{\"name\":\"" + json_escape(named[i].name) + "\",";
      put_kv(json, "index", double(j.index));
      put_kv(json, "attempts", double(j.attempts));
      json += std::string("\"rung\":\"") + to_string(j.final_rung) + "\",";
      json += std::string("\"deadline_hit\":") +
              (j.deadline_hit ? "true," : "false,");
      json += std::string("\"quarantined\":") +
              (j.quarantined ? "true," : "false,");
      json += std::string("\"resumed\":") + (j.resumed ? "true," : "false,");
      json += std::string("\"estimate_fallback\":") +
              (j.estimate_fallback ? "true," : "false,");
      if (j.ok) {
        const synth::SynthesisOutcome& o = j.outcome;
        json += "\"ok\":true,";
        json += std::string("\"meets_spec\":") +
                (o.meets_spec ? "true," : "false,");
        json += std::string("\"sim_failed\":") +
                (o.sim_failed ? "true," : "false,");
        json += "\"comment\":\"" + json_escape(o.comment) + "\",";
        put_kv(json, "cost", o.cost);
        put_kv(json, "evaluations", double(o.evaluations));
        put_kv(json, "skipped_candidates", double(o.skipped_candidates));
        put_kv(json, "sim_gain", o.sim.gain);
        put_kv(json, "sim_ugf_hz", o.sim.ugf_hz.value_or(0.0));
        put_kv(json, "gate_area", o.design.perf.gate_area);
        put_kv(json, "cpu_seconds", o.cpu_seconds, false);
      } else {
        json += "\"ok\":false,\"error\":\"" + json_escape(j.error) + "\"";
      }
      json += i + 1 < r.jobs.size() ? "},\n" : "}\n";
    }
  }

  json += "],\n\"aggregate\":{";
  put_kv(json, "jobs", double(stats.jobs));
  put_kv(json, "failed", double(stats.failed));
  put_kv(json, "met_spec", double(stats.met_spec));
  put_kv(json, "threads", double(stats.threads));
  put_kv(json, "wall_seconds", stats.wall_seconds);
  put_kv(json, "jobs_per_second", stats.jobs_per_second);
  put_kv(json, "cache_hits", double(stats.cache.hits));
  put_kv(json, "cache_misses", double(stats.cache.misses));
  put_kv(json, "cache_hit_rate", stats.cache.hit_rate());
  put_kv(json, "attempts", double(supervision.attempts));
  put_kv(json, "retries", double(supervision.retries));
  put_kv(json, "numeric_recovery_attempts",
         double(supervision.numeric_recovery_attempts));
  put_kv(json, "relaxed_attempts", double(supervision.relaxed_attempts));
  put_kv(json, "estimate_fallbacks", double(supervision.estimate_fallbacks));
  put_kv(json, "deadline_hits", double(supervision.deadline_hits));
  put_kv(json, "cancelled_jobs", double(supervision.cancelled_jobs));
  put_kv(json, "quarantine_skips", double(supervision.quarantine_skips));
  put_kv(json, "quarantined_new", double(supervision.quarantined_new));
  put_kv(json, "checkpoints_written", double(supervision.checkpoints_written));
  put_kv(json, "resumed_jobs", double(supervision.resumed_jobs));
  put_kv(json, "numeric_recoveries", double(stats.kernel.numeric_recoveries));
  put_kv(json, "refinement_solves", double(stats.kernel.refinement_solves));
  put_kv(json, "equilibrated_solves", double(stats.kernel.equilibrated_solves));
  put_kv(json, "residual_norm_max", stats.kernel.residual_norm_max, false);
  json += "}}\n";

  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
  } else {
    std::ofstream out(out_path);
    if (!out) die("cannot write '" + out_path + "'");
    out << json;
    std::fprintf(stderr, "ape_batch: wrote %s (%d jobs, %.2f jobs/s)\n",
                 out_path.c_str(), stats.jobs, stats.jobs_per_second);
  }
  if (util::last_signal() != 0) {
    std::fprintf(stderr,
                 "ape_batch: interrupted by signal %d after %d cancelled "
                 "job(s)%s\n",
                 util::last_signal(), supervision.cancelled_jobs,
                 checkpoint_path.empty()
                     ? ""
                     : ("; resume with --resume " + checkpoint_path).c_str());
    return 130;
  }
  return stats.failed == 0 ? 0 : 1;
}
