/// yield_mc: runtime::run_monte_carlo with the seven PVT corners x M
/// Pelgrom samples per spec, one spec per op, a shared EstimateCache and
/// prove_corners on. Covers the stat layer and the lint prover, and runs
/// the annealer's evaluator on a freshly perturbed Process for every
/// point.
///
/// Timed ops run the sweep on one thread: on a shared VM the two-thread
/// op time spread 30-56 % between runs (it waits for the slower of two
/// vCPUs), one thread 3-18 %. The two-thread path still runs in every
/// run (the 1-vs-2-thread bit-identity check) and is timed against one
/// thread in traced runs (runtime.scaling_eff_2t).

#include "harness.h"
#include "src/estimator/process.h"
#include "src/estimator/verify.h"
#include "src/lint/prove.h"
#include "src/runtime/cache.h"
#include "src/runtime/sweep.h"
#include "src/stat/corners.h"
#include "src/stat/mismatch.h"
#include "src/synth/sizing.h"
#include "src/util/error.h"

namespace apebench {
namespace {

using ape::est::OpAmpSpec;
using ape::est::Process;

constexpr int kMcSamples = 96;
constexpr int kThreads = 1;  ///< threads of a timed op (see above)
constexpr double kOpSeconds = 0.075;  ///< nominal cost of one op
constexpr int kEstProbe = 16;         ///< estimate timings per op (est_ms)

ape::runtime::SweepOptions sweep_options(uint64_t seed, ape::runtime::EstimateCache* cache,
                                         int threads) {
  ape::runtime::SweepOptions so;
  so.corners = ape::stat::CornerSet::all();
  so.mc_samples = kMcSamples;
  so.prove_corners = true;
  so.supervisor.batch.threads = threads;
  so.supervisor.batch.seed = seed;
  so.supervisor.batch.cache = cache;
  return so;
}

struct OpOut {
  bool ok = false;
  double op_s = 0.0;
  ape::stat::YieldReport report;
  ape::est::OpAmpDesign nominal;
};

OpOut run_op(const Process& proc, const OpAmpSpec& spec, uint64_t seed,
             ape::runtime::EstimateCache* cache, int threads, long op, bool traced) {
  OpOut o;
  SpanScope span("op", op, traced);
  const double t0 = now_s();
  try {
    ape::runtime::SweepResult res;
    {
      SpanScope s("runtime.run_monte_carlo", op, traced);
      res = ape::runtime::run_monte_carlo(proc, {spec}, sweep_options(seed, cache, threads));
    }
    o.ok = res.jobs.size() == 1 && res.jobs[0].ok;
    if (o.ok) {
      o.report = res.jobs[0].report;
      o.nominal = res.jobs[0].nominal.design;
    }
  } catch (const ape::Error&) {
    o.ok = false;
  }
  o.op_s = now_s() - t0;
  return o;
}

}  // namespace

Result run_yield_mc(const Options& opt) {
  Result r;
  const Process proc = Process::default_1u2();
  const ape::stat::CornerSet corners = ape::stat::CornerSet::all();
  const std::vector<Process> corner_procs = corners.realize(proc);
  const Process& tm_proc = corner_procs[static_cast<size_t>(corners.index_of("tm"))];
  const long n = op_count(opt.seconds, kOpSeconds, 20);
  auto op_seed = [&](long k) { return mix(opt.seed, 1u << 20 | static_cast<uint64_t>(k)); };

  // The buffered Table-1 specs, cycled; --seed drives the Pelgrom draws.
  const std::vector<OpAmpSpec> specs = buffered_table1_specs();
  auto spec_of = [&](long k) -> const OpAmpSpec& {
    return specs[static_cast<size_t>(k) % specs.size()];
  };
  struct State {
    ape::runtime::EstimateCache cache;
  };
  double setup_s = 0.0;
  auto state = timed_setup(
      kSetupReps,
      [&] {
        auto s = std::make_unique<State>();
        run_op(proc, spec_of(0), op_seed(0), &s->cache, kThreads, -1, false);  // warm-up
        return s;
      },
      &setup_s);

  RunData d;
  d.setup_s = setup_s;
  const ape::runtime::CacheStats cache0 = state->cache.stats();
  std::vector<OpOut> ops(static_cast<size_t>(n));
  const ape::est::OpAmpEstimator tm_estimator(tm_proc);
  for (long k = 0; k < n; ++k) {
    // est_ms: back-to-back timings of the op's nominal (tm-card)
    // estimate, taken between ops so they sample the whole run.
    for (int j = 0; j < kEstProbe; ++j) {
      const double a = now_s();
      tm_estimator.estimate(spec_of(k));
      d.est_ms.push_back((now_s() - a) * 1e3);
    }
    ops[static_cast<size_t>(k)] = run_op(proc, spec_of(k), op_seed(k), &state->cache, kThreads,
                                         k, opt.trace && traced_round(k));
    d.phase_s += ops[static_cast<size_t>(k)].op_s;
  }
  const ape::runtime::CacheStats cache1 = state->cache.stats();

  for (const OpOut& o : ops) {
    d.op_ms.push_back(o.op_s * 1e3);
    if (!o.ok) continue;
    ++d.ok_ops;
    d.met += o.report.total.pass;
    d.verified += o.report.total.samples;
  }
  d.timed_ops = n;
  r.attempted = n;
  r.failed = n - d.ok_ops;
  r.check(d.ok_ops == n, "yield_mc: a Monte-Carlo job failed");

  // Est-vs-sim accuracy of each distinct nominal design (tm card). A
  // reference simulation that throws is counted, not a failed check.
  long sim_failures = 0;
  for (long k = 0; k < std::min<long>(n, static_cast<long>(specs.size())); ++k) {
    const OpOut& o = ops[static_cast<size_t>(k)];
    if (!o.ok) continue;
    try {
      const ape::est::OpAmpSimReport sim = ape::est::simulate_opamp(o.nominal, tm_proc);
      d.gain_err.push_back(rel_err(o.nominal.perf.gain, sim.gain));
      if (sim.ugf_hz) d.ugf_err.push_back(rel_err(o.nominal.perf.ugf_hz, *sim.ugf_hz));
    } catch (const ape::Error&) {
      ++sim_failures;
    }
  }
  r.record["reference_sim_failures"] = std::to_string(sim_failures);

  // One block's YieldReport must be bit-identical at 1 and 2 threads.
  {
    ape::runtime::EstimateCache fresh;
    const OpOut two = run_op(proc, spec_of(0), op_seed(0), &fresh, 2, -1, false);
    r.check(two.ok && ops[0].ok && two.report.to_json() == ops[0].report.to_json(),
            "yield_mc: YieldReport differs between 1 and 2 threads");
  }
  r.record["grid"] = std::to_string(corners.size()) + " corners x " +
                     std::to_string(kMcSamples) + " samples, " + std::to_string(kThreads) +
                     " thread(s), the buffered Table-1 specs cycled";
  set_end_to_end(r, d);
  if (!opt.trace) return r;

  // Traced run: replay each traced op cell by cell — the corner proof,
  // then every Pelgrom draw and its point evaluation.
  const ape::stat::PelgromModel pelgrom;
  ape::lint::ProveOptions po;
  po.contraction_segments = 0;  // what the sweep runs per cell
  std::vector<double> prove_us, mismatch_us, eval_us, traced_ms, untraced_ms, probe_us;
  long cells = 0, pruned = 0, replay_samples = 0, report_samples = 0;
  double leaf_s = 0.0, capacity_s = 0.0;
  for (long k = 0; k < n; ++k) {
    const OpOut& o = ops[static_cast<size_t>(k)];
    (traced_round(k) ? traced_ms : untraced_ms).push_back(o.op_s * 1e3);
    if (!traced_round(k) || !o.ok) continue;
    const OpAmpSpec& spec = spec_of(k);
    const ape::synth::OpAmpVars vars = ape::synth::vars_from_design(o.nominal);
    capacity_s += o.op_s * kThreads;
    report_samples += o.report.total.samples;
    for (int j = 0; j < kEstProbe; ++j) {
      probe_us.push_back(d.est_ms[static_cast<size_t>(k * kEstProbe + j)] * 1e3);
    }
    for (size_t c = 0; c < corner_procs.size(); ++c) {
      ++cells;
      double a = now_s();
      bool infeasible = false;
      {
        SpanScope s("replay.prove_opamp_feasibility", k);
        infeasible = ape::lint::prove_opamp_feasibility(corner_procs[c], spec, po).infeasible;
      }
      const double proof_s = now_s() - a;
      prove_us.push_back(proof_s * 1e6);
      leaf_s += proof_s;
      if (infeasible) {
        ++pruned;
        replay_samples += kMcSamples;
        continue;
      }
      for (int smp = 0; smp < kMcSamples; ++smp) {
        ++replay_samples;
        a = now_s();
        Process p;
        try {
          SpanScope s("replay.sample_mismatch", k);
          p = ape::stat::sample_mismatch(corner_procs[c], pelgrom, op_seed(k), 0, c,
                                         static_cast<uint64_t>(smp));
        } catch (const ape::Error&) {
          continue;
        }
        const double b = now_s();
        try {
          SpanScope s("replay.evaluate_opamp_vars", k);
          ape::synth::evaluate_opamp_vars(p, vars, spec.ibias, spec.cload);
        } catch (const ape::Error&) {
        }
        const double e = now_s();
        mismatch_us.push_back((b - a) * 1e6);
        eval_us.push_back((e - b) * 1e6);
        leaf_s += e - a;
      }
    }
  }
  r.check(replay_samples == report_samples,
          "yield_mc: replayed grid size differs from the YieldReport's");

  // Two-thread scaling on one block: T1 / (2 T2), alternating, medians.
  std::vector<double> t1, t2;
  for (int rep = 0; rep < 3; ++rep) {
    for (int threads : {1, 2}) {
      const OpOut b = run_op(proc, spec_of(0), op_seed(0), &state->cache, threads, -1, false);
      (threads == 1 ? t1 : t2).push_back(b.op_s);
    }
  }

  const long hits = cache1.hits - cache0.hits, misses = cache1.misses - cache0.misses;
  r.set("runtime.cache_hits", static_cast<double>(hits));
  r.set("runtime.cache_misses", static_cast<double>(misses));
  r.set("runtime.cache_hit_frac", hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0);
  r.set("runtime.evictions", static_cast<double>(cache1.evictions - cache0.evictions));
  r.set("runtime.sweep_self_frac", capacity_s > 0.0 ? 1.0 - leaf_s / capacity_s : 0.0);
  r.set("runtime.scaling_eff_2t", median(t1) / (2.0 * median(t2)));
  r.set("lint.prove_calls", static_cast<double>(prove_us.size()));
  r.set("lint.prove_us", mean(prove_us));
  r.set("lint.pruned_frac", cells > 0 ? static_cast<double>(pruned) / cells : 0.0);
  r.set("stat.points", static_cast<double>(eval_us.size()));
  r.set("stat.mismatch_us", mean(mismatch_us));
  r.set("stat.point_eval_us", mean(eval_us));
  // An estimate that throws here aborts the run, so none are counted failed.
  set_estimator_layer(r, probe_us, 0);
  set_trace_overhead(r, traced_ms, untraced_ms);
  r.samples["replay.cells"] = cells;
  return r;
}

}  // namespace apebench
