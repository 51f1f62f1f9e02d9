/// table4_seeded: the paper's headline (Table 4). Single-threaded,
/// APE-seeded synth::synthesize_opamp (+/-20 % box, 8000 iterations,
/// simulator-verified) over the ten Table-1 specs in fixed order. One op
/// is one spec: the APE seed estimate, then the seeded synthesis.

#include <optional>

#include "harness.h"
#include "src/estimator/process.h"
#include "src/estimator/verify.h"
#include "src/synth/astrx.h"
#include "src/util/diagnostics.h"
#include "src/util/error.h"

namespace apebench {
namespace {

using ape::est::OpAmpDesign;
using ape::est::OpAmpSpec;
using ape::est::Process;

constexpr int kIterations = 8000;
constexpr double kPassSeconds = 5.0;  ///< nominal cost of one ten-spec pass
constexpr int kEstProbe = 64;         ///< estimate timings per op (est_ms)
constexpr int kSetupRepsTable4 = 3;   ///< set-ups per run (each runs a whole op)

struct OpOut {
  bool ok = false;
  bool estimated = false;  ///< the APE seed estimate returned
  double op_s = 0.0, est_s = 0.0, synth_s = 0.0;
  ape::synth::SynthesisOutcome out;
  ape::KernelStats kernel;
};

OpOut run_op(const Process& proc, const OpAmpSpec& spec, uint64_t anneal_seed,
             long op, bool traced) {
  OpOut o;
  std::optional<ape::ScopedKernelStatsSink> sink;
  if (traced) sink.emplace(o.kernel);
  SpanScope span("op", op, traced);
  const double t0 = now_s();
  try {
    OpAmpDesign seed;
    {
      SpanScope s("estimator.estimate", op, traced);
      seed = ape::est::OpAmpEstimator(proc).estimate(spec);
    }
    o.estimated = true;
    const double t1 = now_s();
    ape::synth::SynthesisOptions so;
    so.use_ape_seed = true;
    so.interval_frac = 0.2;
    so.anneal.iterations = kIterations;
    so.anneal.seed = anneal_seed;
    so.restart_threads = 1;
    so.seed_design = &seed;
    {
      SpanScope s("synth.synthesize_opamp", op, traced);
      o.out = ape::synth::synthesize_opamp(proc, spec, so);
    }
    const double t2 = now_s();
    o.est_s = t1 - t0;
    o.synth_s = t2 - t1;
    o.ok = !o.out.sim_failed;
  } catch (const ape::Error&) {
    o.ok = false;
  }
  o.op_s = now_s() - t0;
  return o;
}

}  // namespace

Result run_table4_seeded(const Options& opt) {
  Result r;
  const Process proc = Process::default_1u2();
  const std::vector<OpAmpSpec> specs = table1_specs();
  auto anneal_seed = [&](long k) { return mix(opt.seed, static_cast<uint64_t>(k)); };

  // Set-up: the inputs plus one untimed warm-up op (op 0 itself, which
  // the timed phase repeats: its best_x must come back bit-identical).
  struct State {
    OpOut warm;
  };
  double setup_s = 0.0;
  auto state = timed_setup(
      kSetupRepsTable4,
      [&] {
        auto s = std::make_unique<State>();
        s->warm = run_op(proc, specs[0], anneal_seed(0), -1, false);
        return s;
      },
      &setup_s);

  const long passes = op_count(opt.seconds, kPassSeconds, opt.trace ? 2 : 1);
  const long n = passes * static_cast<long>(specs.size());
  auto spec_of = [&](long k) -> const OpAmpSpec& {
    return specs[static_cast<size_t>(k) % specs.size()];
  };
  RunData d;
  d.setup_s = setup_s;
  std::vector<OpOut> ops(static_cast<size_t>(n));
  for (long k = 0; k < n; ++k) {
    // est_ms: back-to-back timings of the op's APE seed estimate, taken
    // between ops so they sample the whole run.
    const ape::est::OpAmpEstimator estimator(proc);
    for (int j = 0; j < kEstProbe; ++j) {
      const double a = now_s();
      estimator.estimate(spec_of(k));
      d.est_ms.push_back((now_s() - a) * 1e3);
    }
    ops[static_cast<size_t>(k)] = run_op(proc, spec_of(k), anneal_seed(k), k, opt.trace && traced_round(k));
    d.phase_s += ops[static_cast<size_t>(k)].op_s;
  }

  long sim_failed = 0;
  for (const OpOut& o : ops) {
    d.op_ms.push_back(o.op_s * 1e3);
    if (o.out.sim_failed) ++sim_failed;
    if (!o.ok) continue;
    ++d.ok_ops;
    ++d.verified;
    if (o.out.meets_spec) ++d.met;
    d.gain_err.push_back(rel_err(o.out.design.perf.gain, o.out.sim.gain));
    if (o.out.sim.ugf_hz) d.ugf_err.push_back(rel_err(o.out.design.perf.ugf_hz, *o.out.sim.ugf_hz));
  }
  d.timed_ops = n;
  r.attempted = n;
  r.failed = n - d.ok_ops;
  r.check(sim_failed == 0, "table4_seeded: a synthesized design failed simulation");
  r.check(state->warm.ok && ops[0].ok && state->warm.out.best_x == ops[0].out.best_x,
          "table4_seeded: repeating op 0 did not give a bit-identical best_x");
  r.record["passes"] = std::to_string(passes);
  r.record["iterations"] = std::to_string(kIterations);
  set_end_to_end(r, d);
  if (!opt.trace) return r;

  // Traced run: replay each traced op's verification to split it by layer.
  SpiceSplit spice;
  std::vector<double> est_us, traced_ms, untraced_ms;
  double synth_self_s = 0.0;
  long evals = 0, skipped = 0, est_failed = 0;
  for (long k = 0; k < n; ++k) {
    const OpOut& o = ops[static_cast<size_t>(k)];
    (traced_round(k) ? traced_ms : untraced_ms).push_back(o.op_s * 1e3);
    if (!traced_round(k)) continue;
    if (!o.estimated) ++est_failed;
    if (!o.ok) continue;
    double a = now_s();
    ape::synth::SynthesisOutcome fin;
    {
      SpanScope s("replay.finalize_opamp_outcome", k);
      fin = ape::synth::finalize_opamp_outcome(proc, spec_of(k), o.out.best_x, o.out.cost);
    }
    const double v = now_s() - a;
    r.check(fin.sim.gain == o.out.sim.gain,
            "table4_seeded: replayed verification differs from the op's");
    a = now_s();
    {
      SpanScope s("replay.simulate_opamp_ac", k);
      ape::est::simulate_opamp(fin.design, proc, /*with_transient=*/false);
    }
    spice.ac_ms.push_back((now_s() - a) * 1e3);
    spice.verify_ms.push_back(v * 1e3);
    spice.kernel.accumulate(o.kernel);
    est_us.push_back(o.est_s * 1e6);
    synth_self_s += o.synth_s - v;
    evals += o.out.evaluations;
    skipped += o.out.skipped_candidates;
  }
  spice.sims = n;
  spice.sim_failed = sim_failed;
  set_synth_layer(r, evals, skipped, synth_self_s);
  set_spice_layer(r, spice);
  set_estimator_layer(r, est_us, est_failed);
  set_trace_overhead(r, traced_ms, untraced_ms);
  return r;
}

}  // namespace apebench
