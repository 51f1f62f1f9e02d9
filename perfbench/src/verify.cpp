/// verify_batch: the Table 2/3 est-vs-sim loop. Single-threaded
/// OpAmpEstimator::estimate -> est::simulate_opamp over a seeded
/// population of Table-1 specs with gain, UGF and Ibias jittered. Almost
/// all of the time is in the simulator (DC, AC suites, transient, LU,
/// refinement); the annealer is never called.

#include <cmath>
#include <optional>

#include "harness.h"
#include "src/estimator/process.h"
#include "src/estimator/verify.h"
#include "src/util/diagnostics.h"
#include "src/util/error.h"

namespace apebench {
namespace {

using ape::est::OpAmpDesign;
using ape::est::OpAmpSpec;
using ape::est::Process;

constexpr double kOpSeconds = 0.012;  ///< nominal cost of one op
constexpr double kJitter = 0.2;

struct OpOut {
  bool ok = false;
  bool estimated = false;  ///< the estimate step returned
  bool nonfinite = false;  ///< the simulator returned a non-finite metric
  std::string error;
  double est_s = 0.0, sim_s = 0.0, op_s = 0.0;
  OpAmpDesign design;
  ape::est::OpAmpSimReport sim;
  ape::KernelStats kernel;
};

bool finite_report(const ape::est::OpAmpSimReport& s) {
  auto fin = [](double v) { return std::isfinite(v); };
  return fin(s.power) && fin(s.gain) && fin(s.ibias) && fin(s.zout) && fin(s.slew) &&
         fin(s.out_dc) && (!s.ugf_hz || fin(*s.ugf_hz)) &&
         (!s.phase_margin || fin(*s.phase_margin)) && (!s.cmrr_db || fin(*s.cmrr_db));
}

/// The synthesis acceptance test (finalize_opamp_outcome's Table-1
/// diagnosis) applied to a simulated estimate.
bool meets_spec(const OpAmpSpec& spec, const OpAmpDesign& d,
                const ape::est::OpAmpSimReport& s, double vdd) {
  if (s.out_dc < 0.25 || s.out_dc > vdd - 0.25) return false;
  if (s.gain < 0.9 * spec.gain) return false;
  if (s.ugf_hz.value_or(0.0) < 0.9 * spec.ugf_hz) return false;
  return spec.area_budget <= 0.0 || d.perf.gate_area <= 1.15 * spec.area_budget;
}

OpOut run_op(const Process& proc, const OpAmpSpec& spec, long op, bool traced) {
  OpOut o;
  SpanScope span("op", op, traced);
  const double t0 = now_s();
  try {
    {
      SpanScope s("estimator.estimate", op, traced);
      o.design = ape::est::OpAmpEstimator(proc).estimate(spec);
    }
    o.estimated = true;
    const double t1 = now_s();
    {
      std::optional<ape::ScopedKernelStatsSink> sink;
      if (traced) sink.emplace(o.kernel);
      SpanScope s("spice.simulate_opamp", op, traced);
      o.sim = ape::est::simulate_opamp(o.design, proc);
    }
    const double t2 = now_s();
    o.est_s = t1 - t0;
    o.sim_s = t2 - t1;
    o.nonfinite = !finite_report(o.sim);
    o.ok = !o.nonfinite;
    if (o.nonfinite) o.error = "non-finite simulator metric";
  } catch (const ape::Error& e) {
    o.ok = false;
    o.error = e.what();
  }
  o.op_s = now_s() - t0;
  return o;
}

}  // namespace

Result run_verify_batch(const Options& opt) {
  Result r;
  const Process proc = Process::default_1u2();
  const long n = op_count(opt.seconds, kOpSeconds, 20);

  struct State {
    std::vector<OpAmpSpec> specs;
  };
  double setup_s = 0.0;
  auto state = timed_setup(
      kSetupReps,
      [&] {
        auto s = std::make_unique<State>();
        const std::vector<OpAmpSpec> base = table1_specs();
        for (long k = 0; k < n; ++k) {
          const uint64_t pick = mix(opt.seed, 2 * static_cast<uint64_t>(k)) % base.size();
          s->specs.push_back(jitter(base[pick], opt.seed, 2 * static_cast<uint64_t>(k) + 1, kJitter));
        }
        run_op(proc, s->specs[0], -1, false);  // warm-up
        return s;
      },
      &setup_s);
  const std::vector<OpAmpSpec>& specs = state->specs;

  RunData d;
  d.setup_s = setup_s;
  std::vector<OpOut> ops(static_cast<size_t>(n));
  for (long k = 0; k < n; ++k) {
    ops[static_cast<size_t>(k)] =
        run_op(proc, specs[static_cast<size_t>(k)], k, opt.trace && traced_round(k));
    d.phase_s += ops[static_cast<size_t>(k)].op_s;
  }

  // A simulation that throws (e.g. DC non-convergence) is a failed op,
  // counted in `failed` and ok_frac; a non-finite metric from a
  // simulation that returned is a wrong output and fails the run.
  long nonfinite = 0;
  std::string first_error;
  for (long k = 0; k < n; ++k) {
    const OpOut& o = ops[static_cast<size_t>(k)];
    d.op_ms.push_back(o.op_s * 1e3);
    if (o.estimated) d.est_ms.push_back(o.est_s * 1e3);
    if (o.nonfinite) ++nonfinite;
    if (!o.ok) {
      if (first_error.empty()) first_error = "op " + std::to_string(k) + ": " + o.error;
      continue;
    }
    ++d.ok_ops;
    if (meets_spec(specs[static_cast<size_t>(k)], o.design, o.sim, proc.vdd)) ++d.met;
    d.gain_err.push_back(rel_err(o.design.perf.gain, o.sim.gain));
    if (o.sim.ugf_hz) d.ugf_err.push_back(rel_err(o.design.perf.ugf_hz, *o.sim.ugf_hz));
  }
  d.verified = d.ok_ops;
  d.timed_ops = n;
  r.attempted = n;
  r.failed = n - d.ok_ops;
  r.check(nonfinite == 0, "verify_batch: a simulation returned a non-finite metric");
  if (!first_error.empty()) r.record["first_failure"] = first_error;
  r.record["population"] = std::to_string(n) + " Table-1 specs, gain/UGF/Ibias jittered +/-20%";
  set_end_to_end(r, d);
  if (!opt.trace) return r;

  // Traced run: replay each traced op's AC-only simulation; the
  // transient is the rest of the op's simulator time.
  SpiceSplit spice;
  std::vector<double> est_us, traced_ms, untraced_ms;
  long est_failed = 0;
  for (long k = 0; k < n; ++k) {
    const OpOut& o = ops[static_cast<size_t>(k)];
    (traced_round(k) ? traced_ms : untraced_ms).push_back(o.op_s * 1e3);
    if (!traced_round(k)) continue;
    ++spice.sims;
    if (!o.estimated) {
      ++est_failed;
      continue;
    }
    est_us.push_back(o.est_s * 1e6);
    spice.kernel.accumulate(o.kernel);
    if (!o.ok) {
      ++spice.sim_failed;
      continue;
    }
    const double a = now_s();
    {
      SpanScope s("replay.simulate_opamp_ac", k);
      ape::est::simulate_opamp(o.design, proc, /*with_transient=*/false);
    }
    spice.ac_ms.push_back((now_s() - a) * 1e3);
    spice.verify_ms.push_back(o.sim_s * 1e3);
  }
  set_spice_layer(r, spice);
  set_estimator_layer(r, est_us, est_failed);
  set_trace_overhead(r, traced_ms, untraced_ms);
  return r;
}

}  // namespace apebench
