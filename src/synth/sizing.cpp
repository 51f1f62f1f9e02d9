#include "src/synth/sizing.h"

#include <algorithm>
#include <cmath>

#include "src/spice/mos_model.h"
#include "src/util/error.h"

namespace ape::synth {
namespace {

using est::OpAmpDesign;
using est::OpAmpSpec;
using est::Process;
using est::TransistorDesign;
using spice::MosEval;
using spice::MosType;

constexpr double kTwoPi = 2.0 * M_PI;
constexpr double kVtail = 0.3;

/// Gate voltage of a diode-connected device conducting \p id
/// (NMOS-normalized). Bisection on the model card's current alone.
double diode_vgs(const spice::MosModelCard& card, double w, double l, double id,
                 double vbs = 0.0) {
  double lo = 0.0, hi = 12.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (spice::mos_ids(card, mid, mid, vbs, w, l) < id) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// Gate voltage for \p id at fixed (vds, vbs).
double vgs_at(const spice::MosModelCard& card, double w, double l, double id,
              double vds, double vbs) {
  double lo = 0.0, hi = 12.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (spice::mos_ids(card, mid, vds, vbs, w, l) < id) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

TransistorDesign make_design(MosType type, double w, double l, const MosEval& e,
                             double vgs, double vds, double vbs) {
  TransistorDesign t;
  t.type = type;
  t.w = w;
  t.l = l;
  t.id = e.ids;
  t.vgs = vgs;
  t.vds = vds;
  t.vbs = vbs;
  t.vth = e.vth;
  t.vdsat = e.vdsat;
  t.gm = e.gm;
  t.gds = e.gds;
  t.gmb = e.gmb;
  t.cgs = e.cgs;
  t.cgd = e.cgd;
  t.cgb = e.cgb;
  t.cdb = e.cdb;
  t.csb = e.csb;
  return t;
}

/// Everything the evaluation solves; reused by design_from_vars. The root
/// finders probe currents with `mos_ids`; the full `mos_eval` runs only at
/// the final bias point of each device (the e* fields), which is all that
/// the performance composition and the design read.
struct BiasSolution {
  bool functional = false;
  double imbalance = 0.0;
  double vgs8 = 0.0, itail = 0.0, i1 = 0.0, vgs3 = 0.0, o1 = 0.0, vgs1 = 0.0;
  double out2 = 0.0, i6 = 0.0;
  double i9 = 0.0, vgs9 = 0.0, out_dc = 0.0;
  double vtail = kVtail;
  MosEval e1, e3, e4, e5, e6, e7, e8, e9, e10;
};

BiasSolution solve_bias(const Process& proc, const OpAmpVars& v, double ibias) {
  BiasSolution b;
  const auto& nn = proc.nmos;
  const auto& pp = proc.pmos;
  const double vdd = proc.vdd;
  const double l8 = v.l8;

  // Bias diode and tail mirror.
  b.vgs8 = diode_vgs(nn, v.w8, l8, ibias);
  b.e8 = spice::mos_eval(nn, b.vgs8, b.vgs8, 0.0, v.w8, l8);
  b.e5 = spice::mos_eval(nn, b.vgs8, b.vtail, 0.0, v.w5, v.l5);
  b.itail = b.e5.ids;
  if (b.itail < 0.05 * ibias) {
    b.imbalance = 1.0;
    return b;  // tail effectively off
  }
  b.i1 = 0.5 * b.itail;

  // First stage: PMOS mirror diode fixes o1.
  b.vgs3 = diode_vgs(pp, v.w3, v.l3, b.i1);
  b.e3 = spice::mos_eval(pp, b.vgs3, b.vgs3, 0.0, v.w3, v.l3);
  b.e4 = b.e3;
  b.o1 = vdd - b.vgs3;
  if (b.o1 < b.vtail + 0.2) {
    b.imbalance = 1.0;
    return b;  // no headroom for the pair
  }
  b.vgs1 = vgs_at(nn, v.w1, v.l1, b.i1, b.o1 - b.vtail, -b.vtail);
  b.e1 = spice::mos_eval(nn, b.vgs1, b.o1 - b.vtail, -b.vtail, v.w1, v.l1);

  // Second stage: find out2 where M6 (gate at o1) and M7 (gate at bias)
  // conduct the same current. No crossing inside the rails means the
  // output is stuck - the classic blind-search failure.
  auto i6_at = [&](double out2) {
    return spice::mos_ids(pp, b.vgs3, vdd - out2, 0.0, v.w6, v.l6);
  };
  auto i7_at = [&](double out2) {
    return spice::mos_ids(nn, b.vgs8, out2, 0.0, v.w7, v.l7);
  };
  double lo = 0.05, hi = vdd - 0.05;
  const double f_lo = i6_at(lo) - i7_at(lo);
  const double f_hi = i6_at(hi) - i7_at(hi);
  if (f_lo * f_hi > 0.0) {
    // Output stuck at a rail: grade the failure by the mid-rail current
    // mismatch so the annealer has a slope off the plateau.
    const double i6m = i6_at(0.5 * vdd);
    const double i7m = i7_at(0.5 * vdd);
    b.imbalance = std::fabs(i6m - i7m) / std::max(i6m + i7m, 1e-15);
    return b;
  }
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if ((i6_at(mid) - i7_at(mid)) * f_lo > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  b.out2 = 0.5 * (lo + hi);
  b.e6 = spice::mos_eval(pp, b.vgs3, vdd - b.out2, 0.0, v.w6, v.l6);
  b.e7 = spice::mos_eval(nn, b.vgs8, b.out2, 0.0, v.w7, v.l7);
  b.i6 = 0.5 * (b.e6.ids + b.e7.ids);

  // Saturation checks: pair, load mirror output, and both stage-2 devices.
  const double margin = 0.02;
  const bool sat =
      (b.e1.region == spice::MosRegion::Saturation) &&
      (vdd - b.out2 >= b.e6.vdsat - margin) && (b.out2 >= b.e7.vdsat - margin);
  if (!sat) {
    b.imbalance = 0.5;
    return b;
  }

  // Optional buffer.
  b.out_dc = b.out2;
  if (v.buffered()) {
    const double l9 = 2.0 * proc.lmin;
    // Iterate the follower level: i10 depends on out, vgs9 on i10. M10 is
    // fully evaluated once, at the level of the last iteration.
    double out = b.out2 - 1.2;
    double vds10 = 0.0;
    for (int it = 0; it < 8; ++it) {
      vds10 = std::max(out, 0.05);
      b.i9 = spice::mos_ids(nn, b.vgs8, vds10, 0.0, v.w10, l9);
      if (b.i9 <= 0.0) break;
      b.vgs9 = vgs_at(nn, v.w9, l9, b.i9, vdd - vds10, -vds10);
      out = b.out2 - b.vgs9;
    }
    b.e10 = spice::mos_eval(nn, b.vgs8, vds10, 0.0, v.w10, l9);
    if (b.i9 <= 0.0) {
      b.imbalance = 0.7;
      return b;
    }
    if (out < 0.1) {
      b.imbalance = 0.6;
      return b;
    }
    b.out_dc = out;
    b.e9 = spice::mos_eval(nn, b.vgs9, vdd - out, -out, v.w9, l9);
  }

  b.functional = true;
  return b;
}

/// Small-signal performance composition at a solved bias point.
OpAmpEval compose(const Process& proc, const OpAmpVars& v, const BiasSolution& b,
                  double ibias, double cload) {
  OpAmpEval e;
  e.imbalance = b.imbalance;
  if (!b.functional) return e;

  e.functional = true;
  e.itail = b.itail;
  const double a1 = b.e1.gm / std::max(b.e1.gds + b.e4.gds, 1e-15);
  const double a2 = b.e6.gm / std::max(b.e6.gds + b.e7.gds, 1e-15);
  double ab = 1.0;
  if (v.buffered()) {
    ab = b.e9.gm / std::max(b.e9.gm + b.e9.gmb + b.e9.gds + b.e10.gds, 1e-15);
  }
  e.gain = a1 * a2 * ab;
  const double cl2 = v.buffered() ? 2e-12 : cload;
  const double fp2 = b.e6.gm / (kTwoPi * (cl2 + b.e6.cdb + b.e7.cdb));
  const double fpb =
      v.buffered()
          ? (b.e9.gm + b.e9.gmb + b.e9.gds + b.e10.gds) / (kTwoPi * cload)
          : 1e18;
  // UGF with the M6 Miller overlap added to Cc and the second-pole and
  // buffer-pole magnitude droops folded in.
  const double u0 = b.e1.gm / (kTwoPi * (v.cc + b.e6.cgd));
  double fu = u0;
  for (int i = 0; i < 4; ++i) {
    fu = u0 / std::sqrt((1.0 + (fu / fp2) * (fu / fp2)) *
                        (1.0 + (fu / fpb) * (fu / fpb)));
  }
  e.ugf_hz = fu;
  e.phase_margin = 90.0 - std::atan(e.ugf_hz / fp2) * 180.0 / M_PI;
  e.gate_area = 2.0 * v.w1 * v.l1 + 2.0 * v.w3 * v.l3 + v.w5 * v.l5 +
                v.w6 * v.l6 + v.w7 * v.l7 + v.w8 * v.l8;
  if (v.buffered()) e.gate_area += (v.w9 + v.w10) * 2.0 * proc.lmin;
  e.dc_power = proc.vdd * (ibias + b.itail + b.i6 + b.i9);
  e.slew = std::min(b.itail / v.cc, b.i6 / (cl2 + v.cc));
  if (v.buffered() && b.i9 > 0.0) e.slew = std::min(e.slew, b.i9 / cload);
  e.zout = v.buffered()
               ? 1.0 / std::max(b.e9.gm + b.e9.gmb + b.e9.gds + b.e10.gds, 1e-15)
               : 1.0 / std::max(b.e6.gds + b.e7.gds, 1e-15);
  return e;
}

}  // namespace

std::vector<double> OpAmpVars::pack() const {
  std::vector<double> x{w1, l1, w3, l3, w5, l5, w6, l6, w7, l7, w8, l8, cc};
  if (buffered()) {
    x.push_back(w9);
    x.push_back(w10);
  }
  return x;
}

OpAmpVars OpAmpVars::unpack(const std::vector<double>& x, bool buffered) {
  if (x.size() != (buffered ? 15u : 13u)) {
    throw SpecError("OpAmpVars::unpack: wrong vector size");
  }
  OpAmpVars v;
  v.w1 = x[0];
  v.l1 = x[1];
  v.w3 = x[2];
  v.l3 = x[3];
  v.w5 = x[4];
  v.l5 = x[5];
  v.w6 = x[6];
  v.l6 = x[7];
  v.w7 = x[8];
  v.l7 = x[9];
  v.w8 = x[10];
  v.l8 = x[11];
  v.cc = x[12];
  if (buffered) {
    v.w9 = x[13];
    v.w10 = x[14];
  }
  return v;
}

std::vector<std::string> OpAmpVars::names(bool buffered) {
  std::vector<std::string> n{"w1", "l1", "w3", "l3", "w5", "l5", "w6",
                             "l6", "w7", "l7", "w8", "l8", "cc"};
  if (buffered) {
    n.push_back("w9");
    n.push_back("w10");
  }
  return n;
}

OpAmpEval evaluate_opamp_vars(const Process& proc, const OpAmpVars& v,
                              double ibias, double cload) {
  return compose(proc, v, solve_bias(proc, v, ibias), ibias, cload);
}

double opamp_cost(const OpAmpEval& e, const OpAmpSpec& spec) {
  if (!e.functional) return 1e3 * (1.0 + e.imbalance);
  auto under = [](double value, double target) {
    return target > 0.0 ? std::max(0.0, 1.0 - value / target) : 0.0;
  };
  auto over = [](double value, double target) {
    return target > 0.0 ? std::max(0.0, value / target - 1.0) : 0.0;
  };
  double c = 0.0;
  const double g_under = under(e.gain, spec.gain);
  const double u_under = under(e.ugf_hz, spec.ugf_hz);
  const double a_over = over(e.gate_area, spec.area_budget);
  c += 10.0 * g_under * g_under;
  c += 10.0 * u_under * u_under;
  c += 4.0 * a_over * a_over;
  const double pm_deficit = std::max(0.0, 45.0 - e.phase_margin) / 45.0;
  c += 2.0 * pm_deficit * pm_deficit;
  if (spec.buffer && spec.zout > 0.0) {
    const double z_over = over(e.zout, spec.zout);
    c += 2.0 * z_over * z_over;
  }
  // Objective terms: minimize power (and area when unconstrained).
  c += 0.05 * e.dc_power / 1e-3;
  c += 0.02 * e.gate_area / 5e-9;
  return c;
}

std::vector<std::pair<double, double>> blind_bounds(const Process& proc,
                                                    bool buffered) {
  const std::pair<double, double> w{proc.wmin, 1000e-6};
  const std::pair<double, double> l{2.0 * proc.lmin, 120e-6};
  std::vector<std::pair<double, double>> b{w, l, w, l, w, l, w, l, w, l, w, l,
                                           {0.1e-12, 30e-12}};
  if (buffered) {
    b.push_back(w);
    b.push_back(w);
  }
  return b;
}

std::vector<std::pair<double, double>> seeded_bounds(
    const std::vector<double>& seed, double frac, const Process& proc,
    bool buffered) {
  auto blind = blind_bounds(proc, buffered);
  if (seed.size() != blind.size()) {
    throw SpecError("seeded_bounds: seed size mismatch");
  }
  std::vector<std::pair<double, double>> b(seed.size());
  for (size_t i = 0; i < seed.size(); ++i) {
    b[i] = {std::max(seed[i] * (1.0 - frac), blind[i].first),
            std::min(seed[i] * (1.0 + frac), blind[i].second)};
    if (b[i].first > b[i].second) {
      // Seed outside the technology box: pin to the nearest legal point.
      const double pin = std::clamp(seed[i], blind[i].first, blind[i].second);
      b[i] = {pin, pin};
    }
  }
  return b;
}

OpAmpVars vars_from_design(const OpAmpDesign& d) {
  OpAmpVars v;
  auto find = [&](const std::string& role) -> const TransistorDesign* {
    for (size_t i = 0; i < d.roles.size(); ++i) {
      if (d.roles[i] == role) return &d.transistors[i];
    }
    return nullptr;
  };
  const TransistorDesign* m1 = find("m1");
  const TransistorDesign* m3 = find("m3");
  const TransistorDesign* m6 = find("m6");
  const TransistorDesign* m7 = find("m7");
  if (m1 == nullptr || m3 == nullptr || m6 == nullptr || m7 == nullptr) {
    throw SpecError("vars_from_design: not a two-stage opamp design");
  }
  v.w1 = m1->w;
  v.l1 = m1->l;
  v.w3 = m3->w;
  v.l3 = m3->l;
  v.w6 = m6->w;
  v.l6 = m6->l;
  v.w7 = m7->w;
  v.l7 = m7->l;
  v.cc = d.perf.cc;
  // Tail/bias: simple-mirror roles, or the Wilson equivalents mapped onto
  // the mirror template (the synthesis engine optimizes the mirror-tail
  // topology; Wilson seeds land on their equivalent mirror sizing).
  if (const TransistorDesign* m5 = find("m5")) {
    v.w5 = m5->w;
    v.l5 = m5->l;
    v.w8 = find("m8")->w;
    v.l8 = find("m8")->l;
  } else {
    v.w5 = find("w_diode")->w;
    v.l5 = find("w_diode")->l;
    v.w8 = find("w_in")->w;
    v.l8 = find("w_in")->l;
  }
  if (const TransistorDesign* m9 = find("m9")) {
    v.w9 = m9->w;
    v.w10 = find("m10")->w;
  }
  return v;
}

OpAmpDesign design_from_vars(const Process& proc, const OpAmpVars& v,
                             const OpAmpSpec& spec, OpAmpEval* eval) {
  const BiasSolution b = solve_bias(proc, v, spec.ibias);
  const double vdd = proc.vdd;
  const double l8 = v.l8;
  const double l9 = 2.0 * proc.lmin;

  OpAmpDesign d;
  d.spec = spec;
  d.spec.source = est::CurrentSourceKind::Mirror;  // synthesis template
  d.spec.buffer = v.buffered();

  TransistorDesign m1 = make_design(MosType::Nmos, v.w1, v.l1, b.e1, b.vgs1,
                                    b.o1 - b.vtail, -b.vtail);
  TransistorDesign m3 =
      make_design(MosType::Pmos, v.w3, v.l3, b.e3, b.vgs3, b.vgs3, 0.0);
  TransistorDesign m6 = make_design(MosType::Pmos, v.w6, v.l6, b.e6, b.vgs3,
                                    vdd - b.out2, 0.0);
  TransistorDesign m7 =
      make_design(MosType::Nmos, v.w7, v.l7, b.e7, b.vgs8, b.out2, 0.0);
  TransistorDesign m5 =
      make_design(MosType::Nmos, v.w5, v.l5, b.e5, b.vgs8, b.vtail, 0.0);
  TransistorDesign m8 =
      make_design(MosType::Nmos, v.w8, l8, b.e8, b.vgs8, b.vgs8, 0.0);

  d.transistors = {m1, m1, m3, m3, m6, m7, m5, m8};
  d.roles = {"m1", "m2", "m3", "m4", "m6", "m7", "m5", "m8"};
  if (v.buffered()) {
    TransistorDesign m9 = make_design(MosType::Nmos, v.w9, l9, b.e9, b.vgs9,
                                      vdd - b.out_dc, -b.out_dc);
    TransistorDesign m10 =
        make_design(MosType::Nmos, v.w10, l9, b.e10, b.vgs8, b.out_dc, 0.0);
    d.transistors.push_back(m9);
    d.transistors.push_back(m10);
    d.roles.push_back("m9");
    d.roles.push_back("m10");
  }

  const OpAmpEval e = compose(proc, v, b, spec.ibias, spec.cload);
  if (eval != nullptr) *eval = e;
  d.perf.gain = e.gain;
  d.perf.ugf_hz = e.ugf_hz;
  d.perf.phase_margin = e.phase_margin;
  d.perf.dc_power = e.dc_power;
  d.perf.gate_area = e.gate_area;
  d.perf.ibias = e.itail;
  d.perf.zout = e.zout;
  d.perf.slew = e.slew;
  d.perf.cc = v.cc;
  d.perf.rz = b.e6.gm > 0.0 ? 1.0 / b.e6.gm : 1e3;
  d.perf.input_cm = b.vtail + b.vgs1;
  return d;
}

}  // namespace ape::synth
