#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "src/util/rng.h"

namespace apebench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t mix(uint64_t seed, uint64_t stream) {
  return ape::Rng::derive_stream(seed, stream);
}

double unit(uint64_t seed, uint64_t stream) {
  return static_cast<double>(mix(seed, stream) >> 11) * 0x1.0p-53;
}

std::vector<ape::est::OpAmpSpec> table1_specs() {
  using K = ape::est::CurrentSourceKind;
  struct Row {
    double gain, ugf_hz, area_um2, ibias;
    K source;
    bool buffer;
    double zout;
  };
  static const Row rows[] = {
      {200, 1.3e6, 5000, 1.0e-6, K::Wilson, true, 1e3},
      {70, 3.0e6, 3000, 2.0e-6, K::Wilson, true, 1e3},
      {100, 2.5e6, 2000, 1.5e-6, K::Wilson, true, 2e3},
      {250, 8.0e6, 1000, 1.0e-6, K::Mirror, false, 0},
      {150, 3.0e6, 1000, 100e-6, K::Mirror, false, 0},
      {200, 8.0e6, 5000, 10e-6, K::Mirror, false, 0},
      {50, 10.0e6, 2000, 10e-6, K::Mirror, false, 0},
      {200, 3.0e6, 6000, 1.0e-6, K::Mirror, true, 1e3},
      {100, 2.0e6, 1000, 1.0e-6, K::Mirror, true, 10e3},
      {200, 5.0e6, 5000, 10e-6, K::Mirror, true, 10e3},
  };
  constexpr double kAreaScale = 4.0;  // as in the repository's table benches
  std::vector<ape::est::OpAmpSpec> out;
  for (const Row& r : rows) {
    ape::est::OpAmpSpec s;
    s.gain = r.gain;
    s.ugf_hz = r.ugf_hz;
    s.ibias = r.ibias;
    s.cload = 10e-12;
    s.source = r.source;
    s.buffer = r.buffer;
    s.zout = r.zout;
    s.area_budget = r.area_um2 * kAreaScale * 1e-12;
    out.push_back(s);
  }
  return out;
}

std::vector<ape::est::OpAmpSpec> buffered_table1_specs() {
  std::vector<ape::est::OpAmpSpec> out;
  for (const ape::est::OpAmpSpec& s : table1_specs()) {
    if (s.buffer) out.push_back(s);
  }
  return out;
}

ape::est::OpAmpSpec jitter(const ape::est::OpAmpSpec& base, uint64_t seed,
                           uint64_t stream, double frac) {
  const uint64_t s = mix(seed, stream);
  auto factor = [&](uint64_t k) { return 1.0 - frac + 2.0 * frac * unit(s, k); };
  ape::est::OpAmpSpec out = base;
  out.gain *= factor(0);
  out.ugf_hz *= factor(1);
  out.ibias *= factor(2);
  return out;
}

long op_count(int seconds, double nominal_op_s, long min_ops) {
  return std::max(min_ops, std::lround(seconds / nominal_op_s));
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 10;
  const size_t hi = std::max(lo + 1, v.size() - v.size() / 10);
  double s = 0.0;
  for (size_t i = lo; i < hi; ++i) s += v[i];
  return s / static_cast<double>(hi - lo);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double rel_err(double a, double b) { return std::fabs(a - b) / std::fabs(b); }

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

// ---------------------------------------------------------------------------

namespace {
thread_local int t_current_span = -1;

int thread_tag() {
  static std::mutex mu;
  static std::unordered_map<std::thread::id, int> ids;
  std::lock_guard<std::mutex> lock(mu);
  return ids.emplace(std::this_thread::get_id(), static_cast<int>(ids.size()))
      .first->second;
}
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int Tracer::begin(const char* name, long op) {
  Span s;
  s.name = name;
  s.parent = t_current_span;
  s.op = op;
  s.thread = thread_tag();
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.empty()) {
    spans_.reserve(1 << 16);
    origin_s_ = now_s();
  }
  s.t0_us = (now_s() - origin_s_) * 1e6;
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  t_current_span = id;
  return id;
}

void Tracer::end(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].t1_us = (now_s() - origin_s_) * 1e6;
  t_current_span = spans_[static_cast<size_t>(id)].parent;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_jsonl(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream os(path);
  char buf[256];
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"parent\":%d,\"op\":%ld,\"thread\":%d}\n",
                  i, s.name, s.t0_us, s.t1_us, s.parent, s.op, s.thread);
    os << buf;
  }
}

std::string Tracer::layer_table() const {
  const std::vector<Span> all = spans();
  std::vector<double> child_us(all.size(), 0.0);
  for (const Span& s : all) {
    if (s.parent >= 0) child_us[static_cast<size_t>(s.parent)] += s.t1_us - s.t0_us;
  }
  struct Row {
    long count = 0;
    double total_us = 0.0, self_us = 0.0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < all.size(); ++i) {
    Row& r = rows[all[i].name];
    const double d = all[i].t1_us - all[i].t0_us;
    ++r.count;
    r.total_us += d;
    r.self_us += d - child_us[i];
  }
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-36s %8s %12s %12s %10s\n", "span", "count",
                "total_ms", "self_ms", "mean_us");
  out += buf;
  for (const auto& [name, r] : rows) {
    std::snprintf(buf, sizeof buf, "%-36s %8ld %12.3f %12.3f %10.2f\n",
                  name.c_str(), r.count, r.total_us / 1e3, r.self_us / 1e3,
                  r.total_us / static_cast<double>(r.count));
    out += buf;
  }
  return out;
}

SpanScope::SpanScope(const char* name, long op, bool active) {
  Tracer& t = Tracer::instance();
  if (active && t.on()) id_ = t.begin(name, op);
}

SpanScope::~SpanScope() {
  if (id_ >= 0) Tracer::instance().end(id_);
}

// ---------------------------------------------------------------------------

namespace {
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

void set_end_to_end(Result& r, const RunData& d) {
  r.set("setup_s", d.setup_s);
  r.set("peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0);
  r.set("ok_frac", ratio(static_cast<double>(d.ok_ops), static_cast<double>(r.attempted)));
  r.set("spec_met_frac", ratio(static_cast<double>(d.met), static_cast<double>(d.verified)));
  r.set("ops_per_s", ratio(static_cast<double>(d.timed_ops), d.phase_s));
  r.set("op_ms_p50", percentile(d.op_ms, 0.5));
  r.set("op_ms_p90", percentile(d.op_ms, 0.9));
  r.set("est_ms_tmean", trimmed_mean(d.est_ms));
  r.set("est_lat.p50_ms", percentile(d.est_ms, 0.5));
  r.set("est_lat.p90_ms", percentile(d.est_ms, 0.9));
  r.set("est_lat.p99_ms", percentile(d.est_ms, 0.99));
  r.set("gain_err_p50", percentile(d.gain_err, 0.5));
  r.set("ugf_err_p50", percentile(d.ugf_err, 0.5));
  r.samples["op_ms"] = static_cast<long>(d.op_ms.size());
  r.samples["est_ms"] = static_cast<long>(d.est_ms.size());
  r.samples["gain_err"] = static_cast<long>(d.gain_err.size());
  r.samples["ugf_err"] = static_cast<long>(d.ugf_err.size());
}

void set_spice_layer(Result& r, const SpiceSplit& s) {
  std::vector<double> tran_ms;
  for (size_t i = 0; i < s.verify_ms.size(); ++i) tran_ms.push_back(s.verify_ms[i] - s.ac_ms[i]);
  r.set("spice.verify_ms", median(s.verify_ms));
  r.set("spice.ac_ms", median(s.ac_ms));
  r.set("spice.tran_ms", median(tran_ms));
  r.set("spice.factorizations", static_cast<double>(s.kernel.factorizations));
  r.set("spice.solves", static_cast<double>(s.kernel.solves));
  r.set("spice.ac_points",
        static_cast<double>(s.kernel.ac_points_fused + s.kernel.ac_points_virtual));
  r.set("spice.refined_frac", ratio(static_cast<double>(s.kernel.refinement_solves),
                                    static_cast<double>(s.kernel.solves)));
  r.set("spice.sparse_refactors", static_cast<double>(s.kernel.numeric_refactors));
  r.set("spice.symbolic_reuses", static_cast<double>(s.kernel.symbolic_reuses));
  r.set("spice.sim_failed_frac", ratio(static_cast<double>(s.sim_failed), static_cast<double>(s.sims)));
  r.samples["spice.replays"] = static_cast<long>(s.verify_ms.size());
}

void set_synth_layer(Result& r, long evals, long skipped, double self_s) {
  r.set("synth.evals", static_cast<double>(evals));
  r.set("synth.eval_us", ratio(self_s * 1e6, static_cast<double>(evals)));
  r.set("synth.self_s", self_s);
  r.set("synth.skipped_frac", ratio(static_cast<double>(skipped), static_cast<double>(evals)));
}

void set_estimator_layer(Result& r, const std::vector<double>& call_us, long failed) {
  const double calls = static_cast<double>(call_us.size() + static_cast<size_t>(failed));
  r.set("estimator.calls", calls);
  r.set("estimator.us_per_call", mean(call_us));
  r.set("estimator.fail_frac", ratio(static_cast<double>(failed), calls));
}

void set_trace_overhead(Result& r, const std::vector<double>& traced_ms,
                        const std::vector<double>& untraced_ms) {
  r.set("trace.overhead_frac",
        untraced_ms.empty() ? 0.0 : median(traced_ms) / median(untraced_ms) - 1.0);
  r.samples["trace.traced_ops"] = static_cast<long>(traced_ms.size());
  r.samples["trace.untraced_ops"] = static_cast<long>(untraced_ms.size());
}

}  // namespace apebench
