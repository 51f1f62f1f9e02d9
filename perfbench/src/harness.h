#pragma once
/// \file harness.h
/// Shared machinery of the repository benchmark (`apebench`): options,
/// deterministic input generation, percentiles, the span tracer, the
/// per-run result record and the repeated, median-timed set-up.
///
/// Every workload does a fixed amount of work derived from (--seed,
/// --seconds) only, so at one seed every count and quality fraction
/// repeats exactly and only the timings vary.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/estimator/opamp.h"
#include "src/util/diagnostics.h"

namespace apebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir = ".";   ///< working directory (sockets, span dumps)
  std::string source_id = "unknown";
};

double now_s();  ///< steady clock [s]

// ---------------------------------------------------------------------------
// Deterministic inputs (splitmix64 streams; independent of <random>).

uint64_t mix(uint64_t seed, uint64_t stream);
double unit(uint64_t seed, uint64_t stream);  ///< uniform in [0, 1)

/// The paper's Table-1 opamp specifications oa0..oa9 (area budgets scaled
/// by the same factor the repository's table benches use).
std::vector<ape::est::OpAmpSpec> table1_specs();
/// The six buffered Table-1 specs (oa0-oa2, oa7-oa9). Workloads whose op
/// time depends on the topology use one class, so the op times are
/// unimodal and their median does not sit on a gap between two clusters
/// (unbuffered ops run two to three times faster).
std::vector<ape::est::OpAmpSpec> buffered_table1_specs();

/// \p base with gain, UGF and Ibias each scaled by an independent factor
/// drawn uniformly from [1 - frac, 1 + frac].
ape::est::OpAmpSpec jitter(const ape::est::OpAmpSpec& base, uint64_t seed,
                           uint64_t stream, double frac);

/// Number of fixed-work ops for a run of \p seconds at a nominal op cost.
long op_count(int seconds, double nominal_op_s, long min_ops);

/// In a traced run, one block of twelve consecutive ops in three is traced
/// (spans, kernel counters, replays) and the rest run untraced, so the
/// tracing overhead is measured on the same op mix in the same process.
/// Twelve is two cycles of the six buffered specs.
inline bool traced_round(long index) { return (index / 12) % 3 == 0; }

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolation percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
/// Mean of the samples between the 10th and 90th percentiles: unlike a
/// median it moves smoothly when host speed switches between two states
/// within a run, and unlike a mean it ignores rare host stalls.
double trimmed_mean(std::vector<double> v);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }
double sum(const std::vector<double>& v);
double mean(const std::vector<double>& v);  ///< 0 for an empty sample

/// |a - b| / |b|, the relative error of an estimate a against reference b.
double rel_err(double a, double b);

long peak_rss_kb();

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and op id, kept in memory and written at
// exit. Disabled tracers record nothing and never read the clock.

struct Span {
  const char* name = "";
  double t0_us = 0.0;
  double t1_us = 0.0;
  int parent = -1;
  long op = -1;
  int thread = 0;
};

class Tracer {
public:
  static Tracer& instance();

  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  int begin(const char* name, long op);
  void end(int id);

  /// Spans recorded so far (copy; safe while other threads record).
  std::vector<Span> spans() const;

  /// One JSON object per line.
  void write_jsonl(const std::string& path) const;
  /// Per-name count, total and self time (duration minus child spans).
  std::string layer_table() const;

private:
  Tracer() = default;
  bool on_ = false;
  double origin_s_ = 0.0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer. \p active lets a caller
/// trace only some ops of a traced run.
class SpanScope {
public:
  SpanScope(const char* name, long op, bool active = true);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

private:
  int id_ = -1;
};

// ---------------------------------------------------------------------------
// Result of one run.

struct Result {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, double> metrics;  ///< main prints the mode's subset
  std::map<std::string, long> samples;    ///< sample count behind each percentile
  std::map<std::string, std::string> record;  ///< workload facts for the run record

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void set(const std::string& name, double v) { metrics[name] = v; }
};

/// Runs \p make (build inputs and state, then one untimed warm-up op)
/// \p reps times from scratch, dropping the previous state before each
/// repetition, and stores the median duration in \p median_s. Returns
/// the last repetition's state.
template <class Make>
auto timed_setup(int reps, Make make, double* median_s) {
  std::vector<double> times;
  decltype(make()) state;
  for (int i = 0; i < reps; ++i) {
    state.reset();
    const double t0 = now_s();
    state = make();
    times.push_back(now_s() - t0);
  }
  *median_s = median(times);
  return state;
}

constexpr int kSetupReps = 15;  ///< set-ups per run for cheap warm-up ops

/// What every workload measures in its timed phase.
struct RunData {
  double setup_s = 0.0;
  long ok_ops = 0;       ///< ops completed ok (of Result::attempted)
  long met = 0;          ///< verified designs (or MC points) meeting spec
  long verified = 0;     ///< simulator-verified designs (or MC points)
  double phase_s = 0.0;  ///< time the timed ops took
  long timed_ops = 0;    ///< ops behind ops_per_s
  std::vector<double> op_ms, est_ms, gain_err, ugf_err;
};

/// The end-to-end metrics, plus the ungated estimate-latency percentiles.
void set_end_to_end(Result& r, const RunData& d);

// Per-layer metrics of a traced run, from the benchmark's replays.

/// Replayed verifications: full (verify) and AC-only (ac) simulations,
/// paired per op; the transient is their difference.
struct SpiceSplit {
  std::vector<double> verify_ms, ac_ms;
  ape::KernelStats kernel;  ///< from a ScopedKernelStatsSink around the ops
  long sims = 0, sim_failed = 0;
};
void set_spice_layer(Result& r, const SpiceSplit& s);
void set_synth_layer(Result& r, long evals, long skipped, double self_s);
void set_estimator_layer(Result& r, const std::vector<double>& call_us, long failed);
/// trace.overhead_frac: traced over untraced op_ms_p50, minus one.
void set_trace_overhead(Result& r, const std::vector<double>& traced_ms,
                        const std::vector<double>& untraced_ms);

// Workloads.
Result run_table4_seeded(const Options& o);
Result run_verify_batch(const Options& o);
Result run_serve_mixed(const Options& o);
Result run_yield_mc(const Options& o);

}  // namespace apebench
