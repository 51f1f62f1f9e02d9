#include "src/runtime/batch.h"

#include <future>
#include <mutex>

#include "src/lint/lint.h"
#include "src/lint/prove.h"
#include "src/runtime/executor.h"
#include "src/util/diagnostics.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace ape::runtime {
namespace {

/// Feasibility half of the lint-first gate (APE-F, src/lint/prove.h):
/// prove the spec reachable over the sizing box before any solve.
/// Throws LintError — ErrorClass::Permanent, so the supervision ladder
/// skips every recovery rung and goes straight to the estimate fallback,
/// and the quarantine registry is never involved. Contraction is only
/// worth its ~100 extra interval evaluations when the proof artifacts
/// feed a synthesis run; the estimate-only gates pass contract=false.
lint::FeasibilityProof prove_gate(const est::Process& proc,
                                  const est::OpAmpSpec& spec, bool contract) {
  lint::ProveOptions po;
  if (!contract) po.contraction_segments = 0;
  lint::FeasibilityProof proof = lint::prove_opamp_feasibility(proc, spec, po);
  lint::require_feasible(proof, "lint-first");
  return proof;
}

/// Run \p job(i) for every i in [0, n) on a pool of \p threads workers
/// (inline when threads == 1), storing into \p results[i]. Each job is
/// wrapped with its own ErrorContext frame (re-anchored to the chain open
/// on the calling thread) and its ape::Errors are captured per job.
/// Every job also runs under its own ambient KernelStats sink; the
/// per-job tallies are merged into \p kernel_agg under a mutex. Counter
/// merging is a commutative sum (max for the byte gauges), so the
/// aggregate is thread-count invariant like the job outcomes themselves.
template <class Result, class Job>
void fan_out(size_t n, int threads, const char* label,
             std::vector<Result>& results, KernelStats& kernel_agg,
             const Job& job) {
  results.resize(n);
  const std::string parent = ErrorContext::chain();
  std::mutex agg_mu;

  auto run_one = [&](size_t i) {
    Result r;
    r.index = i;
    const std::string frame =
        std::string(label) + "[" + std::to_string(i) + "]";
    ErrorContext scope(parent.empty() ? frame : parent + " -> " + frame);
    KernelStats job_kernel;
    {
      ScopedKernelStatsSink sink(job_kernel);
      try {
        r.outcome = job(i);
        r.ok = true;
      } catch (const Error& e) {
        r.error = e.what();
      } catch (const std::exception& e) {
        // Non-ape exceptions (bad_alloc, logic errors) are still isolated
        // per job; annotate manually since only ape::Error self-annotates.
        r.error = annotate_with_context(e.what());
      }
    }
    {
      std::lock_guard<std::mutex> lock(agg_mu);
      kernel_agg.accumulate(job_kernel);
    }
    return r;
  };

  if (threads <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) results[i] = run_one(i);
    return;
  }
  Executor pool(static_cast<int>(
      std::min(static_cast<size_t>(threads), n)));
  std::vector<std::future<Result>> futures;
  futures.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    futures.push_back(pool.submit([&run_one, i] { return run_one(i); }));
  }
  for (size_t i = 0; i < n; ++i) results[i] = futures[i].get();
}

/// Fill the aggregate stats: timings, failure counts, cache delta.
template <class BatchResult>
void finish_stats(BatchResult& out, int threads, double t0,
                  const EstimateCache* cache, const CacheStats& cache_before) {
  BatchStats& s = out.stats;
  s.jobs = static_cast<int>(out.jobs.size());
  s.threads = threads;
  for (const auto& j : out.jobs) {
    if (!j.ok) ++s.failed;
  }
  s.wall_seconds = now_seconds() - t0;
  s.jobs_per_second = s.wall_seconds > 0.0 ? s.jobs / s.wall_seconds : 0.0;
  if (cache != nullptr) {
    const CacheStats after = cache->stats();
    s.cache.hits = after.hits - cache_before.hits;
    s.cache.misses = after.misses - cache_before.misses;
  }
}

}  // namespace

namespace detail {

void lint_gate(bool enabled, const est::Process& proc,
               const est::OpAmpSpec& spec) {
  if (enabled) lint::require_clean(lint::lint_spec(spec, proc), "lint-first");
}

void lint_gate(bool enabled, const est::Process& proc,
               const est::ModuleSpec& spec) {
  if (enabled) lint::require_clean(lint::lint_spec(spec, proc), "lint-first");
}

synth::SynthesisOutcome run_one_opamp(const est::Process& proc,
                                      const est::OpAmpSpec& spec, size_t index,
                                      const BatchOptions& options) {
  lint_gate(options.lint_first, proc, spec);
  synth::SynthesisOptions so = options.synth;
  if (options.lint_first) {
    const lint::FeasibilityProof proof =
        prove_gate(proc, spec, /*contract=*/true);
    // Hand the proof artifacts to the annealer: restarts sample inside
    // the proven-feasible box, and the proven cost floor lets serial
    // multi-start stop early. Explicit caller-provided values win.
    if (so.feasible_box.empty()) so.feasible_box = proof.feasible_box;
    if (so.cost_lower_bound <= 0.0) {
      so.cost_lower_bound = proof.cost_lower_bound;
    }
  }
  so.anneal.seed = Rng::derive_stream(options.seed, index);
  // The job runs on one pool slot; its restarts stay serial unless the
  // caller explicitly asked for nested parallelism.
  if (options.synth.restart_threads == 0) so.restart_threads = 1;
  // Resolve the APE seed through the shared cache so identical specs
  // estimate once across the whole batch. The shared_ptr pins the
  // entry for the lifetime of the job.
  std::shared_ptr<const est::OpAmpDesign> seed;
  if (so.use_ape_seed && options.cache != nullptr && so.seed_design == nullptr) {
    seed = options.cache->opamp(proc, spec);
    so.seed_design = seed.get();
  }
  return synth::synthesize_opamp(proc, spec, so);
}

synth::ModuleSynthesisOutcome run_one_module(const est::Process& proc,
                                             const est::ModuleSpec& spec,
                                             size_t index,
                                             const BatchOptions& options) {
  lint_gate(options.lint_first, proc, spec);
  synth::SynthesisOptions so = options.synth;
  so.anneal.seed = Rng::derive_stream(options.seed, index);
  if (options.synth.restart_threads == 0) so.restart_threads = 1;
  std::shared_ptr<const est::ModuleDesign> proto;
  if (options.cache != nullptr && so.module_proto == nullptr) {
    proto = options.cache->module(proc, spec);
    so.module_proto = proto.get();
  }
  return synth::synthesize_module(proc, spec, so);
}

}  // namespace detail

OpAmpBatchResult run_opamp_batch(const est::Process& proc,
                                 const std::vector<est::OpAmpSpec>& specs,
                                 const BatchOptions& options) {
  const double t0 = now_seconds();
  const int threads = resolve_threads(options.threads);
  const CacheStats before =
      options.cache != nullptr ? options.cache->stats() : CacheStats{};

  OpAmpBatchResult out;
  fan_out(specs.size(), threads, "opamp_batch", out.jobs,
          out.stats.kernel, [&](size_t i) {
    return detail::run_one_opamp(proc, specs[i], i, options);
  });
  for (const auto& j : out.jobs) {
    if (j.ok && j.outcome.meets_spec) ++out.stats.met_spec;
  }
  finish_stats(out, threads, t0, options.cache, before);
  return out;
}

ModuleBatchResult run_module_batch(const est::Process& proc,
                                   const std::vector<est::ModuleSpec>& specs,
                                   const BatchOptions& options) {
  const double t0 = now_seconds();
  const int threads = resolve_threads(options.threads);
  const CacheStats before =
      options.cache != nullptr ? options.cache->stats() : CacheStats{};

  ModuleBatchResult out;
  fan_out(specs.size(), threads, "module_batch", out.jobs,
          out.stats.kernel, [&](size_t i) {
    return detail::run_one_module(proc, specs[i], i, options);
  });
  for (const auto& j : out.jobs) {
    if (j.ok && j.outcome.meets_spec) ++out.stats.met_spec;
  }
  finish_stats(out, threads, t0, options.cache, before);
  return out;
}

OpAmpEstimateBatchResult estimate_opamp_batch(
    const est::Process& proc, const std::vector<est::OpAmpSpec>& specs,
    const BatchOptions& options) {
  const double t0 = now_seconds();
  const int threads = resolve_threads(options.threads);
  const CacheStats before =
      options.cache != nullptr ? options.cache->stats() : CacheStats{};

  OpAmpEstimateBatchResult out;
  fan_out(specs.size(), threads, "opamp_estimate", out.jobs,
          out.stats.kernel, [&](size_t i) {
    detail::lint_gate(options.lint_first, proc, specs[i]);
    if (options.lint_first) prove_gate(proc, specs[i], /*contract=*/false);
    if (options.cache != nullptr) return options.cache->opamp(proc, specs[i]);
    return std::make_shared<const est::OpAmpDesign>(
        est::OpAmpEstimator(proc).estimate(specs[i]));
  });
  finish_stats(out, threads, t0, options.cache, before);
  return out;
}

ModuleEstimateBatchResult estimate_module_batch(
    const est::Process& proc, const std::vector<est::ModuleSpec>& specs,
    const BatchOptions& options) {
  const double t0 = now_seconds();
  const int threads = resolve_threads(options.threads);
  const CacheStats before =
      options.cache != nullptr ? options.cache->stats() : CacheStats{};

  ModuleEstimateBatchResult out;
  fan_out(specs.size(), threads, "module_estimate", out.jobs,
          out.stats.kernel, [&](size_t i) {
    detail::lint_gate(options.lint_first, proc, specs[i]);
    if (options.cache != nullptr) return options.cache->module(proc, specs[i]);
    return std::make_shared<const est::ModuleDesign>(
        est::ModuleEstimator(proc).estimate(specs[i]));
  });
  finish_stats(out, threads, t0, options.cache, before);
  return out;
}

}  // namespace ape::runtime
