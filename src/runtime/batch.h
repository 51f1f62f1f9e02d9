#pragma once
/// \file batch.h
/// Batch entry points of the estimation runtime (DESIGN.md section 7):
/// fan a vector of specs across a runtime::Executor and collect per-job
/// results, with per-job error isolation and deterministic seeding.
///
/// Seeding discipline: job i always synthesizes with the anneal seed
/// Rng::derive_stream(options.seed, i) (restarts inside a job derive
/// further sub-streams), and every job runs to completion regardless of
/// which worker picks it up — so a batch of N specs produces bit-identical
/// designs and costs at 1 thread and at k threads. The only supported
/// sources of nondeterminism are the wall-clock fields (cpu_seconds,
/// BatchStats timings) and an optional *shared* RunBudget/deadline in
/// options.synth.anneal.budget, which trades determinism for boundedness.
///
/// Error isolation: a job whose synthesis or estimation throws ape::Error
/// fails alone — the error (already carrying the job's ErrorContext
/// provenance, stamped "opamp_batch[i]" / "module_batch[i]") is captured
/// on the job result and the rest of the batch completes normally.

#include <memory>
#include <string>
#include <vector>

#include "src/estimator/modules.h"
#include "src/estimator/opamp.h"
#include "src/estimator/process.h"
#include "src/runtime/cache.h"
#include "src/synth/astrx.h"
#include "src/util/diagnostics.h"

namespace ape::runtime {

/// Knobs shared by every batch entry point.
struct BatchOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = serial (still through
  /// the same code path, so serial and pooled results are comparable).
  int threads = 0;
  /// Base seed of the batch; job i anneals with stream i derived from it.
  uint64_t seed = 1;
  /// Template synthesis options applied to every job (the per-job seed
  /// and cached-estimate pointers are overridden per job).
  synth::SynthesisOptions synth;
  /// Optional shared estimate cache (memoizes the APE seed designs /
  /// module prototypes across jobs and batches). Not owned.
  EstimateCache* cache = nullptr;
  /// Lint every job's spec (lint::lint_spec, DESIGN.md section 9) before
  /// synthesizing / estimating it, then prove its feasibility over the
  /// sizing box (lint::prove_opamp_feasibility, DESIGN.md section 14).
  /// A spec with lint errors — or a proven-infeasible one (APE-F001) —
  /// fails its job with a Permanent LintError before any synthesis
  /// budget is spent: the supervision ladder skips every recovery rung and
  /// goes straight to the estimate fallback, and quarantine is
  /// untouched. For feasible opamp jobs the proof's contracted box and
  /// cost floor are handed to the annealer (SynthesisOptions).
  bool lint_first = false;
};

/// One job's outcome; `ok == false` means the job threw and `error`
/// holds the provenance-annotated message.
template <class Outcome>
struct JobResult {
  size_t index = 0;    ///< position in the input spec vector
  bool ok = false;
  std::string error;   ///< empty when ok
  Outcome outcome{};   ///< default-constructed when !ok
};

using OpAmpJobResult = JobResult<synth::SynthesisOutcome>;
using ModuleJobResult = JobResult<synth::ModuleSynthesisOutcome>;

/// Aggregate batch accounting (wall-clock fields are nondeterministic).
struct BatchStats {
  int jobs = 0;
  int failed = 0;          ///< jobs with ok == false
  int met_spec = 0;        ///< jobs whose outcome meets the spec
  int threads = 1;         ///< pool size actually used
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  CacheStats cache;        ///< cache delta attributable to this batch
  /// Solver-kernel counters summed over every job in the batch (each job
  /// runs under its own ambient KernelStats sink; per-job tallies are
  /// merged with KernelStats::accumulate, so the counter sums are
  /// bit-identical at any thread count). Newton iterations, LU
  /// factorizations, fused AC points, and the sparse-path counters
  /// (symbolic analyses/reuses, numeric refactorizations, fallbacks)
  /// all surface here.
  KernelStats kernel;
};

struct OpAmpBatchResult {
  std::vector<OpAmpJobResult> jobs;  ///< jobs[i] is specs[i] (index order)
  BatchStats stats;
};

struct ModuleBatchResult {
  std::vector<ModuleJobResult> jobs;
  BatchStats stats;
};

/// Synthesize every opamp spec (one synthesize_opamp job per spec).
OpAmpBatchResult run_opamp_batch(const est::Process& proc,
                                 const std::vector<est::OpAmpSpec>& specs,
                                 const BatchOptions& options);

/// Synthesize every module spec (one synthesize_module job per spec).
ModuleBatchResult run_module_batch(const est::Process& proc,
                                   const std::vector<est::ModuleSpec>& specs,
                                   const BatchOptions& options);

/// Estimate-only batches: the APE itself (no annealing, no simulator),
/// the workload of the paper's 0.12 s / 0.14 s CPU-time claims at scale.
/// Designs are shared cache entries when a cache is supplied.
struct OpAmpEstimateBatchResult {
  std::vector<JobResult<std::shared_ptr<const est::OpAmpDesign>>> jobs;
  BatchStats stats;
};
struct ModuleEstimateBatchResult {
  std::vector<JobResult<std::shared_ptr<const est::ModuleDesign>>> jobs;
  BatchStats stats;
};

OpAmpEstimateBatchResult estimate_opamp_batch(
    const est::Process& proc, const std::vector<est::OpAmpSpec>& specs,
    const BatchOptions& options);

ModuleEstimateBatchResult estimate_module_batch(
    const est::Process& proc, const std::vector<est::ModuleSpec>& specs,
    const BatchOptions& options);

namespace detail {

/// The lint half of BatchOptions::lint_first: no-op unless \p enabled,
/// else throws lint::LintError (Permanent) on a spec with lint errors.
void lint_gate(bool enabled, const est::Process& proc,
               const est::OpAmpSpec& spec);
void lint_gate(bool enabled, const est::Process& proc,
               const est::ModuleSpec& spec);

/// The body of one opamp batch job (lint gate, per-job seed derivation,
/// cached APE-seed resolution, synthesis) without the fan-out / error
/// capture around it. Exposed so the supervised runtime (supervisor.h)
/// re-runs exactly the same job under its recovery ladder: a supervised
/// attempt and an unsupervised job are byte-for-byte the same work.
synth::SynthesisOutcome run_one_opamp(const est::Process& proc,
                                      const est::OpAmpSpec& spec, size_t index,
                                      const BatchOptions& options);

/// Module counterpart of run_one_opamp.
synth::ModuleSynthesisOutcome run_one_module(const est::Process& proc,
                                             const est::ModuleSpec& spec,
                                             size_t index,
                                             const BatchOptions& options);

}  // namespace detail

}  // namespace ape::runtime
