#include "src/runtime/supervisor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <optional>
#include <sstream>

#include "src/lint/lint.h"
#include "src/runtime/executor.h"
#include "src/util/error.h"
#include "src/util/json.h"

namespace ape::runtime {
namespace {

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

void merge(SupervisionStats& into, const SupervisionStats& from) {
  into.attempts += from.attempts;
  into.retries += from.retries;
  into.numeric_recovery_attempts += from.numeric_recovery_attempts;
  into.relaxed_attempts += from.relaxed_attempts;
  into.estimate_fallbacks += from.estimate_fallbacks;
  into.deadline_hits += from.deadline_hits;
  into.cancelled_jobs += from.cancelled_jobs;
  into.quarantine_skips += from.quarantine_skips;
  into.quarantined_new += from.quarantined_new;
  into.checkpoints_written += from.checkpoints_written;
  into.resumed_jobs += from.resumed_jobs;
}

/// The tolerances of the Relaxed rung (installed by reference, so it
/// must outlive every attempt).
const SolverRelaxation kRelaxation{};

RetryRung rung_from_string(const std::string& s) {
  for (RetryRung r : {RetryRung::Initial, RetryRung::NumericRecovery,
                      RetryRung::Relaxed, RetryRung::EstimateOnly,
                      RetryRung::Fail}) {
    if (s == to_string(r)) return r;
  }
  throw ParseError("checkpoint: unknown retry rung '" + s + "'");
}

/// The EstimateOnly rung for an opamp job: the bare APE estimate wrapped
/// in a SynthesisOutcome — no annealing, no simulator. Deterministic, so
/// a resumed run re-derives it instead of persisting the design.
synth::SynthesisOutcome estimate_only_opamp(const est::Process& proc,
                                            const est::OpAmpSpec& spec,
                                            const BatchOptions& options) {
  detail::lint_gate(options.lint_first, proc, spec);
  synth::SynthesisOutcome out;
  if (options.cache != nullptr) {
    out.design = *options.cache->opamp(proc, spec);
  } else {
    out.design = est::OpAmpEstimator(proc).estimate(spec);
  }
  out.functional = true;
  out.comment = "estimate-only fallback";
  out.restarts_run = 0;
  return out;
}

synth::ModuleSynthesisOutcome estimate_only_module(const est::Process& proc,
                                                  const est::ModuleSpec& spec,
                                                  const BatchOptions& options) {
  detail::lint_gate(options.lint_first, proc, spec);
  synth::ModuleSynthesisOutcome out;
  if (options.cache != nullptr) {
    out.design = *options.cache->module(proc, spec);
  } else {
    out.design = est::ModuleEstimator(proc).estimate(spec);
  }
  out.functional = true;
  out.comment = "estimate-only fallback";
  out.restarts_run = 0;
  return out;
}

/// Run one job's full recovery ladder (see supervisor.h). \p run_attempt
/// executes a normal synthesis attempt, \p estimate_only the fallback
/// rung; both are invoked on the current (worker) thread under the job's
/// ambient budget and, on relaxed rungs, under ScopedSolverRelaxation.
template <class Outcome, class RunAttempt, class EstimateOnly>
SupervisedJobResult<Outcome> supervise_one(size_t index, uint64_t fp,
                                           const SupervisorOptions& options,
                                           SupervisionStats& stats,
                                           const RunAttempt& run_attempt,
                                           const EstimateOnly& estimate_only) {
  SupervisedJobResult<Outcome> r;
  r.index = index;

  if (options.quarantine != nullptr) {
    std::string why;
    if (options.quarantine->quarantined(fp, &why)) {
      r.quarantined = true;
      r.error = annotate_with_context("quarantined: " + why);
      ++stats.quarantine_skips;
      return r;
    }
  }

  // One budget for the whole ladder: the deadline bounds the job, not
  // each attempt. Installed ambiently so every solver poll site below
  // (Newton ladders, sweeps, transient sub-steps, AC points, the anneal
  // loop) observes it without options plumbing.
  RunBudget budget;
  if (options.job_timeout_s > 0.0) budget.set_deadline_in(options.job_timeout_s);
  if (options.cancel != nullptr) budget.attach_cancel(options.cancel);
  ScopedJobBudget ambient(budget);

  Outcome best{};
  bool have_best = false;
  RetryRung rung = RetryRung::Initial;
  std::string last_error;

  auto cancelled_result = [&]() {
    r.cancelled = true;
    r.ok = false;
    r.error = annotate_with_context("cancelled");
    ++stats.cancelled_jobs;
  };
  auto deadline_result = [&]() {
    r.deadline_hit = true;
    ++stats.deadline_hits;
    if (have_best) {
      // Best-so-far from an earlier attempt: partial but reportable.
      r.outcome = std::move(best);
      r.ok = true;
    } else {
      r.error = annotate_with_context(
          std::string("deadline exceeded") +
          (last_error.empty() ? "" : " (last attempt: " + last_error + ")"));
    }
  };
  // Set once a lint/feasibility verdict (LintError, e.g. APE-F001) has
  // fired for this job: the spec is provably defective, which is a fact
  // about the *input*, not flakiness of the pipeline — so neither the
  // verdict nor the follow-on estimate-fallback failure may feed the
  // quarantine registry (it tracks fingerprints that fail *unexpectedly*).
  bool lint_verdict = false;
  auto record_attempt_failure = [&](const std::string& error) {
    last_error = error;
    if (!lint_verdict && options.quarantine != nullptr &&
        options.quarantine->record_failure(fp, error,
                                           options.quarantine_threshold)) {
      ++stats.quarantined_new;
    }
  };

  for (;;) {
    if (budget.cancelled()) {
      cancelled_result();
      return r;
    }
    if (budget.exhausted()) {
      deadline_result();
      return r;
    }
    if (rung == RetryRung::Fail) break;

    // The ladder position doubles as the attempt ordinal: one attempt
    // per rung, and a permanent failure's jump to EstimateOnly skips
    // the ordinals of the rungs it skips.
    const int attempt = static_cast<int>(rung);
    r.final_rung = rung;
    ++r.attempts;
    ++stats.attempts;
    if (r.attempts > 1) ++stats.retries;
    if (rung == RetryRung::Relaxed) ++stats.relaxed_attempts;
    if (rung == RetryRung::NumericRecovery) ++stats.numeric_recovery_attempts;

    ErrorContext attempt_scope("attempt[" + std::to_string(attempt) + "](" +
                               to_string(rung) + ")");
    std::optional<ScopedSolverRelaxation> relax;
    if (rung == RetryRung::Relaxed) relax.emplace(kRelaxation);
    // The numeric-recovery rung re-runs the attempt with the health
    // layer forced on: every solve equilibrates, estimates its condition
    // and refines (DESIGN.md section 15).
    std::optional<ScopedNumericHealthMode> health_mode;
    if (rung == RetryRung::NumericRecovery) {
      health_mode.emplace(NumericHealthMode::Force);
    }
    // Per-attempt fault injection (tests): configured and installed here,
    // on the worker thread, because a thread_local injector installed on
    // the submitting thread never reaches a pool worker.
    spice::FaultInjector injector;
    std::optional<spice::ScopedFaultInjection> fault;
    if (options.fault_setup) {
      options.fault_setup(index, attempt, injector);
      fault.emplace(injector);
    }

    try {
      if (rung == RetryRung::EstimateOnly) {
        r.outcome = estimate_only(index);
        r.ok = true;
        r.estimate_fallback = true;
        ++stats.estimate_fallbacks;
        return r;
      }
      Outcome out = run_attempt(index);
      if (budget.cancelled()) {
        cancelled_result();
        return r;
      }
      if (budget.exhausted()) {
        // The deadline fired mid-attempt but the search still returned
        // (the anneal loop stops cooperatively): keep the partial result.
        r.outcome = std::move(out);
        r.ok = true;
        r.deadline_hit = true;
        ++stats.deadline_hits;
        return r;
      }
      if (out.sim_failed) {
        // Synthesis finished but the simulator verification threw —
        // usually non-convergence the NumericRecovery or Relaxed rung can
        // clear. Keep the outcome: if the ladder runs dry, best-so-far
        // beats an empty failure, and the EstimateOnly rung would
        // *discard* a synthesized design for a bare estimate, so stop
        // before it.
        best = std::move(out);
        have_best = true;
        record_attempt_failure(annotate_with_context(
            "simulator verification failed (best-so-far outcome kept)"));
        rung = next_rung(rung, ErrorClass::Transient, options.recover);
        if (rung == RetryRung::EstimateOnly || rung == RetryRung::Fail) break;
        continue;
      }
      r.outcome = std::move(out);
      r.ok = true;
      if (options.quarantine != nullptr) options.quarantine->record_success(fp);
      return r;
    } catch (const lint::LintError& e) {
      if (budget.cancelled()) {
        cancelled_result();
        return r;
      }
      lint_verdict = true;
      record_attempt_failure(e.what());
      if (budget.exhausted()) {
        deadline_result();
        return r;
      }
      // Permanent: straight to the estimate fallback when armed.
      rung = next_rung(rung, e.klass(), options.recover);
    } catch (const Error& e) {
      if (budget.cancelled()) {
        cancelled_result();
        return r;
      }
      record_attempt_failure(e.what());
      if (budget.exhausted()) {
        deadline_result();
        return r;
      }
      rung = next_rung(rung, e.klass(), options.recover);
    } catch (const std::exception& e) {
      // Non-ape exceptions carry no taxonomy; treat them as transient
      // (same safe default as the MemoCache negative-caching policy).
      record_attempt_failure(annotate_with_context(e.what()));
      if (budget.exhausted()) {
        deadline_result();
        return r;
      }
      rung = next_rung(rung, ErrorClass::Transient, options.recover);
    }
  }

  // Ladder exhausted.
  if (have_best) {
    r.outcome = std::move(best);
    r.ok = true;
  } else {
    r.error = last_error.empty()
                  ? annotate_with_context("recovery ladder exhausted")
                  : last_error;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Checkpoint format (opamp batches), version 1:
//
//   { "version": 1, "kind": "opamp", "seed": "<u64 decimal>",
//     "jobs": [ { "index": i, "fp": "<u64 decimal>", "done": bool,
//                 "ok": bool, "error": "...", "attempts": n,
//                 "rung": "initial|numeric-recovery|relaxed|estimate-only|fail",
//                 "deadline_hit": b, "quarantined": b,
//                 "estimate_fallback": b,
//                 "cost": "<hex-float>", "evaluations": n, "skipped": n,
//                 "nonfinite": n, "budget_exhausted": b,
//                 "restarts_run": n, "best_restart": n,
//                 "sim_failed": b, "functional": b, "meets_spec": b,
//                 "comment": "...", "best_x": ["<hex-float>", ...] }, ... ] }
//
// best_x as hex floats is the whole trick: design, simulator report and
// Table-1 diagnosis are pure functions of (process, spec, best_x)
// (finalize_opamp_outcome), and job seeds are pure streams of (seed, i),
// so no RNG state and no design serialization are needed for bit-exact
// resume. Cancelled jobs are written done=false so a resume re-runs them.

std::string checkpoint_json(uint64_t seed, const std::vector<uint64_t>& fps,
                            const std::vector<SupervisedOpAmpResult>& jobs,
                            const std::vector<char>& done) {
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"kind\": \"opamp\",\n  \"seed\": \"" << seed
     << "\",\n  \"jobs\": [\n";
  for (size_t i = 0; i < jobs.size(); ++i) {
    const SupervisedOpAmpResult& j = jobs[i];
    const synth::SynthesisOutcome& o = j.outcome;
    os << "    {\"index\": " << i << ", \"fp\": \"" << fps[i] << "\""
       << ", \"done\": " << (done[i] != 0 ? "true" : "false")
       << ", \"ok\": " << (j.ok ? "true" : "false") << ", \"error\": \""
       << json::escape(j.error) << "\", \"attempts\": " << j.attempts
       << ", \"rung\": \"" << to_string(j.final_rung) << "\""
       << ", \"deadline_hit\": " << (j.deadline_hit ? "true" : "false")
       << ", \"quarantined\": " << (j.quarantined ? "true" : "false")
       << ", \"estimate_fallback\": " << (j.estimate_fallback ? "true" : "false")
       << ", \"cost\": \"" << json::hex_double(o.cost) << "\""
       << ", \"evaluations\": " << o.evaluations
       << ", \"skipped\": " << o.skipped_candidates
       << ", \"nonfinite\": " << o.rejected_nonfinite
       << ", \"budget_exhausted\": " << (o.budget_exhausted ? "true" : "false")
       << ", \"restarts_run\": " << o.restarts_run
       << ", \"best_restart\": " << o.best_restart
       << ", \"sim_failed\": " << (o.sim_failed ? "true" : "false")
       << ", \"functional\": " << (o.functional ? "true" : "false")
       << ", \"meets_spec\": " << (o.meets_spec ? "true" : "false")
       << ", \"comment\": \"" << json::escape(o.comment) << "\""
       << ", \"best_x\": [";
    for (size_t k = 0; k < o.best_x.size(); ++k) {
      if (k != 0) os << ", ";
      os << "\"" << json::hex_double(o.best_x[k]) << "\"";
    }
    os << "]}" << (i + 1 < jobs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

void write_checkpoint(const std::string& path, uint64_t seed,
                      const std::vector<uint64_t>& fps,
                      const std::vector<SupervisedOpAmpResult>& jobs,
                      const std::vector<char>& done) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f) throw Error("checkpoint: cannot write '" + tmp + "'");
    f << checkpoint_json(seed, fps, jobs, done);
    if (!f.good()) throw Error("checkpoint: write to '" + tmp + "' failed");
  }
  // Atomic publication: a reader (or a crash) sees the old checkpoint or
  // the new one, never a torn file.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw Error("checkpoint: cannot rename '" + tmp + "' to '" + path + "'");
  }
}

uint64_t parse_u64(const json::Value& v, const char* what) {
  const std::string& s = v.as_string();
  char* end = nullptr;
  const uint64_t value = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || end == s.c_str() || *end != '\0') {
    throw ParseError(std::string("checkpoint: bad ") + what + " '" + s + "'");
  }
  return value;
}

const json::Value& require(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) {
    throw ParseError(std::string("checkpoint: missing field '") + key + "'");
  }
  return *v;
}

/// Restore finished jobs from \p path into jobs/done. Validates that the
/// checkpoint belongs to this exact run (seed, job count, per-job spec
/// fingerprints) before touching anything.
void restore_checkpoint(const std::string& path, const est::Process& proc,
                        const std::vector<est::OpAmpSpec>& specs,
                        const SupervisorOptions& options,
                        const std::vector<uint64_t>& fps,
                        std::vector<SupervisedOpAmpResult>& jobs,
                        std::vector<char>& done, SupervisionStats& stats) {
  ErrorContext scope("resume('" + path + "')");
  std::ifstream f(path);
  if (!f) throw ParseError("checkpoint: cannot read '" + path + "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  const json::Value doc = json::parse(buf.str());

  if (require(doc, "version").as_long() != 1) {
    throw ParseError("checkpoint: unsupported version");
  }
  if (require(doc, "kind").as_string() != "opamp") {
    throw ParseError("checkpoint: kind is not 'opamp'");
  }
  if (parse_u64(require(doc, "seed"), "seed") != options.batch.seed) {
    throw ParseError("checkpoint: seed does not match this run");
  }
  const json::Value& entries = require(doc, "jobs");
  if (entries.items.size() != specs.size()) {
    throw ParseError("checkpoint: job count " +
                     std::to_string(entries.items.size()) +
                     " does not match spec count " +
                     std::to_string(specs.size()));
  }

  for (const json::Value& e : entries.items) {
    const size_t i = static_cast<size_t>(require(e, "index").as_long());
    if (i >= specs.size()) throw ParseError("checkpoint: job index out of range");
    if (parse_u64(require(e, "fp"), "fp") != fps[i]) {
      throw ParseError("checkpoint: spec fingerprint mismatch at job " +
                       std::to_string(i) + " (different spec file or process?)");
    }
    if (!require(e, "done").as_bool()) continue;

    SupervisedOpAmpResult r;
    r.index = i;
    r.ok = require(e, "ok").as_bool();
    r.error = require(e, "error").as_string();
    r.attempts = static_cast<int>(require(e, "attempts").as_long());
    r.final_rung = rung_from_string(require(e, "rung").as_string());
    r.deadline_hit = require(e, "deadline_hit").as_bool();
    r.quarantined = require(e, "quarantined").as_bool();
    r.estimate_fallback = require(e, "estimate_fallback").as_bool();
    r.resumed = true;

    if (r.ok) {
      const bool sim_failed = require(e, "sim_failed").as_bool();
      const double cost = require(e, "cost").as_hex_double();
      std::vector<double> best_x;
      for (const json::Value& x : require(e, "best_x").items) {
        best_x.push_back(x.as_hex_double());
      }
      if (r.estimate_fallback) {
        // The fallback is a pure estimate: re-derive it.
        r.outcome = estimate_only_opamp(proc, specs[i], options.batch);
      } else if (!sim_failed) {
        // Full bit-exact re-derivation from the winning point.
        r.outcome =
            synth::finalize_opamp_outcome(proc, specs[i], best_x, cost);
      } else {
        // The stored attempt's verification failed (deadline or fault):
        // re-running the simulator now could produce a *different*
        // outcome, so reconstruct analytically and keep the stored
        // diagnosis instead.
        r.outcome.cost = cost;
        r.outcome.best_x = best_x;
        r.outcome.sim_failed = true;
        r.outcome.functional = require(e, "functional").as_bool();
        r.outcome.meets_spec = require(e, "meets_spec").as_bool();
        r.outcome.comment = require(e, "comment").as_string();
        if (!best_x.empty()) {
          const synth::OpAmpVars v =
              synth::OpAmpVars::unpack(best_x, specs[i].buffer);
          r.outcome.design = synth::design_from_vars(proc, v, specs[i]);
        }
      }
      r.outcome.evaluations =
          static_cast<int>(require(e, "evaluations").as_long());
      r.outcome.skipped_candidates =
          static_cast<int>(require(e, "skipped").as_long());
      r.outcome.rejected_nonfinite =
          static_cast<int>(require(e, "nonfinite").as_long());
      r.outcome.budget_exhausted = require(e, "budget_exhausted").as_bool();
      r.outcome.restarts_run =
          static_cast<int>(require(e, "restarts_run").as_long());
      r.outcome.best_restart =
          static_cast<int>(require(e, "best_restart").as_long());
    }

    jobs[i] = std::move(r);
    done[i] = 1;
    ++stats.resumed_jobs;
  }
}

}  // namespace

uint64_t spec_fingerprint(const est::Process& proc,
                          const est::OpAmpSpec& spec) {
  return fnv1a(cache_key(proc, spec));
}

uint64_t spec_fingerprint(const est::Process& proc,
                          const est::ModuleSpec& spec) {
  return fnv1a(cache_key(proc, spec));
}

bool QuarantineRegistry::quarantined(uint64_t fp, std::string* why) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(fp);
  if (it == map_.end() || !it->second.quarantined) return false;
  if (why != nullptr) *why = it->second.error;
  return true;
}

bool QuarantineRegistry::record_failure(uint64_t fp, const std::string& error,
                                        int threshold) {
  std::lock_guard<std::mutex> lock(mu_);
  State& st = map_[fp];
  ++st.consecutive;
  if (st.quarantined || st.consecutive < std::max(threshold, 1)) return false;
  st.quarantined = true;
  st.error = error;
  return true;
}

void QuarantineRegistry::record_success(uint64_t fp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(fp);
  if (it != map_.end()) it->second.consecutive = 0;
}

size_t QuarantineRegistry::quarantined_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [fp, st] : map_) {
    if (st.quarantined) ++n;
  }
  return n;
}

void QuarantineRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

std::string SupervisionStats::summary() const {
  std::ostringstream os;
  os << "supervision: attempts=" << attempts << " retries=" << retries
     << " numeric_recovery=" << numeric_recovery_attempts
     << " relaxed=" << relaxed_attempts
     << " estimate_fallbacks=" << estimate_fallbacks
     << " deadline_hits=" << deadline_hits << " cancelled=" << cancelled_jobs
     << " quarantine_skips=" << quarantine_skips
     << " quarantined_new=" << quarantined_new;
  if (checkpoints_written > 0) os << " checkpoints=" << checkpoints_written;
  if (resumed_jobs > 0) os << " resumed=" << resumed_jobs;
  return os.str();
}

SupervisedOpAmpBatchResult run_supervised_opamp_batch(
    const est::Process& proc, const std::vector<est::OpAmpSpec>& specs,
    const SupervisorOptions& options) {
  const double t0 = now_seconds();
  const int threads = resolve_threads(options.batch.threads);
  const CacheStats cache_before =
      options.batch.cache != nullptr ? options.batch.cache->stats()
                                     : CacheStats{};
  const size_t n = specs.size();

  SupervisedOpAmpBatchResult out;
  out.jobs.resize(n);
  for (size_t i = 0; i < n; ++i) out.jobs[i].index = i;
  std::vector<uint64_t> fps(n);
  for (size_t i = 0; i < n; ++i) fps[i] = spec_fingerprint(proc, specs[i]);
  std::vector<char> done(n, 0);

  if (!options.resume_path.empty()) {
    restore_checkpoint(options.resume_path, proc, specs, options, fps,
                       out.jobs, done, out.supervision);
  }

  // One mutex serializes result publication, stats merging, checkpoint
  // writes and the on_job_done hook — checkpoints therefore always
  // snapshot a consistent (jobs, done) pair.
  std::mutex mu;
  size_t since_checkpoint = 0;
  const size_t every =
      static_cast<size_t>(std::max(options.checkpoint_every, 1));
  const std::string parent = ErrorContext::chain();

  auto run_job = [&](size_t i) {
    const std::string frame = "opamp_batch[" + std::to_string(i) + "]";
    ErrorContext scope(parent.empty() ? frame : parent + " -> " + frame);
    SupervisionStats local;
    SupervisedOpAmpResult r = supervise_one<synth::SynthesisOutcome>(
        i, fps[i], options, local,
        [&](size_t j) {
          return detail::run_one_opamp(proc, specs[j], j, options.batch);
        },
        [&](size_t j) {
          return estimate_only_opamp(proc, specs[j], options.batch);
        });
    const bool ok = r.ok;
    {
      std::lock_guard<std::mutex> lock(mu);
      // A cancelled job is *unfinished*: a resume re-runs it, which is
      // what makes resumed results identical to an uninterrupted run.
      done[i] = r.cancelled ? 0 : 1;
      out.jobs[i] = std::move(r);
      merge(out.supervision, local);
      if (!options.checkpoint_path.empty() && ++since_checkpoint >= every) {
        write_checkpoint(options.checkpoint_path, options.batch.seed, fps,
                         out.jobs, done);
        ++out.supervision.checkpoints_written;
        since_checkpoint = 0;
      }
      if (options.on_job_done) options.on_job_done(i, ok);
    }
  };

  std::vector<size_t> pending;
  for (size_t i = 0; i < n; ++i) {
    if (done[i] == 0) pending.push_back(i);
  }
  if (threads <= 1 || pending.size() <= 1) {
    for (size_t i : pending) run_job(i);
  } else {
    Executor pool(static_cast<int>(
        std::min(static_cast<size_t>(threads), pending.size())));
    std::vector<std::future<void>> futures;
    futures.reserve(pending.size());
    for (size_t i : pending) {
      futures.push_back(pool.submit([&run_job, i] { run_job(i); }));
    }
    for (auto& f : futures) f.get();
  }

  if (!options.checkpoint_path.empty()) {
    std::lock_guard<std::mutex> lock(mu);
    write_checkpoint(options.checkpoint_path, options.batch.seed, fps,
                     out.jobs, done);
    ++out.supervision.checkpoints_written;
  }

  BatchStats& s = out.stats;
  s.jobs = static_cast<int>(n);
  s.threads = threads;
  for (const auto& j : out.jobs) {
    if (!j.ok) ++s.failed;
    if (j.ok && j.outcome.meets_spec) ++s.met_spec;
  }
  s.wall_seconds = now_seconds() - t0;
  s.jobs_per_second = s.wall_seconds > 0.0 ? s.jobs / s.wall_seconds : 0.0;
  if (options.batch.cache != nullptr) {
    const CacheStats after = options.batch.cache->stats();
    s.cache.hits = after.hits - cache_before.hits;
    s.cache.misses = after.misses - cache_before.misses;
  }
  return out;
}

SupervisedOpAmpResult run_supervised_opamp_job(const est::Process& proc,
                                               const est::OpAmpSpec& spec,
                                               const SupervisorOptions& options,
                                               size_t index,
                                               SupervisionStats* stats) {
  if (!options.checkpoint_path.empty() || !options.resume_path.empty()) {
    throw SpecError(
        "run_supervised_opamp_job: checkpoint/resume applies to batches, "
        "not single supervised jobs");
  }
  const uint64_t fp = spec_fingerprint(proc, spec);
  SupervisionStats local;
  SupervisedOpAmpResult r = supervise_one<synth::SynthesisOutcome>(
      index, fp, options, local,
      [&](size_t j) {
        return detail::run_one_opamp(proc, spec, j, options.batch);
      },
      [&](size_t) { return estimate_only_opamp(proc, spec, options.batch); });
  if (stats != nullptr) merge(*stats, local);
  return r;
}

SupervisedModuleBatchResult run_supervised_module_batch(
    const est::Process& proc, const std::vector<est::ModuleSpec>& specs,
    const SupervisorOptions& options) {
  if (!options.checkpoint_path.empty() || !options.resume_path.empty()) {
    throw SpecError(
        "run_supervised_module_batch: checkpoint/resume is only supported "
        "for opamp batches (module outcomes are not reconstructible from "
        "best_x alone yet)");
  }
  const double t0 = now_seconds();
  const int threads = resolve_threads(options.batch.threads);
  const CacheStats cache_before =
      options.batch.cache != nullptr ? options.batch.cache->stats()
                                     : CacheStats{};
  const size_t n = specs.size();

  SupervisedModuleBatchResult out;
  out.jobs.resize(n);
  for (size_t i = 0; i < n; ++i) out.jobs[i].index = i;
  std::vector<uint64_t> fps(n);
  for (size_t i = 0; i < n; ++i) fps[i] = spec_fingerprint(proc, specs[i]);

  std::mutex mu;
  const std::string parent = ErrorContext::chain();
  auto run_job = [&](size_t i) {
    const std::string frame = "module_batch[" + std::to_string(i) + "]";
    ErrorContext scope(parent.empty() ? frame : parent + " -> " + frame);
    SupervisionStats local;
    SupervisedModuleResult r = supervise_one<synth::ModuleSynthesisOutcome>(
        i, fps[i], options, local,
        [&](size_t j) {
          return detail::run_one_module(proc, specs[j], j, options.batch);
        },
        [&](size_t j) {
          return estimate_only_module(proc, specs[j], options.batch);
        });
    const bool ok = r.ok;
    {
      std::lock_guard<std::mutex> lock(mu);
      out.jobs[i] = std::move(r);
      merge(out.supervision, local);
      if (options.on_job_done) options.on_job_done(i, ok);
    }
  };

  if (threads <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) run_job(i);
  } else {
    Executor pool(
        static_cast<int>(std::min(static_cast<size_t>(threads), n)));
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      futures.push_back(pool.submit([&run_job, i] { run_job(i); }));
    }
    for (auto& f : futures) f.get();
  }

  BatchStats& s = out.stats;
  s.jobs = static_cast<int>(n);
  s.threads = threads;
  for (const auto& j : out.jobs) {
    if (!j.ok) ++s.failed;
    if (j.ok && j.outcome.meets_spec) ++s.met_spec;
  }
  s.wall_seconds = now_seconds() - t0;
  s.jobs_per_second = s.wall_seconds > 0.0 ? s.jobs / s.wall_seconds : 0.0;
  if (options.batch.cache != nullptr) {
    const CacheStats after = options.batch.cache->stats();
    s.cache.hits = after.hits - cache_before.hits;
    s.cache.misses = after.misses - cache_before.misses;
  }
  return out;
}

}  // namespace ape::runtime
