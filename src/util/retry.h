#pragma once
/// \file retry.h
/// The fixed recovery ladder of the supervised batch runtime (DESIGN.md
/// section 10).
///
/// An armed ladder (SupervisorOptions::recover) walks one attempt per
/// rung:
///
///   Initial          normal configuration
///   NumericRecovery  re-run under NumericHealthMode::Force: equilibration,
///                    condition estimation and iterative refinement on
///                    every solve (DESIGN.md section 15)
///   Relaxed          re-run under ScopedSolverRelaxation: widened
///                    tolerances, higher gmin floor
///   EstimateOnly     skip synthesis / simulation, return the APE
///                    estimate alone
///   Fail             ladder exhausted
///
/// Each rung stays because a census of jittered Table-1 specs found
/// real (non-injected) failures it alone rescues; an identical re-run
/// rescues none, since an attempt is a pure function of (process, spec,
/// batch seed, job index, rung).
///
/// Escalation consumes rungs in order for *transient* failures
/// (ErrorClass::Transient — Newton non-convergence, singular LU). A
/// *permanent* failure (infeasible spec, parse error) skips straight to
/// EstimateOnly (re-running cannot change the answer) and from there to
/// Fail. A ladder that is off ends every failure at Fail.

#include "src/util/error.h"

namespace ape {

/// The escalation rung an attempt runs at (see file comment). The
/// numeric value is the attempt's position on the ladder.
enum class RetryRung {
  Initial,          ///< attempt 0, normal configuration
  NumericRecovery,  ///< re-run under NumericHealthMode::Force
  Relaxed,          ///< re-run under ScopedSolverRelaxation
  EstimateOnly,     ///< APE estimate fallback, no synthesis / simulation
  Fail,             ///< ladder exhausted
};

const char* to_string(RetryRung rung);

/// The rung to run after an attempt at \p rung failed with class
/// \p klass, on the armed ladder when \p recover is set and on the
/// single-attempt ladder otherwise (see file comment).
RetryRung next_rung(RetryRung rung, ErrorClass klass, bool recover);

}  // namespace ape
