#include "src/util/retry.h"

namespace ape {

const char* to_string(RetryRung rung) {
  switch (rung) {
    case RetryRung::Initial: return "initial";
    case RetryRung::NumericRecovery: return "numeric-recovery";
    case RetryRung::Relaxed: return "relaxed";
    case RetryRung::EstimateOnly: return "estimate-only";
    case RetryRung::Fail: break;
  }
  return "fail";
}

RetryRung next_rung(RetryRung rung, ErrorClass klass, bool recover) {
  if (!recover || rung >= RetryRung::EstimateOnly) return RetryRung::Fail;
  // Re-running or relaxing cannot change a permanent failure: jump to
  // the estimate fallback.
  if (klass == ErrorClass::Permanent) return RetryRung::EstimateOnly;
  return static_cast<RetryRung>(static_cast<int>(rung) + 1);
}

}  // namespace ape
