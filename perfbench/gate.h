// The benchmark's correctness gate: how one session's outcome is judged.
//
// A session that diverges from its in-process serial reference breaks the
// substrates' bit-identical contract (SameDiscoveryOutcome), so the whole
// run is invalid and the benchmark exits nonzero. A session that agrees
// with its reference but names a root cause other than the ground truth is
// a wrong answer of the algorithm itself: it counts as failed and shows in
// failed_share.

#ifndef PERFBENCH_GATE_H_
#define PERFBENCH_GATE_H_

#include "core/engine.h"

namespace perfbench {

enum class Verdict {
  kOk,
  kWrongRoot,  ///< matches the reference, but not the ground truth
  kError,      ///< the session failed to build or run
  kRejected,   ///< the service refused the submission
  kDiverged,   ///< the report differs from the reference
};

inline const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk: return "ok";
    case Verdict::kWrongRoot: return "wrong_root";
    case Verdict::kError: return "error";
    case Verdict::kRejected: return "rejected";
    case Verdict::kDiverged: return "diverged";
  }
  return "unknown";
}

/// `reference` may be null when no reference exists yet (the session then
/// becomes the reference of later ones).
inline Verdict Judge(const aid::DiscoveryReport& report,
                     const aid::DiscoveryReport* reference,
                     bool root_matches_truth) {
  if (reference != nullptr && !aid::SameDiscoveryOutcome(report, *reference)) {
    return Verdict::kDiverged;
  }
  return root_matches_truth ? Verdict::kOk : Verdict::kWrongRoot;
}

}  // namespace perfbench

#endif  // PERFBENCH_GATE_H_
