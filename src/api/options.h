// Session options: named engine presets and session-level knobs.
//
// Part of the stable public surface under api/. The presets are the engine
// variants of the paper's Section 7.2; SessionOptions adds what a whole
// debugging session needs beyond the engine (baseline comparison runs,
// report rendering).

#ifndef AID_API_OPTIONS_H_
#define AID_API_OPTIONS_H_

#include <string_view>

#include "core/engine.h"

namespace aid {

/// The engine variants of the paper's Section 7.2 as named presets.
enum class EnginePreset {
  kAid,                    ///< topological order + branch + predicate pruning
  kAidNoPredicatePruning,  ///< AID-P
  kAidNoPruning,           ///< AID-P-B (topological order only)
  kTagt,                   ///< traditional adaptive group testing
  kLinear,                 ///< one-predicate-at-a-time repair
};

inline std::string_view EnginePresetName(EnginePreset preset) {
  switch (preset) {
    case EnginePreset::kAid: return "AID";
    case EnginePreset::kAidNoPredicatePruning: return "AID-P";
    case EnginePreset::kAidNoPruning: return "AID-P-B";
    case EnginePreset::kTagt: return "TAGT";
    case EnginePreset::kLinear: return "Linear";
  }
  return "unknown";
}

inline EngineOptions MakeEngineOptions(EnginePreset preset) {
  switch (preset) {
    case EnginePreset::kAid: return EngineOptions::Aid();
    case EnginePreset::kAidNoPredicatePruning:
      return EngineOptions::AidNoPredicatePruning();
    case EnginePreset::kAidNoPruning: return EngineOptions::AidNoPruning();
    case EnginePreset::kTagt: return EngineOptions::Tagt();
    case EnginePreset::kLinear: return EngineOptions::Linear();
  }
  return EngineOptions::Aid();
}

/// Session-level knobs beyond the engine options.
struct SessionOptions {
  /// The engine configuration of the main discovery run. Carries the
  /// session's parallelism too (EngineOptions::parallelism): Session
  /// propagates it to MakeSessionTarget, which builds the exec/ replica
  /// pool, and the engine treats parallelism > 1 as license for batched
  /// linear-scan dispatch.
  EngineOptions engine = EngineOptions::Aid();
  /// Also run a TAGT baseline over the same target after the main run (the
  /// paper's Figure 7 comparison). The baseline reuses the target, so its
  /// executions add to the target's cost counters.
  bool run_tagt_baseline = false;
  EngineOptions tagt_baseline = EngineOptions::Tagt();
  /// Render human-readable root-cause / causal-path strings into the
  /// SessionReport (costs a catalog lookup per path predicate).
  bool describe = true;
};

}  // namespace aid

#endif  // AID_API_OPTIONS_H_
