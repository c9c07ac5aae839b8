// The AID intervention engine: causality-guided causal path discovery.
//
// Implements the paper's Section 5:
//   * Algorithm 1 (GIWP)  -- group intervention with pruning: divide and
//     conquer over the candidate predicates in topological order; a stopped
//     failure certifies a causal predicate in the intervened group; a
//     persisting failure marks the whole group spurious; every round's logs
//     additionally prune candidates via Definition 2;
//   * Algorithm 2 (Branch-Prune) -- at each junction of the AC-DAG, binary-
//     search the branches (at most one can carry the causal path under the
//     deterministic-effect assumption) to reduce the DAG to a chain;
//   * Algorithm 3 (Causal-Path-Discovery) -- optional branch pruning, then
//     GIWP over what remains.
//
// The engine variants of the paper's Section 7.2 are option presets:
//   AID      = topological order + branch pruning + predicate pruning
//   AID-P    = AID without predicate pruning
//   AID-P-B  = AID without predicate or branch pruning (topological order)
//   TAGT     = random order, no pruning (traditional adaptive group testing)

#ifndef AID_CORE_ENGINE_H_
#define AID_CORE_ENGINE_H_

#include <string>
#include <vector>

#include "analysis/summary.h"
#include "budget/options.h"
#include "causal/acdag.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/observer.h"
#include "core/target.h"

namespace aid {

class Telemetry;       // telemetry/telemetry.h; nullable everywhere below

/// Upper bound on trials_per_intervention: past this a trial count is a
/// typo, not robustness (each trial is a full application execution).
inline constexpr int kMaxTrialsPerIntervention = 100000;

/// InvalidArgument outside [1, kMaxTrialsPerIntervention], naming the
/// offending value (the trials analog of ValidateParallelism).
Status ValidateTrialsPerIntervention(int trials);

struct EngineOptions {
  /// Group candidates by AC-DAG topological order (false: random order, as
  /// in traditional group testing).
  bool topological_order = true;
  /// Apply Definition 2 interventional pruning after every round.
  bool predicate_pruning = true;
  /// Run Algorithm 2 before the final GIWP pass.
  bool branch_pruning = true;
  /// Intervene on one predicate at a time instead of halving groups -- the
  /// preferable strategy when D >= N / log2(N) (paper Section 2).
  bool linear_scan = false;
  /// Executions per intervention round (paper footnote 1; deterministic
  /// model targets need only 1).
  int trials_per_intervention = 1;
  /// Seed for random ordering / tie-breaking.
  uint64_t seed = 0x41d5eedULL;
  /// In linear-scan mode, submit the whole remaining round as one
  /// InterventionTarget::RunInterventionsBatch call instead of one
  /// RunIntervened call per predicate. Decisions are identical on
  /// deterministic targets; interventions already answered by Definition 2
  /// pruning become speculative executions instead of being skipped --
  /// still counted in DiscoveryReport::executions but reported separately
  /// as DiscoveryReport::speculative_executions -- so `executions` may be
  /// higher while wall-clock drops on backends with per-call overhead.
  bool batched_dispatch = false;
  /// Target-level parallelism this engine run is configured for. The engine
  /// spawns no threads itself -- exec::ParallelTarget does -- but
  /// parallelism > 1 implies batched linear-scan dispatch (a parallel
  /// backend is pointless when rounds arrive one span at a time), and
  /// aid::Session propagates the value to MakeSessionTarget, which builds
  /// the replica pool (see src/exec/). Default 1 = serial dispatch,
  /// today's behavior.
  int parallelism = 1;
  /// Progress callbacks (non-owning; may be null). The engine reports the
  /// kBranchPruning / kGiwp phase changes, every round, and every predicate
  /// decision.
  Observer* observer = nullptr;
  /// Telemetry sink (non-owning; may be null = zero overhead). With a sink,
  /// the engine opens a "discovery" span over the whole run, phase spans
  /// ("branch_prune" / "giwp"), a "round" span per intervention (published
  /// as the active parent so substrate-side trial spans nest under it), and
  /// writes its DiscoveryReport deltas into the aid_* counters at the end
  /// of Run() -- so the metrics snapshot matches the report exactly.
  /// Telemetry never changes a decision: reports stay bit-identical.
  Telemetry* telemetry = nullptr;
  /// Adaptive intervention budgeting (src/budget/): replace the fixed
  /// trials_per_intervention with SPRT early stopping over a per-candidate
  /// causal posterior -- a failing trial ends the round decisively after 1
  /// execution, all-pass rounds run only as many trials as the flakiness
  /// estimate demands (never more than trials_per_intervention unless
  /// budget.max_trials_per_round raises the cap), and an optional global
  /// execution budget degrades gracefully into a best-effort report with
  /// per-candidate confidence. Disabled by default; with budgeting off the
  /// engine's behavior and reports are bit-identical to before the
  /// subsystem existed. Usually set through
  /// SessionBuilder::WithAdaptiveBudget.
  BudgetOptions budget;

  static EngineOptions Aid() { return EngineOptions{}; }
  static EngineOptions AidNoPredicatePruning() {
    EngineOptions o;
    o.predicate_pruning = false;
    return o;
  }
  static EngineOptions AidNoPruning() {
    EngineOptions o;
    o.predicate_pruning = false;
    o.branch_pruning = false;
    return o;
  }
  static EngineOptions Tagt() {
    EngineOptions o;
    o.topological_order = false;
    o.predicate_pruning = false;
    o.branch_pruning = false;
    return o;
  }
  /// One-predicate-at-a-time repair (with pruning still available).
  static EngineOptions Linear() {
    EngineOptions o;
    o.linear_scan = true;
    o.branch_pruning = false;
    return o;
  }
};

/// One intervention round, for reports and debugging.
struct InterventionRound {
  std::vector<PredicateId> intervened;
  bool failure_stopped = false;
  std::string phase;  ///< "branch" or "giwp"
};

/// The outcome of causal path discovery.
struct DiscoveryReport {
  /// Causal predicates in topological order, ending with the failure
  /// predicate: the paper's causal path <C0, .., Cn = F>. C0 is the root
  /// cause.
  std::vector<PredicateId> causal_path;
  /// Predicates proven non-causal.
  std::vector<PredicateId> spurious;
  /// Number of intervention rounds (the paper's "#interventions"). 64-bit
  /// like `executions`: a long-lived multi-tenant service accumulates
  /// rounds across sessions far past what int can hold.
  uint64_t rounds = 0;
  /// Total application executions the discovery run cost, speculative ones
  /// included (rounds * trials + speculative_executions on targets that run
  /// exactly `trials` executions per span). 64-bit end-to-end: fleet-scale
  /// replica pools with high trial counts overflow int.
  uint64_t executions = 0;
  /// The subset of `executions` spent on speculative work: spans submitted
  /// by batched dispatch whose item was already decided (by Definition 2
  /// pruning) before their result was consumed. Those spans execute but are
  /// not rounds -- the wall-clock price of shipping a whole scan to a
  /// batching/parallel backend at once.
  uint64_t speculative_executions = 0;
  /// Process-isolation health deltas over this run (see TargetHealth): how
  /// many times a subject process was respawned, and how many trials were
  /// recorded failing because the subject crashed or hit its deadline. All
  /// zero for in-process targets.
  uint64_t respawns = 0;
  uint64_t crashed_trials = 0;
  uint64_t timed_out_trials = 0;
  /// Dispatch-schedule deltas over this run (see DispatchStats): how many
  /// intervened trials each replica slot executed, how many chunks fast
  /// replicas stole from queues behind stragglers, and how long workers
  /// idled at round barriers waiting for the slowest replica. Empty/zero on
  /// serial targets. Observational only -- the schedule never changes the
  /// report's bytes, so none of this is part of SameDiscoveryOutcome.
  std::vector<uint64_t> replica_trials;
  uint64_t steals = 0;
  uint64_t straggler_wait_micros = 0;
  std::vector<InterventionRound> history;
  /// True iff the causal predicates are totally ordered by AC-DAG
  /// reachability -- the Definition 1 chain. False signals a violation of
  /// the single-root-cause / deterministic-effect assumptions (e.g. a
  /// conjunctive root cause on separate branches, Section 5.1), in which
  /// case the "path" is the set of counterfactual causes in topological
  /// order rather than a proper chain.
  bool path_is_chain = true;
  /// What the static analysis pass did for this discovery (ran == false
  /// when analysis was off). Like the dispatch stats above, this describes
  /// how the result was obtained, not the result itself, so it is NOT part
  /// of SameDiscoveryOutcome -- analysis-on vs analysis-off runs that make
  /// identical decisions still compare equal.
  AnalysisSummary analysis;
  /// Adaptive budgeting accounting (all zero/empty with budgeting off, so
  /// unbudgeted reports stay bit-identical to earlier releases; none of it
  /// is part of SameDiscoveryOutcome). `budgeted_trials_allocated` counts
  /// trials the budgeter actually ran; `budgeted_trials_saved` is the
  /// signed difference against the fixed-trial baseline (rounds *
  /// trials_per_intervention), negative only when max_trials_per_round
  /// raises the cap above the fixed count; `budget_early_stops` counts
  /// rounds a decisive failure ended before their allocation was spent.
  uint64_t budgeted_trials_allocated = 0;
  int64_t budgeted_trials_saved = 0;
  uint64_t budget_early_stops = 0;
  /// True iff BudgetOptions::max_executions ran out with candidates still
  /// undecided: those predicates appear in neither causal_path nor
  /// spurious, and `confidence` carries their posteriors instead.
  bool budget_exhausted = false;
  /// Per-candidate causal posterior at the end of a budgeted run (1 =
  /// certified causal, 0 = certified spurious, in between = undecided when
  /// the budget ran out). Empty with budgeting off.
  std::vector<PredicateConfidence> confidence;

  /// True iff discovery certified at least one causal predicate. The causal
  /// path always ends with the failure predicate F, so a path of size 1 is
  /// just <F>: the engine proved every candidate spurious (or had none) and
  /// there is no root cause to report.
  bool has_root_cause() const { return causal_path.size() >= 2; }

  /// Root cause: the first causal predicate C0 of the path <C0, .., Cn = F>.
  /// Returns kInvalidPredicate iff !has_root_cause() -- callers rendering a
  /// report should branch on has_root_cause() rather than compare ids.
  PredicateId root_cause() const {
    return has_root_cause() ? causal_path.front() : kInvalidPredicate;
  }
};

/// True when two discovery runs made identical decisions at identical
/// cost: same causal path, spurious set, round count, and (speculative)
/// execution counts. This is THE bit-identical contract the execution
/// substrates (exec/ pools, proc/ subprocesses, net/ fleets) are held to
/// against a serial in-process run; benches and tests should compare
/// through it rather than hand-picking fields. Health counters and dispatch
/// stats (steals, per-replica trial counts, straggler waits) are
/// deliberately excluded: they describe substrate turbulence and scheduling
/// choices, not decisions.
inline bool SameDiscoveryOutcome(const DiscoveryReport& a,
                                 const DiscoveryReport& b) {
  return a.causal_path == b.causal_path && a.spurious == b.spurious &&
         a.rounds == b.rounds && a.executions == b.executions &&
         a.speculative_executions == b.speculative_executions;
}

/// Discovers the causal path explaining the failure in `dag` by intervening
/// on `target`. The AC-DAG nodes must be intervenable on the target (the
/// pipeline filters unsafe predicates before building the DAG).
///
/// Run() is a thin driver over the resumable round-state machine in
/// core/discovery_state.h: plan (DiscoveryState::NextAction), execute
/// (ExecuteDiscoveryAction -- the only target I/O), absorb
/// (DiscoveryState::Feed), repeat. Callers that need to interleave many
/// discoveries, or checkpoint one mid-flight, drive a DiscoveryState
/// directly; the reports are bit-identical either way.
class CausalPathDiscovery {
 public:
  CausalPathDiscovery(const AcDag* dag, InterventionTarget* target,
                      EngineOptions options = {});

  /// Runs Algorithm 3. Returns the discovery report.
  Result<DiscoveryReport> Run();

 private:
  const AcDag* dag_;
  InterventionTarget* target_;
  EngineOptions options_;
  /// The engine's RNG stream. Each Run() hands the current position to its
  /// DiscoveryState and copies the advanced position back, so repeated
  /// discoveries keep consuming one stream (TAGT's random order counts on
  /// it).
  Rng rng_;
};

}  // namespace aid

#endif  // AID_CORE_ENGINE_H_
