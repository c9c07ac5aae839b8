// aid::Session -- the one public entry point to the AID pipeline.
//
// A Session owns the whole debugging workflow of the paper's Figure 1 over
// any target backend: trace ingestion and predicate extraction (the
// backend's observation phase), statistical debugging, AC-DAG construction,
// and causality-guided causal path discovery. Sessions are built through
// the fluent SessionBuilder:
//
//   auto session_or = aid::SessionBuilder()
//                         .WithProgram(&program)        // or WithModel(...),
//                                                       // WithTarget(spec,..)
//                         .WithEngine(EnginePreset::kAid)
//                         .WithTrials(3)
//                         .WithObserver(&progress)      // optional
//                         .Build();                     // observation phase
//   AID_ASSIGN_OR_RETURN(SessionReport report, session_or->Run());
//   // report.root_cause, report.causal_path, report.discovery ...
//
// Every workload in the repository -- examples, benchmarks, case-study
// drivers -- goes through this API; the engine and targets underneath stay
// composable for tests and research code.

#ifndef AID_API_SESSION_H_
#define AID_API_SESSION_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/observer.h"
#include "api/options.h"
#include "api/session_target.h"
#include "core/engine.h"
#include "core/report.h"
#include "telemetry/telemetry.h"

namespace aid {

/// The outcome of one Session::Run.
struct SessionReport {
  std::string target_name;
  /// #fully-discriminative predicates from SD (-1: backend has no SD stage).
  int sd_predicates = -1;
  /// AC-DAG size after safety + reachability filtering.
  int acdag_nodes = 0;
  /// The main discovery run.
  DiscoveryReport discovery;
  /// The TAGT baseline, when SessionOptions::run_tagt_baseline was set.
  std::optional<DiscoveryReport> tagt_baseline;
  /// Human-readable root cause (empty when none was certified) and causal
  /// path, when SessionOptions::describe was set.
  std::string root_cause;
  std::vector<std::string> causal_path;

  bool has_root_cause() const { return discovery.has_root_cause(); }
  /// Predicates in the causal path excluding F (the paper's Figure 7
  /// "causal path" column).
  int causal_path_len() const {
    return static_cast<int>(discovery.causal_path.size()) - 1;
  }
};

/// One debugging session over one target. Create via SessionBuilder.
class Session {
 public:
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  /// Runs the pipeline stages that follow observation: statistical
  /// debugging, AC-DAG construction, causal path discovery, and the
  /// optional TAGT baseline. May be called repeatedly; the AC-DAG is built
  /// once and reused, while discovery runs fresh each time (re-running
  /// accumulates executions on the shared target).
  Result<SessionReport> Run();

  /// Same, but with `engine` in place of the configured engine options --
  /// the way to compare presets over one observed target without paying the
  /// observation and AC-DAG phases again. The TAGT baseline is NOT run on
  /// this overload (it belongs to the configured Run(); comparison loops
  /// should not accumulate hidden baseline executions).
  Result<SessionReport> Run(const EngineOptions& engine);

  /// Renders `report` through core/report.h with this session's symbol
  /// tables filled in.
  std::string Render(const SessionReport& report,
                     ReportRenderOptions options = {}) const;

  /// The target backend (valid for the session's lifetime).
  SessionTarget& target() { return *target_; }
  const SessionTarget& target() const { return *target_; }

  /// The AC-DAG (borrowed from the target when it holds one prebuilt,
  /// otherwise built and owned here); null before the first Run().
  const AcDag* dag() const {
    if (borrowed_dag_ != nullptr) return borrowed_dag_;
    return dag_.has_value() ? &*dag_ : nullptr;
  }

  const SessionOptions& options() const { return options_; }

  /// The session's telemetry bundle; null unless built with WithTelemetry.
  /// Valid for the session's lifetime (shared with the target substrates).
  Telemetry* telemetry() const { return telemetry_.get(); }

  /// Point-in-time copy of everything telemetry collected so far: every
  /// metric series plus every finished span (the pipeline spans of this
  /// process and the host spans imported from subject processes). Empty
  /// when telemetry is off. Feed it to MetricsJson / ChromeTraceJson /
  /// PrometheusText / TelemetryJson (telemetry/telemetry.h) to export.
  aid::TelemetrySnapshot TelemetrySnapshot() const {
    return telemetry_ != nullptr ? telemetry_->Snapshot()
                                 : aid::TelemetrySnapshot{};
  }

 private:
  friend class SessionBuilder;
  Result<SessionReport> RunInternal(const EngineOptions& engine,
                                    bool run_baseline);
  Session(std::unique_ptr<SessionTarget> target, SessionOptions options,
          Observer* observer, std::shared_ptr<Telemetry> telemetry)
      : target_(std::move(target)),
        options_(std::move(options)),
        observer_(observer),
        telemetry_(std::move(telemetry)) {}

  std::unique_ptr<SessionTarget> target_;
  SessionOptions options_;
  Observer* observer_ = nullptr;  ///< non-owning; may be null
  /// Telemetry bundle shared with the target substrates; null = off.
  std::shared_ptr<Telemetry> telemetry_;
  std::optional<AcDag> dag_;  ///< owned DAG (unset when borrowing)
  /// DAG borrowed from the target (points into *target_, so it stays valid
  /// across Session moves).
  const AcDag* borrowed_dag_ = nullptr;
};

/// Fluent builder for Session. All setters return *this; Build() runs the
/// backend's observation phase and hands back the ready Session.
class SessionBuilder {
 public:
  // ----- target selection (exactly one required) ------------------------
  /// The subject `spec` describes, executing per `config`
  /// (MakeSessionTarget). The builder's substrate methods below override
  /// the matching `config` fields.
  SessionBuilder& WithTarget(SubjectSpec spec, TargetConfig config = {});
  /// A pre-built custom backend (takes ownership).
  SessionBuilder& WithTarget(std::unique_ptr<SessionTarget> target);
  /// Shorthand for a kVmProgram subject over `program` (target "vm").
  SessionBuilder& WithProgram(const Program* program,
                              VmTargetOptions options = {});
  /// Shorthand for a kModel subject over `model` (target "model").
  SessionBuilder& WithModel(const GroundTruthModel* model);
  /// Shorthand for a kFlakyModel subject (target "flaky-model").
  SessionBuilder& WithFlakyModel(const GroundTruthModel* model,
                                 double manifest_probability,
                                 uint64_t seed = 1);
  /// Shorthand for a kCase subject (target "case:<name>").
  SessionBuilder& WithCaseStudy(std::string name);

  // ----- engine configuration ------------------------------------------
  SessionBuilder& WithEngine(EnginePreset preset);
  SessionBuilder& WithEngineOptions(const EngineOptions& options);
  /// Executions per intervention round; applies to the main engine and the
  /// TAGT baseline (overrides whatever the engine options carry). Values
  /// outside [1, kMaxTrialsPerIntervention] fail Build() with
  /// InvalidArgument.
  SessionBuilder& WithTrials(int trials_per_intervention);
  /// Adaptive intervention budgeting (src/budget/): replace the fixed
  /// trials-per-round count with a sequential probability ratio test over
  /// a per-candidate Bayesian posterior -- decisive candidates get one
  /// trial, noisy ones more (never more than the fixed count unless
  /// options.max_trials_per_round raises the cap), and rounds stop at the
  /// first failing trial. An optional global execution budget
  /// (options.max_executions) degrades gracefully into a best-effort
  /// report with per-candidate confidence. When the backend runs
  /// statistical debugging (e.g. "vm"), its suspiciousness scores seed the
  /// priors automatically unless options.advice already carries scores.
  /// Applies to the main engine only -- the TAGT baseline stays
  /// fixed-trial so its execution counts remain comparable. Budgeting off
  /// (the default) leaves reports bit-identical to previous releases.
  /// Invalid knobs fail Build() with InvalidArgument.
  SessionBuilder& WithAdaptiveBudget(BudgetOptions options);
  SessionBuilder& WithAdaptiveBudget() {
    BudgetOptions options;
    options.enabled = true;
    return WithAdaptiveBudget(options);
  }
  /// Seed for random ordering / tie-breaking of the main engine.
  SessionBuilder& WithSeed(uint64_t seed);
  /// Dispatch linear-scan rounds through RunInterventionsBatch.
  SessionBuilder& WithBatchedDispatch(bool batched = true);
  /// Replicate the target backend across `parallelism` workers and dispatch
  /// intervention rounds (and the trials within a round) concurrently
  /// through exec::ParallelTarget. Worker count and scheduling order never
  /// affect results: reports are bit-identical to a 1-worker run of the
  /// same dispatch mode. One caveat on the mode itself: parallelism > 1
  /// implies batched linear-scan dispatch (see EngineOptions), whose
  /// speculative executions leave decisions unchanged on deterministic
  /// targets but can shift trial positions -- and thus decisions -- on
  /// nondeterministic (flaky) targets relative to an *unbatched* serial
  /// scan; compare against WithBatchedDispatch(true) for an apples-to-
  /// apples serial baseline there. Default 1 = serial. Requires a subject
  /// target (WithTarget(spec)/WithProgram/WithModel/WithCaseStudy);
  /// prebuilt SessionTargets cannot be replicated from outside. Values
  /// outside [1, kMaxParallelism] fail Build() with InvalidArgument.
  SessionBuilder& WithParallelism(int parallelism);
  /// How the replica pool of WithParallelism schedules each round's trials
  /// over its replicas (exec/scheduler.h). The default is latency-aware
  /// work stealing: rounds are cut into fine-grained chunks, per-replica
  /// latency is tracked as an EWMA (fed by the substrates' own wire-level
  /// timing under process isolation / remote fleets), and fast replicas
  /// steal chunks queued behind stragglers -- so one slow replica no
  /// longer stalls every round at its pace. SchedulerPolicy::kStatic
  /// restores the fixed contiguous sharding of earlier releases.
  /// Scheduling decides where trials run, never their bytes: reports stay
  /// bit-identical under every policy, worker count, and steal schedule.
  /// No-op without WithParallelism(n > 1). Out-of-range knobs fail Build()
  /// with InvalidArgument.
  SessionBuilder& WithScheduler(const SchedulerOptions& scheduler);
  /// Run every intervention replica as a sandboxed subject process
  /// (src/proc/): a subject that crashes is recorded as a failing trial and
  /// respawned; one that exceeds `trial_deadline_ms` is SIGKILLed and the
  /// trial records the distinct timed-out outcome
  /// (DiscoveryReport::{crashed,timed_out}_trials and ::respawns surface
  /// the counts). deadline 0 = none -- set one for subjects that may hang.
  /// Composes with WithParallelism(n): the pool becomes n isolated child
  /// processes. Requires a subject target, like WithParallelism. On
  /// platforms without fork/exec, Build() fails with Unimplemented.
  SessionBuilder& WithProcessIsolation(int trial_deadline_ms = 0);
  /// Run every intervention replica on a remote fleet of aid_runner
  /// daemons (src/net/): `endpoints` lists them as "host:port" strings,
  /// and replicas -- one, or `WithParallelism(n)` of them -- spread
  /// round-robin across the fleet, each holding one TCP connection to a
  /// sandboxed runner-side subject process. A dropped connection is
  /// recorded as a crashed trial and reconnected with backoff (failing
  /// over across the fleet); a trial exceeding `trial_deadline_ms` records
  /// the distinct timed-out outcome (deadline 0 = none). Counters surface
  /// in DiscoveryReport::{crashed,timed_out}_trials and ::respawns.
  /// Placement never affects results: reports are bit-identical to the
  /// in-process run at any fleet size or worker count. Requires a subject
  /// target; mutually exclusive with WithProcessIsolation (the fleet
  /// already sandboxes every replica). On platforms without sockets,
  /// Build() fails with Unimplemented. See docs/remote_protocol.md.
  SessionBuilder& WithRemoteFleet(std::vector<std::string> endpoints,
                                  int trial_deadline_ms = 0);
  /// Run the static analysis pass (src/analysis/) on the target. For
  /// VM-backed targets (WithProgram / WithCaseStudy): lint the program
  /// before the observation scan and fail Build() on error findings
  /// (options.lint_programs), exclude statically infeasible predicate
  /// sites from statistical debugging (options.exclude_infeasible), and
  /// prune AC-DAG edges between instrumentation points with no static
  /// influence channel (options.prune_edges). For model-backed targets:
  /// prune temporal edges not covered by the model's declared dependence
  /// channels. Pruning is sound -- the discovered root cause is
  /// bit-identical, only cheaper to reach -- and what it did is reported in
  /// DiscoveryReport::analysis. The no-argument overload enables all
  /// passes. Requires a subject target, like WithParallelism.
  SessionBuilder& WithStaticAnalysis(AnalysisOptions options);
  SessionBuilder& WithStaticAnalysis() {
    AnalysisOptions options;
    options.enabled = true;
    return WithStaticAnalysis(options);
  }

  /// Collect telemetry for this session (src/telemetry/): pipeline spans
  /// (observation, statistical debugging, AC-DAG construction, every
  /// intervention round and trial -- including spans imported from subject
  /// processes over the wire), latency histograms, and fleet/scheduler
  /// metrics whose totals match the DiscoveryReport of Run() exactly.
  /// Observability only: reports are bit-identical with telemetry on or
  /// off. Read results via Session::TelemetrySnapshot() or telemetry(),
  /// export via MetricsJson / ChromeTraceJson / PrometheusText. The TAGT
  /// baseline run is never instrumented, so metric totals stay comparable
  /// to the main run's report.
  SessionBuilder& WithTelemetry(TelemetryOptions options = {});
  /// Same, but sharing a caller-owned bundle (e.g. one registry across
  /// several sessions). Passing nullptr turns telemetry back off.
  SessionBuilder& WithTelemetry(std::shared_ptr<Telemetry> telemetry);

  // ----- session behavior ----------------------------------------------
  SessionBuilder& WithObserver(Observer* observer);
  SessionBuilder& WithTagtBaseline(bool run = true);
  SessionBuilder& WithTagtBaselineOptions(const EngineOptions& options);
  SessionBuilder& WithDescriptions(bool describe);

  /// Creates the target (running its observation phase) and the Session.
  Result<Session> Build();

 private:
  std::optional<SubjectSpec> subject_;  ///< set iff WithTarget(spec)
  TargetConfig config_;
  std::unique_ptr<SessionTarget> prebuilt_target_;
  SessionOptions options_;
  Observer* observer_ = nullptr;
  std::optional<int> trials_;
  std::optional<BudgetOptions> budget_;  ///< set iff WithAdaptiveBudget
  std::optional<uint64_t> seed_;
  std::optional<bool> batched_;
  std::optional<int> parallelism_;
  std::optional<SchedulerOptions> scheduler_;  ///< set iff WithScheduler
  std::optional<int> isolation_deadline_ms_;  ///< set iff WithProcessIsolation
  /// Set iff WithRemoteFleet: the endpoint list and per-trial deadline.
  std::optional<std::vector<std::string>> fleet_endpoints_;
  int fleet_trial_deadline_ms_ = 0;
  std::optional<AnalysisOptions> analysis_;  ///< set iff WithStaticAnalysis
  std::shared_ptr<Telemetry> telemetry_;     ///< set iff WithTelemetry
};

}  // namespace aid

#endif  // AID_API_SESSION_H_
