// Session targets: SessionTarget, TargetConfig and MakeSessionTarget.
//
// Part of the stable public surface under api/. A SessionTarget is one
// debuggable application: it owns the observed subject, exposes the
// InterventionTarget the engine intervenes on, and builds the AC-DAG over
// the intervenable fully-discriminative predicates.
//
// The subject is a SubjectSpec (proc/subject_spec.h): a VM program, a
// ground-truth model (deterministic or flaky) or one of the paper's six case
// studies. TargetConfig says where and how it executes. MakeSessionTarget
// builds the target from the two; SessionBuilder::WithTarget(spec, config)
// and its shorthands (WithProgram, WithModel, WithFlakyModel,
// WithCaseStudy) go through it. Custom backends implement SessionTarget
// directly, or wrap hand-assembled pieces with MakeAdapterSessionTarget, and
// hand the result to SessionBuilder::WithTarget(std::unique_ptr<...>).

#ifndef AID_API_SESSION_TARGET_H_
#define AID_API_SESSION_TARGET_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/summary.h"
#include "budget/advice.h"
#include "causal/acdag.h"
#include "common/status.h"
#include "core/target.h"
#include "exec/scheduler.h"
#include "net/remote_target.h"
#include "proc/subject_spec.h"
#include "proc/subprocess_target.h"

namespace aid {

/// Where and how a subject executes: the substrate knobs every subject
/// kind shares. Usually filled in through the SessionBuilder methods named
/// on each field.
struct TargetConfig {
  /// Replicate the intervention target across this many workers and
  /// dispatch intervention rounds in parallel (src/exec/). 1 = serial
  /// dispatch, today's behavior. Worker count never affects
  /// results (ReplicableTarget contract: bit-identical to a 1-worker run of
  /// the same dispatch mode); the engine-side switch to batched linear-scan
  /// dispatch is what changes the executions/rounds split -- see
  /// SessionBuilder::WithParallelism for the nondeterministic-target
  /// caveat. Usually set through that builder method. Validated by
  /// MakeSessionTarget: values outside [1, kMaxParallelism] are rejected
  /// with InvalidArgument instead of silently degrading to serial dispatch.
  int parallelism = 1;

  /// parallelism > 1 only: how the replica pool schedules each round's
  /// trials over the replicas. The default is latency-aware work stealing
  /// (exec/scheduler.h); kStatic restores the fixed contiguous sharding of
  /// earlier releases. Scheduling decides
  /// where trials run, never their bytes -- reports stay bit-identical
  /// under every policy. Usually set through SessionBuilder::WithScheduler.
  /// Validated by MakeSessionTarget: out-of-range knobs are rejected with
  /// InvalidArgument.
  SchedulerOptions scheduler;

  /// Where the *intervention* replicas execute.
  /// kSubprocess runs each replica as a sandboxed aid_subject_host child
  /// process speaking the proc/ wire protocol -- a subject that crashes or
  /// hangs is respawned (and, with a deadline, killed) instead of taking the
  /// engine down. Observation (and so the AC-DAG) always happens in-process,
  /// where the session needs the traces anyway. Usually set through
  /// SessionBuilder::WithProcessIsolation.
  Isolation isolation = Isolation::kInProcess;

  /// kSubprocess only: child lifecycle knobs (per-trial deadline, host
  /// binary path, respawn budget). Fault injection is part of the subject:
  /// SubjectSpec::crash_period / hang_period.
  SubprocessOptions subprocess;

  /// When non-empty, the *intervention* replicas run
  /// on this remote fleet of aid_runner daemons ("host:port" per entry,
  /// src/net/) instead of in this process. Replicas spread round-robin
  /// across the fleet (net::FleetTarget) and pool under parallelism like
  /// any other substrate; a lost connection becomes a crashed trial plus a
  /// reconnect with endpoint failover, never an engine failure. Mutually
  /// exclusive with isolation = kSubprocess (the fleet already sandboxes
  /// each replica in a runner-side child process). Observation still
  /// happens in-process; the runner rebuilds the identical predicate
  /// catalog from the shipped spec (cross-checked at handshake). Usually
  /// set through SessionBuilder::WithRemoteFleet.
  std::vector<std::string> fleet;

  /// Fleet only: connection & trial lifecycle knobs (per-trial deadline,
  /// reconnect budget/backoff).
  RemoteOptions remote;

  /// The static analysis pass (src/analysis/). When `analysis.enabled`,
  /// VM-backed targets lint the program before the observation scan,
  /// exclude statically infeasible predicates from statistical debugging,
  /// and prune dependence-free AC-DAG edges; model-backed targets prune
  /// temporal edges not covered by the model's declared dependence
  /// channels. Disabled (all passes off) by default -- when disabled, the
  /// subject's own options (SubjectSpec::vm.analysis, a case study's
  /// defaults) are left untouched. Usually set through
  /// SessionBuilder::WithStaticAnalysis.
  AnalysisOptions analysis;

  /// The session's telemetry bundle (null = off). Threaded into every
  /// execution substrate MakeSessionTarget assembles --
  /// replica pools (chunk spans, replica EWMAs/steals), subprocess children
  /// and remote fleets (trial spans, wire latency histograms, endpoint
  /// gauges, cross-process span propagation). Observability only: never
  /// changes a report's bytes. Usually set through
  /// SessionBuilder::WithTelemetry.
  std::shared_ptr<Telemetry> telemetry;
};

/// One debuggable application: the pluggable unit behind aid::Session.
///
/// Construction (MakeSessionTarget, or a custom backend's own) performs
/// whatever observation the backend needs; afterwards the target answers the
/// pipeline queries below. Implementations own their subject (program,
/// model, case study) or borrow it from the caller per their contract.
class SessionTarget {
 public:
  virtual ~SessionTarget() = default;

  /// Backend name for reports (e.g. "vm", "model", "case:kafka").
  virtual std::string_view name() const = 0;

  /// Human-readable provenance of the subject (e.g. a case study's origin);
  /// empty when the backend has none.
  virtual std::string_view description() const { return {}; }

  /// The intervention interface handed to the engine. Owned by this target.
  virtual InterventionTarget* intervention_target() = 0;

  /// Builds the AC-DAG over the intervenable fully-discriminative
  /// predicates. The target must outlive the returned DAG.
  virtual Result<AcDag> BuildAcDag() = 0;

  /// The AC-DAG the backend already holds, if any; Session borrows it
  /// instead of calling BuildAcDag (adapter targets avoid a deep copy this
  /// way). Must stay valid for the target's lifetime. Default: null.
  virtual const AcDag* prebuilt_dag() const { return nullptr; }

  /// Predicate catalog for rendering. Never null.
  virtual const PredicateCatalog* catalog() const = 0;

  /// Symbol tables for predicate descriptions (may be null).
  virtual const SymbolTable* method_names() const { return nullptr; }
  virtual const SymbolTable* object_names() const { return nullptr; }

  /// #fully-discriminative predicates statistical debugging surfaced, or -1
  /// when the backend has no SD stage (ground-truth models).
  virtual int sd_predicate_count() const { return -1; }

  /// Statistical-debugging suspiciousness scores (F1 over the observed
  /// runs) for seeding adaptive-budget priors (src/budget/advice.h). Empty
  /// when the backend has no SD stage.
  virtual std::vector<SuspiciousnessScore> sd_suspiciousness() const {
    return {};
  }

  /// What the static analysis pass did for this target (ran == false when
  /// analysis was off or the backend has no analysis stage). Pruning
  /// counters are filled in by BuildAcDag, so read this after building the
  /// DAG.
  virtual AnalysisSummary analysis_summary() const { return {}; }
};

/// Opens `subject` in this process (OpenSubject: observation, and
/// statistical debugging for VM subjects), then stacks the execution
/// substrate `config` asks for, once: the intervention replicas run on the
/// remote fleet, in subprocesses, or in process, pooled behind an
/// exec::ParallelTarget when parallelism > 1. The target is named after
/// the subject: "vm", "model", "flaky-model" or "case:<key>". Borrowed
/// subject pointers (model, program) must outlive the target.
/// InvalidArgument for an invalid config or a subject missing its model or
/// program; NotFound for an unknown case study.
Result<std::unique_ptr<SessionTarget>> MakeSessionTarget(
    const SubjectSpec& subject, const TargetConfig& config = {});

/// Adapts a borrowed InterventionTarget and prebuilt AC-DAG as a
/// SessionTarget -- the escape hatch for research setups that assemble the
/// observation pipeline by hand but still want Session to drive discovery.
/// All pointers are non-owning and must outlive the session.
std::unique_ptr<SessionTarget> MakeAdapterSessionTarget(
    InterventionTarget* target, const AcDag* dag,
    const PredicateCatalog* catalog, const SymbolTable* methods = nullptr,
    const SymbolTable* objects = nullptr, std::string name = "custom");

}  // namespace aid

#endif  // AID_API_SESSION_TARGET_H_
