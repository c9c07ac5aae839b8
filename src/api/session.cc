#include "api/session.h"

#include <utility>

#include "exec/parallel_target.h"

namespace aid {

Result<SessionReport> Session::Run() {
  return RunInternal(options_.engine, options_.run_tagt_baseline);
}

Result<SessionReport> Session::Run(const EngineOptions& engine_options) {
  return RunInternal(engine_options, /*run_baseline=*/false);
}

Result<SessionReport> Session::RunInternal(const EngineOptions& engine_options,
                                           bool run_baseline) {
  SessionReport report;
  report.target_name = std::string(target_->name());
  report.sd_predicates = target_->sd_predicate_count();

  Tracer* tracer = telemetry_ != nullptr ? telemetry_->tracer() : nullptr;
  if (dag() == nullptr) {
    // SD ran inside the backend's construction; its phase is announced once
    // here, alongside the one-time DAG construction, so repeated Run calls
    // do not replay phases whose work is not redone. The SD span is
    // announced the same way (the work already happened during
    // observation); the DAG span times the actual build.
    if (observer_ != nullptr) {
      observer_->OnPhaseChanged(SessionPhase::kStatisticalDebugging);
      observer_->OnPhaseChanged(SessionPhase::kAcDagConstruction);
    }
    ScopedSpan(tracer, "statistical_debugging").End();
    ScopedSpan dag_span(tracer, "acdag_construction");
    borrowed_dag_ = target_->prebuilt_dag();
    if (borrowed_dag_ == nullptr) {
      AID_ASSIGN_OR_RETURN(AcDag built, target_->BuildAcDag());
      dag_.emplace(std::move(built));
    }
  }
  const AcDag* dag = this->dag();
  report.acdag_nodes = static_cast<int>(dag->size());

  EngineOptions engine = engine_options;
  if (engine.observer == nullptr) engine.observer = observer_;
  if (engine.budget.enabled && engine.budget.advice.sd_scores.empty()) {
    // Backends that ran statistical debugging seed the budget priors with
    // their suspiciousness ranking; explicit advice always wins.
    engine.budget.advice.sd_scores = target_->sd_suspiciousness();
  }
  {
    CausalPathDiscovery discovery(dag, target_->intervention_target(),
                                  engine);
    AID_ASSIGN_OR_RETURN(report.discovery, discovery.Run());
  }
  // Attach what static analysis did (lint counts from observation, pruning
  // counters from the DAG build). ran == false when analysis was off.
  report.discovery.analysis = target_->analysis_summary();
  if (run_baseline) {
    // The baseline is a silent comparison run: it reuses the target but not
    // the observer.
    CausalPathDiscovery discovery(dag, target_->intervention_target(),
                                  options_.tagt_baseline);
    AID_ASSIGN_OR_RETURN(DiscoveryReport baseline, discovery.Run());
    report.tagt_baseline = std::move(baseline);
  }

  if (options_.describe) {
    const PredicateCatalog* catalog = target_->catalog();
    const SymbolTable* methods = target_->method_names();
    const SymbolTable* objects = target_->object_names();
    if (report.discovery.has_root_cause()) {
      report.root_cause = catalog->Describe(report.discovery.root_cause(),
                                            methods, objects);
    }
    report.causal_path.reserve(report.discovery.causal_path.size());
    for (PredicateId id : report.discovery.causal_path) {
      report.causal_path.push_back(catalog->Describe(id, methods, objects));
    }
  }

  if (observer_ != nullptr) {
    observer_->OnPhaseChanged(SessionPhase::kFinished);
  }
  return report;
}

std::string Session::Render(const SessionReport& report,
                            ReportRenderOptions options) const {
  if (dag() == nullptr) return "(session not run)";
  if (options.methods == nullptr) options.methods = target_->method_names();
  if (options.objects == nullptr) options.objects = target_->object_names();
  return RenderReport(report.discovery, *dag(), options);
}

SessionBuilder& SessionBuilder::WithTarget(SubjectSpec spec,
                                           TargetConfig config) {
  subject_ = std::move(spec);
  config_ = std::move(config);
  prebuilt_target_.reset();
  return *this;
}

SessionBuilder& SessionBuilder::WithTarget(
    std::unique_ptr<SessionTarget> target) {
  prebuilt_target_ = std::move(target);
  subject_.reset();
  return *this;
}

SessionBuilder& SessionBuilder::WithProgram(const Program* program,
                                            VmTargetOptions options) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kVmProgram;
  spec.program = program;
  spec.vm = options;
  return WithTarget(std::move(spec));
}

SessionBuilder& SessionBuilder::WithModel(const GroundTruthModel* model) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model;
  return WithTarget(std::move(spec));
}

SessionBuilder& SessionBuilder::WithFlakyModel(const GroundTruthModel* model,
                                               double manifest_probability,
                                               uint64_t seed) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kFlakyModel;
  spec.model = model;
  spec.manifest_probability = manifest_probability;
  spec.flaky_seed = seed;
  return WithTarget(std::move(spec));
}

SessionBuilder& SessionBuilder::WithCaseStudy(std::string name) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kCase;
  spec.case_key = std::move(name);
  return WithTarget(std::move(spec));
}

SessionBuilder& SessionBuilder::WithEngine(EnginePreset preset) {
  options_.engine = MakeEngineOptions(preset);
  return *this;
}

SessionBuilder& SessionBuilder::WithEngineOptions(
    const EngineOptions& options) {
  options_.engine = options;
  return *this;
}

SessionBuilder& SessionBuilder::WithTrials(int trials_per_intervention) {
  trials_ = trials_per_intervention;
  return *this;
}

SessionBuilder& SessionBuilder::WithAdaptiveBudget(BudgetOptions options) {
  budget_ = std::move(options);
  return *this;
}

SessionBuilder& SessionBuilder::WithSeed(uint64_t seed) {
  seed_ = seed;
  return *this;
}

SessionBuilder& SessionBuilder::WithBatchedDispatch(bool batched) {
  batched_ = batched;
  return *this;
}

SessionBuilder& SessionBuilder::WithParallelism(int parallelism) {
  parallelism_ = parallelism;
  return *this;
}

SessionBuilder& SessionBuilder::WithScheduler(
    const SchedulerOptions& scheduler) {
  scheduler_ = scheduler;
  return *this;
}

SessionBuilder& SessionBuilder::WithProcessIsolation(int trial_deadline_ms) {
  isolation_deadline_ms_ = trial_deadline_ms;
  return *this;
}

SessionBuilder& SessionBuilder::WithRemoteFleet(
    std::vector<std::string> endpoints, int trial_deadline_ms) {
  fleet_endpoints_ = std::move(endpoints);
  fleet_trial_deadline_ms_ = trial_deadline_ms;
  return *this;
}

SessionBuilder& SessionBuilder::WithStaticAnalysis(AnalysisOptions options) {
  analysis_ = options;
  return *this;
}

SessionBuilder& SessionBuilder::WithTelemetry(TelemetryOptions options) {
  telemetry_ = Telemetry::Create(options);
  return *this;
}

SessionBuilder& SessionBuilder::WithTelemetry(
    std::shared_ptr<Telemetry> telemetry) {
  telemetry_ = std::move(telemetry);
  return *this;
}

SessionBuilder& SessionBuilder::WithObserver(Observer* observer) {
  observer_ = observer;
  return *this;
}

SessionBuilder& SessionBuilder::WithTagtBaseline(bool run) {
  options_.run_tagt_baseline = run;
  return *this;
}

SessionBuilder& SessionBuilder::WithTagtBaselineOptions(
    const EngineOptions& options) {
  options_.tagt_baseline = options;
  options_.run_tagt_baseline = true;
  return *this;
}

SessionBuilder& SessionBuilder::WithDescriptions(bool describe) {
  options_.describe = describe;
  return *this;
}

Result<Session> SessionBuilder::Build() {
  // The deferred knobs override the engine options regardless of the order
  // the builder calls arrived in.
  if (trials_.has_value()) {
    options_.engine.trials_per_intervention = *trials_;
    options_.tagt_baseline.trials_per_intervention = *trials_;
  }
  {
    const Status valid = ValidateTrialsPerIntervention(
        options_.engine.trials_per_intervention);
    if (!valid.ok()) {
      return Status(valid.code(), "SessionBuilder: " + valid.message());
    }
  }
  if (budget_.has_value()) {
    const Status valid = ValidateBudgetOptions(*budget_);
    if (!valid.ok()) {
      return Status(valid.code(), "SessionBuilder: " + valid.message());
    }
    // The main engine only: the TAGT baseline stays fixed-trial so its
    // execution counts remain a meaningful comparison point.
    options_.engine.budget = *budget_;
  }
  if (seed_.has_value()) options_.engine.seed = *seed_;
  if (batched_.has_value()) options_.engine.batched_dispatch = *batched_;
  // WithParallelism wins; otherwise honor parallelism carried in by
  // WithEngineOptions, so the engine's dispatch mode and the target's
  // replica pool can never silently disagree.
  const int parallelism =
      parallelism_.value_or(options_.engine.parallelism);
  {
    const Status valid = ValidateParallelism(parallelism);
    if (!valid.ok()) {
      return Status(valid.code(), "SessionBuilder: " + valid.message());
    }
  }
  options_.engine.parallelism = parallelism;
  options_.tagt_baseline.parallelism = parallelism;
  config_.parallelism = parallelism;
  if (scheduler_.has_value()) {
    // Validated here too (not only in MakeSessionTarget) so a bad knob
    // fails the build even on paths that never reach a replica pool.
    const Status valid = ValidateSchedulerOptions(*scheduler_);
    if (!valid.ok()) {
      return Status(valid.code(), "SessionBuilder: " + valid.message());
    }
    config_.scheduler = *scheduler_;
  }
  if (isolation_deadline_ms_.has_value()) {
    if (*isolation_deadline_ms_ < 0) {
      return Status::InvalidArgument(
          "SessionBuilder: process-isolation trial deadline must be >= 0 ms, "
          "got " + std::to_string(*isolation_deadline_ms_));
    }
    config_.isolation = Isolation::kSubprocess;
    config_.subprocess.trial_deadline_ms = *isolation_deadline_ms_;
  }
  if (fleet_endpoints_.has_value()) {
    if (isolation_deadline_ms_.has_value()) {
      return Status::InvalidArgument(
          "SessionBuilder: WithRemoteFleet and WithProcessIsolation are "
          "mutually exclusive (the fleet already sandboxes every replica in "
          "a runner-side child process)");
    }
    if (fleet_endpoints_->empty()) {
      return Status::InvalidArgument(
          "SessionBuilder: WithRemoteFleet needs at least one "
          "\"host:port\" runner endpoint");
    }
    if (fleet_trial_deadline_ms_ < 0) {
      return Status::InvalidArgument(
          "SessionBuilder: remote-fleet trial deadline must be >= 0 ms, "
          "got " + std::to_string(fleet_trial_deadline_ms_));
    }
    config_.fleet = *fleet_endpoints_;
    config_.remote.trial_deadline_ms = fleet_trial_deadline_ms_;
  }
  if (analysis_.has_value()) config_.analysis = *analysis_;
  // The main engine is instrumented; the TAGT baseline never is, so the
  // metric totals stay an exact mirror of the main run's DiscoveryReport.
  config_.telemetry = telemetry_;
  options_.engine.telemetry = telemetry_.get();

  std::unique_ptr<SessionTarget> target = std::move(prebuilt_target_);
  if (target != nullptr && config_.parallelism > 1) {
    return Status::InvalidArgument(
        "SessionBuilder: parallelism > 1 requires a subject target "
        "(WithTarget(spec), WithProgram, WithModel, WithFlakyModel or "
        "WithCaseStudy); a prebuilt SessionTarget cannot be replicated from "
        "outside (wrap its intervention target in exec::ParallelTarget "
        "before building it, and use WithBatchedDispatch(true) if only "
        "batched linear-scan dispatch is wanted)");
  }
  if (target != nullptr && config_.isolation == Isolation::kSubprocess) {
    return Status::InvalidArgument(
        "SessionBuilder: process isolation requires a subject target "
        "(WithTarget(spec), WithProgram, WithModel, WithFlakyModel or "
        "WithCaseStudy); a prebuilt SessionTarget cannot be re-hosted in a "
        "subprocess (build it over proc::SubprocessTarget instead)");
  }
  if (target != nullptr && !config_.fleet.empty()) {
    return Status::InvalidArgument(
        "SessionBuilder: a remote fleet requires a subject target "
        "(WithTarget(spec), WithProgram, WithModel, WithFlakyModel or "
        "WithCaseStudy); a prebuilt SessionTarget cannot be shipped to "
        "runners (build it over net::FleetTarget instead)");
  }
  if (target != nullptr && analysis_.has_value() && analysis_->enabled) {
    return Status::InvalidArgument(
        "SessionBuilder: static analysis requires a subject target "
        "(WithTarget(spec), WithProgram, WithModel, WithFlakyModel or "
        "WithCaseStudy); a prebuilt SessionTarget observes (and builds its "
        "DAG) before the session could analyze it (pass AnalysisOptions to "
        "the backend directly, e.g. VmTargetOptions::analysis)");
  }
  if (target == nullptr) {
    if (!subject_.has_value()) {
      return Status::InvalidArgument(
          "SessionBuilder: no target configured (call WithTarget / "
          "WithProgram / WithModel / WithCaseStudy first)");
    }
    if (observer_ != nullptr) {
      observer_->OnPhaseChanged(SessionPhase::kObservation);
    }
    Tracer* tracer =
        telemetry_ != nullptr ? telemetry_->tracer() : nullptr;
    ScopedSpan observation_span(tracer, "observation");
    AID_ASSIGN_OR_RETURN(target, MakeSessionTarget(*subject_, config_));
  }
  return Session(std::move(target), options_, observer_, telemetry_);
}

}  // namespace aid
