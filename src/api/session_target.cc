#include "api/session_target.h"

#include <utility>

#include "exec/parallel_target.h"
#include "net/fleet_target.h"
#include "sd/statistical_debugger.h"
#include "telemetry/telemetry.h"

namespace aid {
namespace {

/// Range checks, plus the one composition rule of the execution
/// substrates: subprocess sandboxing and a remote fleet are both "replicas
/// live in their own process", so stacking them is a configuration error,
/// not a feature.
Status ValidateTargetConfig(const TargetConfig& config) {
  AID_RETURN_IF_ERROR(ValidateParallelism(config.parallelism));
  AID_RETURN_IF_ERROR(ValidateSchedulerOptions(config.scheduler));
  if (!config.fleet.empty() && config.isolation == Isolation::kSubprocess) {
    return Status::InvalidArgument(
        "target config: a remote fleet and subprocess isolation are "
        "mutually exclusive (the fleet already sandboxes every replica in "
        "a runner-side child process)");
  }
  return Status::OK();
}

std::string SubjectTargetName(const SubjectSpec& spec) {
  switch (spec.kind) {
    case SubjectKind::kCase: return "case:" + spec.case_key;
    case SubjectKind::kVmProgram: return "vm";
    default: return std::string(SubjectKindName(spec.kind));
  }
}

/// A subject opened in process, plus the substrate its interventions run
/// on. Observation always runs in process (statistical debugging needs the
/// traces); under subprocess isolation or on a fleet the *intervention*
/// side runs the same spec in subject hosts, which rebuild the identical
/// predicate catalog (cross-checked at handshake).
class SubjectSessionTarget : public SessionTarget {
 public:
  static Result<std::unique_ptr<SessionTarget>> Create(
      const SubjectSpec& subject, const TargetConfig& config) {
    AID_RETURN_IF_ERROR(ValidateTargetConfig(config));
    SubjectSpec spec = subject;
    // The session-level analysis knob wins over the subject's own options.
    // A VM program ships its options to subject hosts; a case study is
    // rebuilt there as registered, so its override stays in process.
    if (config.analysis.enabled && spec.kind == SubjectKind::kVmProgram) {
      spec.vm.analysis = config.analysis;
    }
    std::unique_ptr<SubjectSessionTarget> target(new SubjectSessionTarget);
    target->name_ = SubjectTargetName(spec);
    target->analysis_ = config.analysis;
    AID_ASSIGN_OR_RETURN(target->subject_,
                         OpenSubject(spec, config.analysis));
    if (const VmTarget* vm = target->subject_.vm) {
      AID_ASSIGN_OR_RETURN(
          StatisticalDebugger sd,
          StatisticalDebugger::Analyze(vm->extractor().catalog(),
                                       vm->extractor().logs()));
      target->sd_count_ = static_cast<int>(sd.FullyDiscriminative().size());
      for (const RankedPredicate& ranked : sd.Ranked()) {
        target->sd_scores_.push_back(
            SuspiciousnessScore{ranked.id, ranked.stats.f1()});
      }
    }
    const auto catalog_size =
        static_cast<uint32_t>(target->subject_.catalog().size());
    if (!config.fleet.empty()) {
      AID_ASSIGN_OR_RETURN(std::vector<Endpoint> endpoints,
                           ParseEndpoints(config.fleet));
      RemoteOptions options = config.remote;
      options.expected_catalog_size = catalog_size;
      options.telemetry = config.telemetry;
      AID_ASSIGN_OR_RETURN(target->isolated_,
                           FleetTarget::Create(std::move(endpoints), spec,
                                               std::move(options)));
    } else if (config.isolation == Isolation::kSubprocess) {
      SubprocessOptions options = config.subprocess;
      options.expected_catalog_size = catalog_size;
      options.telemetry = config.telemetry;
      AID_ASSIGN_OR_RETURN(target->isolated_,
                           SubprocessTarget::Create(spec, std::move(options)));
    }
    if (config.parallelism > 1) {
      AID_ASSIGN_OR_RETURN(
          target->parallel_,
          ParallelTarget::Create(target->replicable_target(),
                                 config.parallelism, config.scheduler,
                                 config.telemetry.get()));
    }
    target->telemetry_ = config.telemetry;
    return std::unique_ptr<SessionTarget>(std::move(target));
  }

  std::string_view name() const override { return name_; }
  std::string_view description() const override {
    return subject_.study != nullptr ? std::string_view(subject_.study->origin)
                                     : std::string_view();
  }
  InterventionTarget* intervention_target() override {
    if (parallel_ != nullptr) return parallel_.get();
    return replicable_target();
  }
  Result<AcDag> BuildAcDag() override {
    if (subject_.vm != nullptr) return subject_.vm->BuildAcDag();
    const GroundTruthModel& model = *subject_.model;
    if (!analysis_.enabled || !analysis_.prune_edges) {
      return model.BuildAcDag();
    }
    // Dependence-based pruning over the model's declared channels. With no
    // declared edges the model build is the plain one (all-may-influence),
    // but the summary still records that analysis ran.
    model_summary_.ran = true;
    AcDag::PruneStats stats{};
    auto dag = model.BuildAcDag(/*apply_dependence_pruning=*/true, &stats);
    if (dag.ok() && !model.dependence_edges().empty()) {
      model_summary_.nodes_before = stats.nodes_before;
      model_summary_.nodes_pruned = stats.nodes_pruned;
      model_summary_.edges_before = stats.edges_before;
      model_summary_.edges_pruned = stats.edges_pruned;
    }
    return dag;
  }
  const PredicateCatalog* catalog() const override {
    return &subject_.catalog();
  }
  const SymbolTable* method_names() const override {
    return subject_.vm != nullptr ? &subject_.vm->program().method_names()
                                  : nullptr;
  }
  const SymbolTable* object_names() const override {
    return subject_.vm != nullptr ? &subject_.vm->program().object_names()
                                  : nullptr;
  }
  int sd_predicate_count() const override { return sd_count_; }
  std::vector<SuspiciousnessScore> sd_suspiciousness() const override {
    return sd_scores_;
  }
  AnalysisSummary analysis_summary() const override {
    return subject_.vm != nullptr ? subject_.vm->analysis_summary()
                                  : model_summary_;
  }

 private:
  SubjectSessionTarget() = default;

  /// The serial intervention backend: the remote fleet or the isolated
  /// child when one is configured, the in-process subject otherwise.
  ReplicableTarget* replicable_target() {
    if (isolated_ != nullptr) return isolated_.get();
    return subject_.target.get();
  }

  std::string name_;
  OpenedSubject subject_;
  /// Subprocess or fleet intervention backend; null when in process.
  std::unique_ptr<ReplicableTarget> isolated_;
  /// Shared with every substrate above that records into it; held so the
  /// bundle cannot die before the recording targets do.
  std::shared_ptr<Telemetry> telemetry_;
  /// Replica pool over replicable_target(); set iff parallelism > 1.
  /// Declared after the targets it borrows, so it dies first.
  std::unique_ptr<ParallelTarget> parallel_;
  /// Model subjects: the session's analysis options and what pruning did.
  AnalysisOptions analysis_;
  AnalysisSummary model_summary_;
  /// VM subjects: statistical debugging's fully-discriminative count and
  /// F1 ranking (adaptive-budget priors); -1 / empty for models.
  int sd_count_ = -1;
  std::vector<SuspiciousnessScore> sd_scores_;
};

/// Borrows an externally assembled InterventionTarget + AC-DAG.
class AdapterSessionTarget : public SessionTarget {
 public:
  AdapterSessionTarget(std::string name, InterventionTarget* target,
                       const AcDag* dag, const PredicateCatalog* catalog,
                       const SymbolTable* methods, const SymbolTable* objects)
      : name_(std::move(name)),
        target_(target),
        dag_(dag),
        catalog_(catalog),
        methods_(methods),
        objects_(objects) {}

  std::string_view name() const override { return name_; }
  InterventionTarget* intervention_target() override { return target_; }
  Result<AcDag> BuildAcDag() override { return *dag_; }
  const AcDag* prebuilt_dag() const override { return dag_; }
  const PredicateCatalog* catalog() const override { return catalog_; }
  const SymbolTable* method_names() const override { return methods_; }
  const SymbolTable* object_names() const override { return objects_; }

 private:
  std::string name_;
  InterventionTarget* target_;
  const AcDag* dag_;
  const PredicateCatalog* catalog_;
  const SymbolTable* methods_;
  const SymbolTable* objects_;
};

}  // namespace

Result<std::unique_ptr<SessionTarget>> MakeSessionTarget(
    const SubjectSpec& subject, const TargetConfig& config) {
  return SubjectSessionTarget::Create(subject, config);
}

std::unique_ptr<SessionTarget> MakeAdapterSessionTarget(
    InterventionTarget* target, const AcDag* dag,
    const PredicateCatalog* catalog, const SymbolTable* methods,
    const SymbolTable* objects, std::string name) {
  return std::make_unique<AdapterSessionTarget>(std::move(name), target, dag,
                                                catalog, methods, objects);
}

}  // namespace aid
