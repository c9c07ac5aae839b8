#include "proc/subject_spec.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "runtime/program_io.h"
#include "synth/flaky_target.h"

namespace aid {
namespace {

// Version history:
//   1  initial format
//   2  model dependence edges; VmTargetOptions analysis flags
constexpr uint32_t kSpecFormatVersion = 2;

void SerializeVmTargetOptions(const VmTargetOptions& options,
                              WireWriter& writer) {
  writer.U64(options.first_seed);
  writer.I32(options.min_successes);
  writer.I32(options.min_failures);
  writer.I32(options.max_seed_scan);
  const ExtractionOptions& ex = options.extraction;
  writer.U8(ex.data_races ? 1 : 0);
  writer.U8(ex.atomicity_violations ? 1 : 0);
  writer.U8(ex.method_failures ? 1 : 0);
  writer.U8(ex.durations ? 1 : 0);
  writer.U8(ex.wrong_returns ? 1 : 0);
  writer.U8(ex.order_inversions ? 1 : 0);
  writer.U8(ex.return_equals ? 1 : 0);
  writer.I64(ex.duration_slack);
  writer.U8(ex.per_occurrence ? 1 : 0);
  writer.U64(options.vm.seed);
  writer.I64(options.vm.max_steps);
  writer.U8(options.vm.stop_on_failure ? 1 : 0);
  writer.U8(options.analysis.enabled ? 1 : 0);
  writer.U8(options.analysis.prune_edges ? 1 : 0);
  writer.U8(options.analysis.lint_programs ? 1 : 0);
  writer.U8(options.analysis.exclude_infeasible ? 1 : 0);
}

VmTargetOptions DeserializeVmTargetOptions(WireReader& reader) {
  VmTargetOptions options;
  options.first_seed = reader.U64();
  options.min_successes = reader.I32();
  options.min_failures = reader.I32();
  options.max_seed_scan = reader.I32();
  ExtractionOptions& ex = options.extraction;
  ex.data_races = reader.U8() != 0;
  ex.atomicity_violations = reader.U8() != 0;
  ex.method_failures = reader.U8() != 0;
  ex.durations = reader.U8() != 0;
  ex.wrong_returns = reader.U8() != 0;
  ex.order_inversions = reader.U8() != 0;
  ex.return_equals = reader.U8() != 0;
  ex.duration_slack = reader.I64();
  ex.per_occurrence = reader.U8() != 0;
  options.vm.seed = reader.U64();
  options.vm.max_steps = reader.I64();
  options.vm.stop_on_failure = reader.U8() != 0;
  options.analysis.enabled = reader.U8() != 0;
  options.analysis.prune_edges = reader.U8() != 0;
  options.analysis.lint_programs = reader.U8() != 0;
  options.analysis.exclude_infeasible = reader.U8() != 0;
  return options;
}

/// A hostile predicate id that escapes the catalog range would index out of
/// bounds in GroundTruthModel::Execute; every wire-received id is checked
/// here instead.
Status CheckModelId(const GroundTruthModel& model, PredicateId id,
                    const char* what) {
  if (id < 0 || static_cast<size_t>(id) >= model.catalog().size()) {
    return Status::InvalidArgument(
        "model decode: " + std::string(what) + " id " + std::to_string(id) +
        " outside the catalog range [0, " +
        std::to_string(model.catalog().size()) + ")");
  }
  return Status::OK();
}

}  // namespace

std::string_view SubjectKindName(SubjectKind kind) {
  switch (kind) {
    case SubjectKind::kModel: return "model";
    case SubjectKind::kFlakyModel: return "flaky-model";
    case SubjectKind::kCase: return "case";
    case SubjectKind::kVmProgram: return "vm-program";
  }
  return "unknown";
}

void SerializeModel(const GroundTruthModel& model, WireWriter& writer) {
  // Catalog reconstruction script: predicate ids are dense and assigned in
  // interning order, so emitting (id, display index) pairs in id order --
  // with the failure id marked -- lets the decoder replay AddPredicate /
  // AddFailure calls and land on the identical id space.
  writer.I32(model.failure());
  writer.U32(static_cast<uint32_t>(model.predicates().size()));
  for (PredicateId id : model.predicates()) {
    writer.I32(id);
    writer.I32(model.catalog().Get(id).occurrence);  // display index
  }

  // Chain before rules: the decoder replays SetCausalChain (which installs
  // the chain's default rules) and then the explicit rules, so any override
  // a generator applied after SetCausalChain wins on the replay too.
  writer.U32(static_cast<uint32_t>(model.causal_chain().size()));
  for (PredicateId id : model.causal_chain()) writer.I32(id);

  // True-cause rules, in id order for byte-stable encodings.
  std::vector<PredicateId> ruled;
  ruled.reserve(model.true_parents().size());
  for (const auto& [id, parents] : model.true_parents()) ruled.push_back(id);
  std::sort(ruled.begin(), ruled.end());
  writer.U32(static_cast<uint32_t>(ruled.size()));
  for (PredicateId id : ruled) {
    writer.I32(id);
    const auto& parents = model.true_parents().at(id);
    writer.U32(static_cast<uint32_t>(parents.size()));
    for (PredicateId parent : parents) writer.I32(parent);
  }

  // Temporal edges keep their exact order: AC-DAG construction consumes them
  // in sequence, and topological tie-breaking downstream is order-sensitive.
  writer.U32(static_cast<uint32_t>(model.temporal_edges().size()));
  for (const auto& [from, to] : model.temporal_edges()) {
    writer.I32(from);
    writer.I32(to);
  }

  // Dependence channels (format version 2): the static-analysis analog the
  // dependence-aware DAG pruning consumes.
  writer.U32(static_cast<uint32_t>(model.dependence_edges().size()));
  for (const auto& [from, to] : model.dependence_edges()) {
    writer.I32(from);
    writer.I32(to);
  }
}

Result<std::unique_ptr<GroundTruthModel>> DeserializeModel(WireReader& reader) {
  const PredicateId failure = reader.I32();
  // Each predicate entry is (id, display index): 8 bytes.
  const uint32_t pred_count = reader.Count(8);
  AID_RETURN_IF_ERROR(reader.status());

  struct PredEntry {
    PredicateId id;
    int index;
  };
  std::vector<PredEntry> entries;
  entries.reserve(pred_count);
  for (uint32_t i = 0; i < pred_count; ++i) {
    PredEntry entry;
    entry.id = reader.I32();
    entry.index = reader.I32();
    entries.push_back(entry);
  }
  AID_RETURN_IF_ERROR(reader.status());

  // Replay the interning script in id order so ids come out identical.
  auto model = std::make_unique<GroundTruthModel>();
  {
    std::vector<PredEntry> by_id = entries;
    std::sort(by_id.begin(), by_id.end(),
              [](const PredEntry& a, const PredEntry& b) { return a.id < b.id; });
    size_t next = 0;
    const size_t total = by_id.size() + (failure >= 0 ? 1 : 0);
    for (PredicateId id = 0; static_cast<size_t>(id) < total; ++id) {
      if (id == failure) {
        if (model->AddFailure() != id) {
          return Status::InvalidArgument(
              "model decode: failure id replay mismatch");
        }
        continue;
      }
      if (next >= by_id.size() || by_id[next].id != id) {
        return Status::InvalidArgument(
            "model decode: predicate ids are not dense");
      }
      if (model->AddPredicate(by_id[next].index) != id) {
        return Status::InvalidArgument(
            "model decode: predicate id replay mismatch (duplicate display "
            "index?)");
      }
      ++next;
    }
    if (next != by_id.size()) {
      return Status::InvalidArgument("model decode: predicate ids exceed the "
                                     "catalog range");
    }
  }

  const uint32_t chain_count = reader.Count(sizeof(PredicateId));
  AID_RETURN_IF_ERROR(reader.status());
  if (chain_count > 0) {
    if (failure < 0) {
      return Status::InvalidArgument(
          "model decode: a causal chain requires a failure predicate");
    }
    std::vector<PredicateId> chain;
    chain.reserve(chain_count);
    for (uint32_t i = 0; i < chain_count; ++i) chain.push_back(reader.I32());
    AID_RETURN_IF_ERROR(reader.status());
    for (PredicateId id : chain) {
      AID_RETURN_IF_ERROR(CheckModelId(*model, id, "causal chain"));
    }
    model->SetCausalChain(std::move(chain));
  }

  // Each rule is at least (id, parent count): 8 bytes.
  const uint32_t rule_count = reader.Count(8);
  AID_RETURN_IF_ERROR(reader.status());
  for (uint32_t i = 0; i < rule_count; ++i) {
    const PredicateId id = reader.I32();
    const uint32_t parent_count = reader.Count(sizeof(PredicateId));
    AID_RETURN_IF_ERROR(reader.status());
    std::vector<PredicateId> parents;
    parents.reserve(parent_count);
    for (uint32_t j = 0; j < parent_count; ++j) parents.push_back(reader.I32());
    AID_RETURN_IF_ERROR(reader.status());
    AID_RETURN_IF_ERROR(CheckModelId(*model, id, "true-cause rule"));
    for (PredicateId parent : parents) {
      AID_RETURN_IF_ERROR(CheckModelId(*model, parent, "true-cause parent"));
    }
    model->SetTrueParents(id, std::move(parents));
  }

  const uint32_t edge_count = reader.Count(2 * sizeof(PredicateId));
  AID_RETURN_IF_ERROR(reader.status());
  for (uint32_t i = 0; i < edge_count; ++i) {
    const PredicateId from = reader.I32();
    const PredicateId to = reader.I32();
    AID_RETURN_IF_ERROR(reader.status());
    AID_RETURN_IF_ERROR(CheckModelId(*model, from, "temporal edge"));
    AID_RETURN_IF_ERROR(CheckModelId(*model, to, "temporal edge"));
    model->AddTemporalEdge(from, to);
  }

  const uint32_t dep_count = reader.Count(2 * sizeof(PredicateId));
  AID_RETURN_IF_ERROR(reader.status());
  for (uint32_t i = 0; i < dep_count; ++i) {
    const PredicateId from = reader.I32();
    const PredicateId to = reader.I32();
    AID_RETURN_IF_ERROR(reader.status());
    AID_RETURN_IF_ERROR(CheckModelId(*model, from, "dependence edge"));
    AID_RETURN_IF_ERROR(CheckModelId(*model, to, "dependence edge"));
    model->AddDependenceEdge(from, to);
  }
  AID_RETURN_IF_ERROR(reader.status());
  return model;
}

Result<std::string> EncodeSubjectSpec(const SubjectSpec& spec) {
  WireWriter writer;
  writer.U32(kSpecFormatVersion);
  writer.U8(static_cast<uint8_t>(spec.kind));
  writer.U64(spec.crash_period);
  writer.U64(spec.hang_period);
  switch (spec.kind) {
    case SubjectKind::kModel:
    case SubjectKind::kFlakyModel:
      if (spec.model == nullptr) {
        return Status::InvalidArgument("subject spec: " +
                                       std::string(SubjectKindName(spec.kind)) +
                                       " requires a model");
      }
      writer.F64(spec.manifest_probability);
      writer.U64(spec.flaky_seed);
      SerializeModel(*spec.model, writer);
      break;
    case SubjectKind::kCase:
      if (spec.case_key.empty()) {
        return Status::InvalidArgument(
            "subject spec: case kind requires a case key");
      }
      writer.Str(spec.case_key);
      break;
    case SubjectKind::kVmProgram:
      if (spec.program == nullptr) {
        return Status::InvalidArgument(
            "subject spec: vm-program kind requires a program");
      }
      SerializeVmTargetOptions(spec.vm, writer);
      SerializeProgram(*spec.program, writer);
      break;
  }
  return writer.Release();
}

Result<OwnedSubjectSpec> DecodeSubjectSpec(std::string_view payload) {
  WireReader reader(payload);
  const uint32_t version = reader.U32();
  if (reader.ok() && version != kSpecFormatVersion) {
    return Status::InvalidArgument(
        "subject spec decode: unsupported format version " +
        std::to_string(version));
  }
  OwnedSubjectSpec owned;
  SubjectSpec& spec = owned.spec;
  spec.kind = static_cast<SubjectKind>(reader.U8());
  spec.crash_period = reader.U64();
  spec.hang_period = reader.U64();
  AID_RETURN_IF_ERROR(reader.status());
  switch (spec.kind) {
    case SubjectKind::kModel:
    case SubjectKind::kFlakyModel: {
      spec.manifest_probability = reader.F64();
      spec.flaky_seed = reader.U64();
      AID_ASSIGN_OR_RETURN(owned.model, DeserializeModel(reader));
      spec.model = owned.model.get();
      break;
    }
    case SubjectKind::kCase: {
      spec.case_key = reader.Str();
      break;
    }
    case SubjectKind::kVmProgram: {
      spec.vm = DeserializeVmTargetOptions(reader);
      AID_ASSIGN_OR_RETURN(Program program, DeserializeProgram(reader));
      owned.program = std::make_unique<Program>(std::move(program));
      spec.program = owned.program.get();
      break;
    }
    default:
      return Status::InvalidArgument(
          "subject spec decode: unknown subject kind " +
          std::to_string(static_cast<int>(spec.kind)));
  }
  AID_RETURN_IF_ERROR(reader.Finish());
  return owned;
}

namespace {

Result<OpenedSubject> OpenVm(const Program* program,
                             const VmTargetOptions& options,
                             OpenedSubject subject) {
  AID_ASSIGN_OR_RETURN(std::unique_ptr<VmTarget> target,
                       VmTarget::Create(program, options));
  subject.vm = target.get();
  subject.target = std::move(target);
  return subject;
}

}  // namespace

Result<OpenedSubject> OpenSubject(const SubjectSpec& spec,
                                  const AnalysisOptions& analysis) {
  OpenedSubject subject;
  switch (spec.kind) {
    case SubjectKind::kModel:
    case SubjectKind::kFlakyModel:
      if (spec.model == nullptr) {
        return Status::InvalidArgument(
            "model subject: SubjectSpec::model is required");
      }
      subject.model = spec.model;
      if (spec.kind == SubjectKind::kModel ||
          spec.manifest_probability >= 1.0) {
        subject.target = std::make_unique<ModelTarget>(spec.model);
      } else {
        subject.target = std::make_unique<FlakyModelTarget>(
            spec.model, spec.manifest_probability, spec.flaky_seed);
      }
      return subject;
    case SubjectKind::kCase: {
      AID_ASSIGN_OR_RETURN(CaseStudy study, MakeCaseStudyByKey(spec.case_key));
      subject.study = std::make_unique<CaseStudy>(std::move(study));
      VmTargetOptions options = subject.study->target_options;
      if (analysis.enabled) options.analysis = analysis;
      const Program* program = &subject.study->program;
      return OpenVm(program, options, std::move(subject));
    }
    case SubjectKind::kVmProgram: {
      if (spec.program == nullptr) {
        return Status::InvalidArgument(
            "vm subject: SubjectSpec::program is required");
      }
      VmTargetOptions options = spec.vm;
      if (analysis.enabled) options.analysis = analysis;
      return OpenVm(spec.program, options, std::move(subject));
    }
  }
  return Status::InvalidArgument("subject: unknown subject kind");
}

}  // namespace aid
