// SubjectSpec: the one description of a debuggable subject. A session
// opens it in process (OpenSubject) and, under process isolation or on a
// remote fleet, ships it to a sandboxed subject host (proc/subject_host)
// over the wire protocol, where OpenSubject builds the identical target.
//
// The spec covers every in-process intervention backend:
//
//   * kModel / kFlakyModel -- a ground-truth model, serialized at the
//     predicate level (catalog ids, true-cause rules, causal chain, temporal
//     edges) so the child's catalog is id-for-id identical to the parent's;
//   * kCase               -- one of the named case studies, reconstructed in
//     the child by key (the program is deterministic per key);
//   * kVmProgram          -- an arbitrary VM program, serialized through
//     runtime/program_io plus its VmTargetOptions, so even hand-built
//     subjects can run isolated.
//
// The spec also carries deterministic fault injection for exercising the
// isolation machinery itself: crash_period / hang_period make the *child
// process* abort or hang on trials whose global index hits the period.
// Because the trigger is the positional trial index, a crashy subject still
// yields identical discovery reports at any worker count.
//
// Parent-side specs borrow their model/program pointers; the decoded
// OwnedSubjectSpec owns them, which is what a freshly exec'd host needs.

#ifndef AID_PROC_SUBJECT_SPEC_H_
#define AID_PROC_SUBJECT_SPEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "casestudies/case_study.h"
#include "common/status.h"
#include "core/vm_target.h"
#include "exec/replicable.h"
#include "runtime/program.h"
#include "synth/model.h"
#include "trace/serialize.h"

namespace aid {

enum class SubjectKind : uint8_t {
  kModel = 0,
  kFlakyModel = 1,
  kCase = 2,
  kVmProgram = 3,
};

std::string_view SubjectKindName(SubjectKind kind);

struct SubjectSpec {
  SubjectKind kind = SubjectKind::kModel;

  /// kModel / kFlakyModel: borrowed; must outlive EncodeSubjectSpec and
  /// any target opened from the spec.
  const GroundTruthModel* model = nullptr;
  double manifest_probability = 1.0;
  uint64_t flaky_seed = 1;

  /// kCase: case-study key ("npgsql", "kafka", ...).
  std::string case_key;

  /// kVmProgram: borrowed, like `model`.
  const Program* program = nullptr;
  /// kVmProgram: the program's observation options. A case study brings
  /// its own.
  VmTargetOptions vm;

  /// Fault injection (0 = off): the child aborts / hangs forever before
  /// answering any trial whose 1-based global index is a multiple of the
  /// period. Positional, so deterministic across worker counts.
  uint64_t crash_period = 0;
  uint64_t hang_period = 0;
};

/// The decoded, fully owned form used inside the subject host and the
/// service: `spec` borrows the model / program held next to it.
struct OwnedSubjectSpec {
  SubjectSpec spec;
  std::unique_ptr<GroundTruthModel> model;
  std::unique_ptr<Program> program;
};

/// Serializes `spec` for the SPEC frame. Returns InvalidArgument when the
/// spec is self-inconsistent (e.g. kModel without a model pointer).
Result<std::string> EncodeSubjectSpec(const SubjectSpec& spec);

/// Decodes a SPEC payload into an owned spec. The reconstructed model's
/// predicate catalog assigns exactly the ids the parent's model did.
Result<OwnedSubjectSpec> DecodeSubjectSpec(std::string_view payload);

/// A subject opened in this process: the in-process intervention target a
/// SubjectSpec describes, next to whatever that target borrows.
struct OpenedSubject {
  /// kCase: the study that owns the program `target` runs. Declared before
  /// `target`, so it outlives it.
  std::unique_ptr<CaseStudy> study;
  /// ModelTarget, FlakyModelTarget or VmTarget (observation already run).
  std::unique_ptr<ReplicableTarget> target;
  /// VM subjects: `target` as a VmTarget. Null for models.
  const VmTarget* vm = nullptr;
  /// Model subjects: the spec's model. Null for VM subjects.
  const GroundTruthModel* model = nullptr;

  const PredicateCatalog& catalog() const {
    return vm != nullptr ? vm->extractor().catalog() : model->catalog();
  }
};

/// Builds the in-process target `spec` describes, running the backend's
/// observation phase (VM subjects scan seeds deterministically, so every
/// process that opens one spec gets the identical predicate catalog). A
/// flaky model that always manifests (p >= 1) runs as a ModelTarget.
/// Fault injection is ignored here: it only fires inside a subject host.
/// `analysis`, when enabled, replaces the VM subject's own analysis options
/// (spec.vm.analysis, or a case study's defaults); a session passes its
/// WithStaticAnalysis options here, a subject host passes none.
/// InvalidArgument for a model or program kind without its pointer,
/// NotFound for an unknown case-study key. The result borrows spec.model /
/// spec.program.
Result<OpenedSubject> OpenSubject(const SubjectSpec& spec,
                                  const AnalysisOptions& analysis = {});

/// Model codec, exposed for round-trip tests: the decoded model's catalog,
/// true-cause rules, chain, and temporal-edge order all match the input.
void SerializeModel(const GroundTruthModel& model, WireWriter& writer);
Result<std::unique_ptr<GroundTruthModel>> DeserializeModel(WireReader& reader);

}  // namespace aid

#endif  // AID_PROC_SUBJECT_SPEC_H_
