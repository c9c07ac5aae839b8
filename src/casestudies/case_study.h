// The paper's six real-world case studies (Section 7.1, Figure 7), rebuilt
// as VM programs whose failure mechanisms match the reported bugs:
//
//   Npgsql #2485          data race on an array-index variable ->
//                         IndexOutOfRange -> crash
//   Kafka #279            consumer disposed by the main thread while a slow
//                         child still commits -> use-after-free exception
//   Cosmos DB #713        transient-fault handling makes a task outlive the
//                         cache expiry -> cache miss -> crash
//   Network (propr.)      random id collision between two services
//   BuildAndTest (propr.) tests start before the artifact is published
//   HealthTelemetry       lost update on a metric counter corrupts a
//   (propr.)              multi-stage aggregation pipeline
//
// Each case records the paper's Figure 7 numbers so benchmarks can print
// paper-vs-measured side by side.

#ifndef AID_CASESTUDIES_CASE_STUDY_H_
#define AID_CASESTUDIES_CASE_STUDY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/vm_target.h"
#include "runtime/program.h"

namespace aid {

/// The paper's Figure 7 row for one case study.
struct PaperNumbers {
  int sd_predicates = 0;     ///< column 3: #discriminative preds (SD)
  int causal_path = 0;       ///< column 4: #preds in causal path
  int aid_interventions = 0; ///< column 5
  int tagt_interventions = 0;///< column 6 (worst case)
};

struct CaseStudy {
  std::string name;
  std::string origin;      ///< e.g. "Npgsql GitHub issue #2485"
  std::string root_cause;  ///< the developers' explanation
  PaperNumbers paper;
  Program program;
  VmTargetOptions target_options;
  /// Substring expected in the description of the discovered root cause
  /// (used by tests to pin the qualitative outcome).
  std::string expected_root_substring;
};

Result<CaseStudy> MakeNpgsqlRace();
Result<CaseStudy> MakeKafkaUseAfterFree();
Result<CaseStudy> MakeCosmosDbCacheExpiry();
Result<CaseStudy> MakeNetworkCollision();
Result<CaseStudy> MakeBuildAndTestOrder();
Result<CaseStudy> MakeHealthTelemetryRace();

/// All six, in the paper's Figure 7 order.
Result<std::vector<CaseStudy>> AllCaseStudies();

/// The canonical key -> factory mapping ("npgsql", "kafka", "cosmosdb",
/// "network", "buildandtest", "healthtelemetry"). OpenSubject resolves
/// every kCase SubjectSpec through this single registry, in a session and
/// in a subject host alike, so a study added here is reachable from every
/// execution mode at once. NotFound for unknown keys.
Result<CaseStudy> MakeCaseStudyByKey(const std::string& key);
/// The keys MakeCaseStudyByKey accepts, in Figure 7 order.
const std::vector<std::string>& CaseStudyKeys();

}  // namespace aid

#endif  // AID_CASESTUDIES_CASE_STUDY_H_
