// Walkthrough of the paper's running example (Example 1, Section 7.1.1,
// Figure 9): the Npgsql #2485 data race.
//
// Prints every pipeline stage the paper illustrates:
//   Figure 9(b): execution traces of a successful and a failed run
//   Figure 9(c): extracted predicates with precision/recall
//   Section 4:   the AC-DAG (also emitted as Graphviz)
//   Section 5:   the intervention rounds and the final causal path
//
// Build & run:  ./build/examples/npgsql_race

#include <cstdio>

#include "api/session.h"
#include "casestudies/case_study.h"
#include "core/vm_target.h"
#include "runtime/vm.h"
#include "sd/statistical_debugger.h"
#include "trace/serialize.h"

using namespace aid;

int main() {
  auto study_or = MakeNpgsqlRace();
  if (!study_or.ok()) {
    std::fprintf(stderr, "%s\n", study_or.status().ToString().c_str());
    return 1;
  }
  const CaseStudy& study = *study_or;
  const Program& program = study.program;
  const TraceSymbols symbols{&program.method_names(), &program.object_names(),
                             &program.exception_names()};

  std::printf("== %s (%s) ==\n\n", study.name.c_str(), study.origin.c_str());
  std::printf("developer explanation: %s\n\n", study.root_cause.c_str());

  // --- Figure 9(b): one successful and one failed trace -------------------
  Vm vm(&program);
  bool shown_success = false;
  bool shown_failure = false;
  for (uint64_t seed = 1; seed < 200 && !(shown_success && shown_failure);
       ++seed) {
    VmOptions options;
    options.seed = seed;
    auto trace = vm.Run(options);
    if (!trace.ok()) continue;
    if (trace->failed() && !shown_failure) {
      std::printf("--- failed execution (seed %llu) ---\n%s\n",
                  static_cast<unsigned long long>(seed),
                  TraceToTsv(*trace, symbols).c_str());
      shown_failure = true;
    } else if (!trace->failed() && !shown_success) {
      std::printf("--- successful execution (seed %llu) ---\n%s\n",
                  static_cast<unsigned long long>(seed),
                  TraceToTsv(*trace, symbols).c_str());
      shown_success = true;
    }
  }

  // --- observation + Figure 9(c): predicates with precision/recall --------
  auto target_or = VmTarget::Create(&program, study.target_options);
  if (!target_or.ok()) {
    std::fprintf(stderr, "%s\n", target_or.status().ToString().c_str());
    return 1;
  }
  VmTarget& target = **target_or;
  auto sd_or = StatisticalDebugger::Analyze(target.extractor().catalog(),
                                            target.extractor().logs());
  if (!sd_or.ok()) {
    std::fprintf(stderr, "%s\n", sd_or.status().ToString().c_str());
    return 1;
  }
  std::printf("--- statistical debugging (top predicates by F1) ---\n");
  std::printf("%-62s %9s %7s\n", "predicate", "precision", "recall");
  int shown = 0;
  for (const RankedPredicate& ranked : sd_or->Ranked(0.5)) {
    if (++shown > 12) break;
    std::printf("%-62s %8.0f%% %6.0f%%\n",
                target.extractor()
                    .catalog()
                    .Describe(ranked.id, &program.method_names(),
                              &program.object_names())
                    .c_str(),
                100 * ranked.stats.precision(), 100 * ranked.stats.recall());
  }
  std::printf("fully discriminative: %zu predicates\n\n",
              sd_or->FullyDiscriminative().size());

  // --- Section 4: the AC-DAG ----------------------------------------------
  auto dag_or = target.BuildAcDag();
  if (!dag_or.ok()) {
    std::fprintf(stderr, "%s\n", dag_or.status().ToString().c_str());
    return 1;
  }
  std::printf("--- AC-DAG (%zu nodes; Graphviz) ---\n%s\n", dag_or->size(),
              dag_or->ToDot(&program.method_names(), &program.object_names())
                  .c_str());

  // --- Section 5: interventions, driven through aid::Session over the
  // hand-assembled target (MakeAdapterSessionTarget borrows the VmTarget
  // and the AC-DAG built above; no re-observation happens) ----------------
  auto session_or =
      SessionBuilder()
          .WithTarget(MakeAdapterSessionTarget(
              &target, &*dag_or, &target.extractor().catalog(),
              &program.method_names(), &program.object_names(), "npgsql"))
          .WithEngine(EnginePreset::kAid)
          .WithTrials(3)
          .Build();
  if (!session_or.ok()) {
    std::fprintf(stderr, "%s\n", session_or.status().ToString().c_str());
    return 1;
  }
  auto session_report_or = session_or->Run();
  if (!session_report_or.ok()) {
    std::fprintf(stderr, "%s\n",
                 session_report_or.status().ToString().c_str());
    return 1;
  }
  const DiscoveryReport* report_or = &session_report_or->discovery;
  std::printf("--- intervention rounds ---\n");
  for (size_t i = 0; i < report_or->history.size(); ++i) {
    const InterventionRound& round = report_or->history[i];
    std::printf("%2zu. [%s] intervene on {", i + 1, round.phase.c_str());
    for (size_t j = 0; j < round.intervened.size(); ++j) {
      std::printf("%s%s", j ? "; " : "",
                  target.extractor()
                      .catalog()
                      .Describe(round.intervened[j], &program.method_names(),
                                &program.object_names())
                      .c_str());
    }
    std::printf("} -> failure %s\n",
                round.failure_stopped ? "STOPPED" : "persists");
  }

  std::printf("\n--- causal explanation (paper: race -> out-of-bounds access "
              "-> exception -> crash) ---\n");
  for (size_t i = 0; i < report_or->causal_path.size(); ++i) {
    std::printf("  %zu. %s\n", i + 1,
                target.extractor()
                    .catalog()
                    .Describe(report_or->causal_path[i],
                              &program.method_names(),
                              &program.object_names())
                    .c_str());
  }
  std::printf("\nAID used %llu intervention rounds (%llu re-executions); the "
              "paper reports 5 rounds vs 11 worst-case for TAGT.\n",
              static_cast<unsigned long long>(report_or->rounds),
              (unsigned long long)report_or->executions);
  return 0;
}
