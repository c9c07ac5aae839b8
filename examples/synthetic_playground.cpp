// Synthetic playground: generate a random multi-threaded application with a
// known root cause (the paper's Section 7.2 benchmark methodology) and
// watch all four engine variants debug it through one aid::Session.
//
// Usage: ./build/examples/synthetic_playground [max_threads] [seed]

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "api/session.h"
#include "synth/generator.h"
#include "synth/model.h"

using namespace aid;

int main(int argc, char** argv) {
  SyntheticAppOptions options;
  options.max_threads = argc > 1 ? std::max(2, std::atoi(argv[1])) : 12;
  options.seed = argc > 2 ? static_cast<uint64_t>(std::atoll(argv[2])) : 7;

  auto model_or = GenerateSyntheticApp(options);
  if (!model_or.ok()) {
    std::fprintf(stderr, "%s\n", model_or.status().ToString().c_str());
    return 1;
  }
  const GroundTruthModel& model = **model_or;

  std::printf("generated application: %zu predicates, %zu-predicate causal "
              "chain (MAXt=%d, seed=%llu)\n",
              model.size(), model.causal_chain().size(), options.max_threads,
              static_cast<unsigned long long>(options.seed));
  std::printf("ground-truth causal chain: ");
  for (PredicateId id : model.causal_chain()) {
    std::printf("P%d ", model.catalog().Get(id).occurrence);
  }
  std::printf("-> F\n\n");

  // One session over the model target; each preset runs on the shared
  // AC-DAG via Session::Run(EngineOptions).
  auto session_or = SessionBuilder().WithModel(&model).Build();
  if (!session_or.ok()) {
    std::fprintf(stderr, "%s\n", session_or.status().ToString().c_str());
    return 1;
  }
  Session& session = *session_or;

  std::vector<PredicateId> truth = model.causal_chain();
  truth.push_back(model.failure());
  std::sort(truth.begin(), truth.end());

  const EnginePreset kPresets[] = {
      EnginePreset::kAid,
      EnginePreset::kAidNoPredicatePruning,
      EnginePreset::kAidNoPruning,
      EnginePreset::kTagt,
  };

  bool printed_dag = false;
  for (EnginePreset preset : kPresets) {
    auto report = session.Run(MakeEngineOptions(preset));
    if (!report.ok()) {
      std::fprintf(stderr, "%s: %s\n",
                   std::string(EnginePresetName(preset)).c_str(),
                   report.status().ToString().c_str());
      return 1;
    }
    if (!printed_dag) {
      int junctions = 0;
      for (const auto& level : session.dag()->TopoLevels()) {
        if (level.size() > 1) ++junctions;
      }
      std::printf("AC-DAG: %d nodes, %d junction levels\n\n",
                  report->acdag_nodes, junctions);
      printed_dag = true;
    }
    std::vector<PredicateId> got = report->discovery.causal_path;
    std::sort(got.begin(), got.end());
    std::printf("%-32s %3llu rounds, %3llu executions -> %s\n",
                std::string(EnginePresetName(preset)).c_str(),
                static_cast<unsigned long long>(report->discovery.rounds),
                (unsigned long long)report->discovery.executions,
                got == truth ? "exact causal path" : "MISMATCH");
  }

  std::printf("\n(naive one-at-a-time repair would need %zu executions)\n",
              model.size());
  return 0;
}
