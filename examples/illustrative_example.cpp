// The paper's illustrative example (Section 5.2, Figure 4): an 11-predicate
// AC-DAG whose true causal path is P1 -> P2 -> P11 -> F. AID discovers the
// path in 8 interventions where naive one-at-a-time repair would need 11.
// The discovery runs through aid::Session over the "model" backend.
//
// Build & run:  ./build/examples/illustrative_example

#include <cstdio>

#include "api/session.h"
#include "synth/model.h"

using namespace aid;

int main() {
  // Reconstruct Figure 4(a): the temporal over-approximation.
  GroundTruthModel model;
  model.AddFailure();
  PredicateId p[12];
  for (int i = 1; i <= 11; ++i) p[i] = model.AddPredicate(i);
  auto edge = [&](int a, int b) { model.AddTemporalEdge(p[a], p[b]); };
  edge(1, 2);
  edge(2, 3);
  edge(3, 4);   // branch B1 = {P4, P5, P6}
  edge(4, 5);
  edge(5, 6);
  edge(3, 7);   // branch B2 = {P7, P8, P9, P11}
  edge(7, 8);
  edge(7, 9);
  edge(8, 11);
  edge(9, 11);
  edge(6, 10);  // P10 merges below both branches
  edge(8, 10);
  edge(9, 10);

  // Figure 4(b): the actual causal structure.
  model.SetCausalChain({p[1], p[2], p[11]});
  model.SetTrueParents(p[10], {p[3], p[11]});  // effect of P3 and P11
  // P3 and P7 are spontaneous co-occurring predicates (non-causal).

  auto session_or = SessionBuilder()
                        .WithModel(&model)
                        .WithEngine(EnginePreset::kAid)
                        .Build();
  if (!session_or.ok()) {
    std::fprintf(stderr, "%s\n", session_or.status().ToString().c_str());
    return 1;
  }
  Session& session = *session_or;
  auto report = session.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  const AcDag* dag = session.dag();

  std::printf("Figure 4 AC-DAG: %zu nodes; true causal path P1 -> P2 -> P11 "
              "-> F\n\n",
              dag->size());
  std::printf("topological levels:\n");
  const auto levels = dag->TopoLevels();
  for (size_t i = 0; i < levels.size(); ++i) {
    std::printf("  level %zu: ", i);
    for (PredicateId id : levels[i]) {
      if (id == model.failure()) {
        std::printf("F ");
      } else {
        std::printf("P%d ", model.catalog().Get(id).occurrence);
      }
    }
    std::printf("%s\n", levels[i].size() > 1 ? " <- junction" : "");
  }

  std::printf("\nintervention rounds (paper: steps 1-8):\n");
  for (size_t i = 0; i < report->discovery.history.size(); ++i) {
    const InterventionRound& round = report->discovery.history[i];
    std::printf("  %zu. [%-6s] {", i + 1, round.phase.c_str());
    for (size_t j = 0; j < round.intervened.size(); ++j) {
      std::printf("%sP%d", j ? ", " : "",
                  model.catalog().Get(round.intervened[j]).occurrence);
    }
    std::printf("} -> failure %s\n",
                round.failure_stopped ? "STOPPED" : "persists");
  }

  std::printf("\ndiscovered causal path: ");
  for (PredicateId id : report->discovery.causal_path) {
    if (id == model.failure()) {
      std::printf("F");
    } else {
      std::printf("P%d -> ", model.catalog().Get(id).occurrence);
    }
  }
  std::printf("\nrounds: %llu (paper: 8; naive: 11)\n",
              static_cast<unsigned long long>(report->discovery.rounds));
  return report->discovery.rounds <= 11 ? 0 : 1;
}
