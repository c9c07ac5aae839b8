// Checks the benchmark's own machinery: the correctness gate (a forged
// divergent report must trip it), span self-time accounting and the
// stratified session order.
// Prints one line per failed check and exits nonzero if any failed.

#include <cstdio>
#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "gate.h"
#include "order.h"
#include "spans.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAILED: %s\n", what);
    ++failures;
  }
}

aid::DiscoveryReport Reference() {
  aid::DiscoveryReport report;
  report.causal_path = {3, 7, 11};
  report.spurious = {1, 2};
  report.rounds = 9;
  report.executions = 72;
  report.speculative_executions = 0;
  return report;
}

void GateTests() {
  using perfbench::Judge;
  using perfbench::Verdict;
  const aid::DiscoveryReport reference = Reference();

  Check(Judge(reference, &reference, true) == Verdict::kOk,
        "identical report with the true root passes");
  Check(Judge(reference, &reference, false) == Verdict::kWrongRoot,
        "identical report with a wrong root counts as wrong, not diverged");

  aid::DiscoveryReport forged = reference;
  forged.executions += 1;
  Check(Judge(forged, &reference, true) == Verdict::kDiverged,
        "one extra execution trips the gate");
  forged = reference;
  forged.causal_path = {2, 7, 11};
  Check(Judge(forged, &reference, false) == Verdict::kDiverged,
        "a different causal path is a divergence even when the root is "
        "wrong");
  forged = reference;
  forged.speculative_executions = 4;
  Check(Judge(forged, &reference, true) == Verdict::kDiverged,
        "speculative executions are part of the outcome");
  forged = reference;
  forged.steals = 5;
  forged.respawns = 2;
  Check(Judge(forged, &reference, true) == Verdict::kOk,
        "dispatch and health counters are not part of the outcome");
}

void SpanTests() {
  using perfbench::SpanRecorder;
  Check(SpanRecorder::CoveredNs({{10, 20}, {15, 30}, {40, 50}}, 0, 100) ==
            30,
        "overlapping children are counted once");
  Check(SpanRecorder::CoveredNs({{5, 20}, {90, 120}}, 10, 100) == 20,
        "children are clipped to the parent");

  SpanRecorder recorder;
  const int root = recorder.Begin("session");
  const int child = recorder.Begin("exec.action");
  const int grandchild = recorder.Begin("runtime.trial");
  recorder.End(grandchild);
  recorder.End(child);
  recorder.End(root);
  const auto& spans = recorder.spans();
  Check(spans[child].parent == root && spans[grandchild].parent == child,
        "spans nest under the innermost open span");
  const int64_t root_ns = spans[root].end_ns - spans[root].start_ns;
  const int64_t child_ns = spans[child].end_ns - spans[child].start_ns;
  const int64_t grandchild_ns =
      spans[grandchild].end_ns - spans[grandchild].start_ns;
  std::map<std::string, perfbench::LayerTotals> totals;
  recorder.Fold(totals);
  Check(recorder.spans().empty(), "Fold drops the folded spans");
  Check(totals["session"].self_ns == root_ns - child_ns &&
            totals["exec.action"].self_ns == child_ns - grandchild_ns &&
            totals["runtime.trial"].self_ns == grandchild_ns,
        "self time is duration minus the children's cover");
  Check(totals["session"].self_ns + totals["exec.action"].self_ns +
                totals["runtime.trial"].self_ns ==
            root_ns,
        "self times add up to the root span");
}

void OrderTests() {
  using perfbench::StratifiedOrder;
  // 23 subjects whose cost is their index reversed; strata of 5 hold
  // {22..18}, {17..13}, {12..8}, {7..3}, {2, 1, 0}.
  std::vector<uint64_t> costs(23);
  for (size_t i = 0; i < costs.size(); ++i) costs[i] = 100 - i;
  const std::vector<size_t> order = StratifiedOrder(7, costs, 5, 3);
  Check(order.size() == 3 * costs.size(), "every pass visits every subject");
  bool permutations = true;
  bool rounds = true;
  for (size_t pass = 0; pass < 3; ++pass) {
    auto begin = order.begin() + pass * costs.size();
    std::vector<size_t> visited(begin, begin + costs.size());
    std::sort(visited.begin(), visited.end());
    for (size_t i = 0; i < visited.size(); ++i) {
      permutations = permutations && visited[i] == i;
    }
    // Rounds 0-2 visit all five strata, rounds 3-4 the four full ones.
    size_t at = pass * costs.size();
    for (size_t round = 0; round < 5; ++round) {
      const size_t width = round < 3 ? 5 : 4;
      std::set<size_t> strata;
      for (size_t k = 0; k < width; ++k) {
        strata.insert((22 - order[at + k]) / 5);
      }
      rounds = rounds && strata.size() == width;
      at += width;
    }
  }
  Check(permutations, "each pass is a permutation of the suite");
  Check(rounds, "each round visits one subject of every stratum");
  Check(StratifiedOrder(7, costs, 5, 3) == order, "the seed fixes the order");
  Check(StratifiedOrder(8, costs, 5, 3) != order,
        "another seed gives another order");
  const std::vector<size_t> plain = StratifiedOrder(7, costs, 1, 2);
  Check(plain.size() == 2 * costs.size() &&
            std::set<size_t>(plain.begin(), plain.begin() + 23).size() == 23,
        "stratum 1 is a plain shuffle per pass");
}

}  // namespace

int main() {
  GateTests();
  SpanTests();
  OrderTests();
  if (failures == 0) std::printf("perfbench_gate_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
