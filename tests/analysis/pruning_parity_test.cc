// Soundness of static AC-DAG pruning: for every shipped target -- all six
// case studies plus the fig7/fig8 synthetics -- a session with static
// analysis enabled must discover the bit-identical causal path while
// spending no more executions than the unpruned baseline. (Spurious sets
// may legitimately differ: pruning can drop whole dependence-disconnected
// nodes the baseline had to test and discard.)

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/session.h"
#include "casestudies/case_study.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

struct ParityResult {
  DiscoveryReport baseline;
  DiscoveryReport analyzed;
};

template <typename Configure>
ParityResult RunBothWays(Configure&& configure) {
  ParityResult result;
  SessionBuilder baseline_builder;
  configure(baseline_builder);
  auto baseline = baseline_builder.WithSeed(11).Build();
  EXPECT_TRUE(baseline.ok()) << baseline.status();
  auto baseline_report = baseline->Run();
  EXPECT_TRUE(baseline_report.ok()) << baseline_report.status();
  result.baseline = baseline_report->discovery;

  SessionBuilder analyzed_builder;
  configure(analyzed_builder);
  auto analyzed =
      analyzed_builder.WithSeed(11).WithStaticAnalysis().Build();
  EXPECT_TRUE(analyzed.ok()) << analyzed.status();
  auto analyzed_report = analyzed->Run();
  EXPECT_TRUE(analyzed_report.ok()) << analyzed_report.status();
  result.analyzed = analyzed_report->discovery;
  return result;
}

void ExpectParity(const ParityResult& result) {
  // The root cause and the whole causal path are bit-identical; pruning is
  // only allowed to make them cheaper to reach.
  EXPECT_EQ(result.analyzed.causal_path, result.baseline.causal_path);
  EXPECT_EQ(result.analyzed.root_cause(), result.baseline.root_cause());
  EXPECT_LE(result.analyzed.executions, result.baseline.executions);
  EXPECT_TRUE(result.analyzed.analysis.ran);
  EXPECT_FALSE(result.baseline.analysis.ran);
}

class CaseStudyParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CaseStudyParityTest, IdenticalRootCauseFewerExecutions) {
  const std::string& key = GetParam();
  const ParityResult result = RunBothWays(
      [&](SessionBuilder& b) { b.WithCaseStudy(key); });
  ExpectParity(result);
  // Case studies are real VM programs: the analyzer must find their
  // hand-written code clean.
  EXPECT_EQ(result.analyzed.analysis.lint_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllCaseStudies, CaseStudyParityTest,
                         ::testing::ValuesIn(CaseStudyKeys()),
                         [](const auto& info) { return info.param; });

TEST(SyntheticParityTest, GeneratedAppsAcrossSeeds) {
  for (const uint64_t seed : {1ull, 7ull, 23ull}) {
    SyntheticAppOptions options;
    options.max_threads = 12;
    options.seed = seed;
    auto model = GenerateSyntheticApp(options);
    ASSERT_TRUE(model.ok()) << model.status();

    const ParityResult result = RunBothWays(
        [&](SessionBuilder& b) { b.WithModel(model->get()); });
    ExpectParity(result);
  }
}

TEST(SyntheticParityTest, SymmetricModelPrunesJoinEdges) {
  // Figure 5(c): branch tails feed the merge head only temporally; the
  // generator deliberately declares no dependence channel for them, so a
  // multi-branch symmetric model must lose edges under pruning.
  auto model = MakeSymmetricModel(/*junctions=*/3, /*branches=*/3,
                                  /*chain_len=*/2, /*causal=*/4, /*seed=*/5);
  ASSERT_TRUE(model.ok()) << model.status();

  const ParityResult result = RunBothWays(
      [&](SessionBuilder& b) { b.WithModel(model->get()); });
  ExpectParity(result);
  EXPECT_GT(result.analyzed.analysis.edges_pruned, 0u);
  EXPECT_GT(result.analyzed.analysis.edges_before, 0u);
}

TEST(SyntheticParityTest, FlakyModelBackendHonorsAnalysis) {
  SyntheticAppOptions options;
  options.max_threads = 8;
  options.seed = 3;
  auto model = GenerateSyntheticApp(options);
  ASSERT_TRUE(model.ok()) << model.status();

  const ParityResult result = RunBothWays([&](SessionBuilder& b) {
    b.WithFlakyModel(model->get(), 0.9, /*seed=*/17);
  });
  ExpectParity(result);
}

TEST(SyntheticParityTest, AnalysisSummaryRoundsTripThroughReport) {
  auto model = MakeSymmetricModel(/*junctions=*/2, /*branches=*/2,
                                  /*chain_len=*/2, /*causal=*/3, /*seed=*/9);
  ASSERT_TRUE(model.ok()) << model.status();

  auto session = SessionBuilder()
                     .WithModel(model->get())
                     .WithStaticAnalysis()
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->discovery.analysis.ran);
  // Pruned counters never exceed their totals.
  EXPECT_LE(report->discovery.analysis.edges_pruned,
            report->discovery.analysis.edges_before);
  EXPECT_LE(report->discovery.analysis.nodes_pruned,
            report->discovery.analysis.nodes_before);
}

TEST(SyntheticParityTest, PruningDisabledLeavesDagUntouched) {
  auto model = MakeSymmetricModel(/*junctions=*/3, /*branches=*/3,
                                  /*chain_len=*/2, /*causal=*/4, /*seed=*/5);
  ASSERT_TRUE(model.ok()) << model.status();

  AnalysisOptions options;
  options.enabled = true;
  options.prune_edges = false;
  auto session = SessionBuilder()
                     .WithModel(model->get())
                     .WithSeed(11)
                     .WithStaticAnalysis(options)
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();

  auto baseline = SessionBuilder().WithModel(model->get()).WithSeed(11).Build();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  auto baseline_report = baseline->Run();
  ASSERT_TRUE(baseline_report.ok()) << baseline_report.status();

  // With pruning off the run is indistinguishable from the baseline.
  EXPECT_TRUE(SameDiscoveryOutcome(report->discovery,
                                   baseline_report->discovery));
  EXPECT_EQ(report->discovery.analysis.edges_pruned, 0u);
}

TEST(SyntheticParityTest, PrebuiltTargetRejectsSessionLevelAnalysis) {
  auto model = MakeSymmetricModel(/*junctions=*/2, /*branches=*/2,
                                  /*chain_len=*/2, /*causal=*/3, /*seed=*/9);
  ASSERT_TRUE(model.ok()) << model.status();
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model->get();
  auto prebuilt = MakeSessionTarget(spec);
  ASSERT_TRUE(prebuilt.ok()) << prebuilt.status();
  auto session = SessionBuilder()
                     .WithTarget(std::move(*prebuilt))
                     .WithStaticAnalysis()
                     .Build();
  ASSERT_FALSE(session.ok());
  EXPECT_NE(session.status().message().find("requires a subject target"),
            std::string::npos);
}

}  // namespace
}  // namespace aid
