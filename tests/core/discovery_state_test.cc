// Tests of the resumable round-state machine (core/discovery_state.h):
// step-driven execution must be bit-identical (SameDiscoveryOutcome) to the
// blocking CausalPathDiscovery::Run() on every engine preset, and a
// discovery checkpointed between actions -- mid-branch-prune, mid-GIWP, on
// all six case studies, and mid flaky budgeted run -- must resume on a
// fresh target to the exact report of the uninterrupted run.

#include "core/discovery_state.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/session_target.h"
#include "casestudies/case_study.h"
#include "core/engine.h"
#include "synth/flaky_target.h"
#include "synth/model.h"
#include "trace/serialize.h"

namespace aid {
namespace {

/// The paper's Figure 4 topology (same fixture as engine_test.cc): the
/// smallest model exercising both engine phases -- a junction for
/// Branch-Prune and a chain remainder for GIWP.
struct Figure4 {
  GroundTruthModel model;
  PredicateId p[12];

  Figure4() {
    model.AddFailure();
    for (int i = 1; i <= 11; ++i) p[i] = model.AddPredicate(i);
    auto edge = [&](int a, int b) { model.AddTemporalEdge(p[a], p[b]); };
    edge(1, 2);
    edge(2, 3);
    edge(3, 4);
    edge(4, 5);
    edge(5, 6);
    edge(3, 7);
    edge(7, 8);
    edge(7, 9);
    edge(8, 11);
    edge(9, 11);
    edge(6, 10);
    edge(8, 10);
    edge(9, 10);
    model.SetCausalChain({p[1], p[2], p[11]});
    model.SetTrueParents(p[10], {p[3], p[11]});
  }
};

/// Drives a state machine to completion against `target` -- the exact loop
/// CausalPathDiscovery::Run() is -- and finalizes the report.
Result<DiscoveryReport> DriveToEnd(DiscoveryState& state,
                                   InterventionTarget* target) {
  while (true) {
    AID_ASSIGN_OR_RETURN(DiscoveryAction action, state.NextAction());
    if (action.kind == DiscoveryAction::Kind::kDone) break;
    AID_ASSIGN_OR_RETURN(ActionOutcome outcome,
                         ExecuteDiscoveryAction(state, action, target));
    AID_RETURN_IF_ERROR(state.Feed(action, outcome));
  }
  return state.Finalize();
}

/// Full step-driven discovery from scratch.
Result<DiscoveryReport> StepDriven(const AcDag* dag,
                                   const EngineOptions& options,
                                   InterventionTarget* target) {
  AID_RETURN_IF_ERROR(ValidateDiscoveryOptions(options));
  DiscoveryState state(dag, options, Rng(options.seed));
  return DriveToEnd(state, target);
}

/// Runs `feeds` actions, checkpoints, resumes the checkpoint on
/// `resume_target`, and drives the resumed machine to its report. The
/// pre-checkpoint leg runs on `target`; `next_phase` (optional) receives
/// the phase the resumed machine plans next -- "branch" mid-Branch-Prune,
/// "giwp" mid-GIWP. `executions_at_checkpoint` (optional) receives the
/// resumed spend ledger, e.g. to SeekTrial a fresh positional target.
Result<DiscoveryReport> CheckpointAfter(
    const AcDag* dag, const EngineOptions& options, InterventionTarget* target,
    InterventionTarget* resume_target, int feeds,
    std::string* next_phase = nullptr,
    uint64_t* executions_at_checkpoint = nullptr,
    const std::function<void(uint64_t)>& position_resume_target = nullptr) {
  AID_RETURN_IF_ERROR(ValidateDiscoveryOptions(options));
  DiscoveryState state(dag, options, Rng(options.seed));
  for (int i = 0; i < feeds; ++i) {
    AID_ASSIGN_OR_RETURN(DiscoveryAction action, state.NextAction());
    if (action.kind == DiscoveryAction::Kind::kDone) break;
    AID_ASSIGN_OR_RETURN(ActionOutcome outcome,
                         ExecuteDiscoveryAction(state, action, target));
    AID_RETURN_IF_ERROR(state.Feed(action, outcome));
  }

  AID_ASSIGN_OR_RETURN(std::string blob, state.Serialize());
  AID_ASSIGN_OR_RETURN(
      std::unique_ptr<DiscoveryState> resumed,
      DiscoveryState::Deserialize(dag, blob, /*observer=*/nullptr,
                                  /*telemetry=*/nullptr));
  if (executions_at_checkpoint != nullptr) {
    *executions_at_checkpoint = resumed->executions();
  }
  if (position_resume_target) position_resume_target(resumed->executions());
  if (next_phase != nullptr) {
    AID_ASSIGN_OR_RETURN(DiscoveryAction peek, resumed->NextAction());
    *next_phase =
        peek.kind == DiscoveryAction::Kind::kDone ? "done" : peek.phase;
  }
  return DriveToEnd(*resumed, resume_target);
}

struct Preset {
  const char* name;
  EngineOptions options;
};

std::vector<Preset> AllPresets() {
  std::vector<Preset> presets;
  presets.push_back({"Aid", EngineOptions::Aid()});
  presets.push_back(
      {"AidNoPredicatePruning", EngineOptions::AidNoPredicatePruning()});
  presets.push_back({"AidNoPruning", EngineOptions::AidNoPruning()});
  presets.push_back({"Tagt", EngineOptions::Tagt()});
  presets.push_back({"Linear", EngineOptions::Linear()});

  EngineOptions batched = EngineOptions::Linear();
  batched.batched_dispatch = true;
  presets.push_back({"LinearBatched", batched});

  EngineOptions multi_trial = EngineOptions::Aid();
  multi_trial.trials_per_intervention = 3;
  presets.push_back({"AidThreeTrials", multi_trial});

  EngineOptions budgeted = EngineOptions::Aid();
  budgeted.trials_per_intervention = 3;
  budgeted.budget.enabled = true;
  presets.push_back({"AidBudgeted", budgeted});

  EngineOptions budgeted_batch = EngineOptions::Linear();
  budgeted_batch.batched_dispatch = true;
  budgeted_batch.trials_per_intervention = 3;
  budgeted_batch.budget.enabled = true;
  presets.push_back({"LinearBatchedBudgeted", budgeted_batch});
  return presets;
}

TEST(DiscoveryStateParityTest, StepDrivenMatchesRunOnEveryPreset) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  for (const Preset& preset : AllPresets()) {
    ModelTarget run_target(&fig.model);
    CausalPathDiscovery discovery(&*dag, &run_target, preset.options);
    auto blocking = discovery.Run();
    ASSERT_TRUE(blocking.ok()) << preset.name << ": " << blocking.status();

    ModelTarget step_target(&fig.model);
    auto stepped = StepDriven(&*dag, preset.options, &step_target);
    ASSERT_TRUE(stepped.ok()) << preset.name << ": " << stepped.status();

    EXPECT_TRUE(SameDiscoveryOutcome(*blocking, *stepped)) << preset.name;
    EXPECT_EQ(blocking->history.size(), stepped->history.size())
        << preset.name;
  }
}

TEST(DiscoveryStateParityTest, NextActionIsIdempotentUntilFed) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  DiscoveryState state(&*dag, EngineOptions::Aid(), Rng(1));
  auto first = state.NextAction();
  ASSERT_TRUE(first.ok());
  auto second = state.NextAction();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->kind, second->kind);
  EXPECT_EQ(first->preds, second->preds);
  EXPECT_EQ(first->trials, second->trials);
  EXPECT_STREQ(first->phase, second->phase);
}

TEST(DiscoveryStateCheckpointTest, SerializeWhileActionPendingIsRejected) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  DiscoveryState state(&*dag, EngineOptions::Aid(), Rng(1));
  auto action = state.NextAction();
  ASSERT_TRUE(action.ok());
  auto blob = state.Serialize();
  ASSERT_FALSE(blob.ok());
  EXPECT_EQ(blob.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DiscoveryStateCheckpointTest, RoundTripIsByteStable) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  ModelTarget target(&fig.model);
  DiscoveryState state(&*dag, EngineOptions::Aid(), Rng(1));
  for (int i = 0; i < 3; ++i) {
    auto action = state.NextAction();
    ASSERT_TRUE(action.ok());
    ASSERT_NE(action->kind, DiscoveryAction::Kind::kDone);
    auto outcome = ExecuteDiscoveryAction(state, *action, &target);
    ASSERT_TRUE(outcome.ok());
    ASSERT_TRUE(state.Feed(*action, *outcome).ok());
  }

  auto blob = state.Serialize();
  ASSERT_TRUE(blob.ok()) << blob.status();
  auto resumed = DiscoveryState::Deserialize(&*dag, *blob, nullptr, nullptr);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  auto reblob = (*resumed)->Serialize();
  ASSERT_TRUE(reblob.ok()) << reblob.status();
  EXPECT_EQ(*blob, *reblob);
}

TEST(DiscoveryStateCheckpointTest, DeserializeRejectsCorruptedBytes) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  DiscoveryState state(&*dag, EngineOptions::Aid(), Rng(1));
  auto blob = state.Serialize();
  ASSERT_TRUE(blob.ok()) << blob.status();

  // Unknown format version.
  std::string bad_version = *blob;
  bad_version[0] = static_cast<char>(0x7f);
  EXPECT_FALSE(DiscoveryState::Deserialize(&*dag, bad_version, nullptr,
                                           nullptr)
                   .ok());

  // Truncations anywhere must fail cleanly, never crash.
  for (size_t len : {size_t{0}, blob->size() / 4, blob->size() / 2,
                     blob->size() - 1}) {
    auto truncated = DiscoveryState::Deserialize(
        &*dag, std::string_view(blob->data(), len), nullptr, nullptr);
    EXPECT_FALSE(truncated.ok()) << "prefix of " << len << " bytes";
  }
}

TEST(DiscoveryStateCheckpointTest, EngineOptionsCodecRoundTrips) {
  EngineOptions options = EngineOptions::Tagt();
  options.linear_scan = true;
  options.batched_dispatch = true;
  options.trials_per_intervention = 7;
  options.parallelism = 4;
  options.seed = 0xfeedULL;
  options.budget.enabled = true;
  options.budget.error_tolerance = 0.05;
  options.budget.causal_prior = 0.4;
  options.budget.max_trials_per_round = 9;
  options.budget.max_executions = 1234;
  options.budget.flakiness_prior_alpha = 2.5;
  options.budget.flakiness_prior_beta = 1.5;
  options.budget.topology_discount = 0.75;
  options.budget.cost_ewma_alpha = 0.5;
  options.budget.advice.suspects = {3, 5};
  options.budget.advice.suspect_prior = 0.8;
  options.budget.advice.sd_scores = {{2, 0.25}, {4, 0.75}};
  options.budget.advice.sd_weight = 0.6;

  WireWriter writer;
  EncodeEngineOptions(options, writer);
  const std::string bytes = writer.Release();
  WireReader reader(bytes);
  auto decoded = DecodeEngineOptions(reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  EXPECT_EQ(decoded->topological_order, options.topological_order);
  EXPECT_EQ(decoded->predicate_pruning, options.predicate_pruning);
  EXPECT_EQ(decoded->branch_pruning, options.branch_pruning);
  EXPECT_EQ(decoded->linear_scan, options.linear_scan);
  EXPECT_EQ(decoded->batched_dispatch, options.batched_dispatch);
  EXPECT_EQ(decoded->trials_per_intervention,
            options.trials_per_intervention);
  EXPECT_EQ(decoded->parallelism, options.parallelism);
  EXPECT_EQ(decoded->seed, options.seed);
  EXPECT_EQ(decoded->budget.enabled, options.budget.enabled);
  EXPECT_EQ(decoded->budget.error_tolerance, options.budget.error_tolerance);
  EXPECT_EQ(decoded->budget.causal_prior, options.budget.causal_prior);
  EXPECT_EQ(decoded->budget.max_trials_per_round,
            options.budget.max_trials_per_round);
  EXPECT_EQ(decoded->budget.max_executions, options.budget.max_executions);
  EXPECT_EQ(decoded->budget.flakiness_prior_alpha,
            options.budget.flakiness_prior_alpha);
  EXPECT_EQ(decoded->budget.flakiness_prior_beta,
            options.budget.flakiness_prior_beta);
  EXPECT_EQ(decoded->budget.topology_discount,
            options.budget.topology_discount);
  EXPECT_EQ(decoded->budget.cost_ewma_alpha, options.budget.cost_ewma_alpha);
  EXPECT_EQ(decoded->budget.advice.suspects, options.budget.advice.suspects);
  EXPECT_EQ(decoded->budget.advice.suspect_prior,
            options.budget.advice.suspect_prior);
  ASSERT_EQ(decoded->budget.advice.sd_scores.size(), 2u);
  EXPECT_EQ(decoded->budget.advice.sd_scores[1].id, 4);
  EXPECT_EQ(decoded->budget.advice.sd_scores[1].score, 0.75);
  EXPECT_EQ(decoded->budget.advice.sd_weight, options.budget.advice.sd_weight);
  // The engine options must be the LAST thing decoded here.
  EXPECT_TRUE(reader.Finish().ok());
  // Process-local pointers never cross the wire.
  EXPECT_EQ(decoded->observer, nullptr);
  EXPECT_EQ(decoded->telemetry, nullptr);
}

TEST(DiscoveryStateCheckpointTest, EveryBoundaryResumesToTheSameReport) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());
  const EngineOptions options = EngineOptions::Aid();

  ModelTarget baseline_target(&fig.model);
  CausalPathDiscovery discovery(&*dag, &baseline_target, options);
  auto baseline = discovery.Run();
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->rounds, 8u);  // the Figure 4 walkthrough

  bool saw_branch = false;
  bool saw_giwp = false;
  for (uint64_t k = 0; k <= baseline->rounds; ++k) {
    ModelTarget pre(&fig.model);
    ModelTarget post(&fig.model);  // a "fresh host" for the resumed leg
    std::string next_phase;
    auto resumed = CheckpointAfter(&*dag, options, &pre, &post,
                                   static_cast<int>(k), &next_phase);
    ASSERT_TRUE(resumed.ok()) << "checkpoint after " << k << " rounds: "
                              << resumed.status();
    EXPECT_TRUE(SameDiscoveryOutcome(*baseline, *resumed))
        << "checkpoint after " << k << " rounds";
    if (next_phase == "branch") saw_branch = true;
    if (next_phase == "giwp") saw_giwp = true;
  }
  // Figure 4 has a junction, so the boundary sweep must have checkpointed
  // in the middle of BOTH phases.
  EXPECT_TRUE(saw_branch);
  EXPECT_TRUE(saw_giwp);
}

TEST(DiscoveryStateCheckpointTest, TagtAndBatchedBoundariesResumeToo) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  EngineOptions batched = EngineOptions::Linear();
  batched.batched_dispatch = true;
  for (const EngineOptions& options :
       {EngineOptions::Tagt(), batched}) {
    ModelTarget baseline_target(&fig.model);
    CausalPathDiscovery discovery(&*dag, &baseline_target, options);
    auto baseline = discovery.Run();
    ASSERT_TRUE(baseline.ok());

    for (int k : {1, 2, 3}) {
      ModelTarget pre(&fig.model);
      ModelTarget post(&fig.model);
      auto resumed = CheckpointAfter(&*dag, options, &pre, &post, k);
      ASSERT_TRUE(resumed.ok()) << resumed.status();
      EXPECT_TRUE(SameDiscoveryOutcome(*baseline, *resumed))
          << "linear_scan=" << options.linear_scan << " checkpoint " << k;
    }
  }
}

/// Checkpoint/resume across the six real-world case studies: the resumed
/// leg runs on a freshly built VM target -- the "another host rebuilt the
/// subject from its SubjectSpec" scenario the checkpoint format exists for.
class CaseStudyCheckpointTest : public ::testing::TestWithParam<int> {};

TEST_P(CaseStudyCheckpointTest, MidBranchAndMidGiwpResumeIdentically) {
  const std::string& key =
      CaseStudyKeys()[static_cast<size_t>(GetParam())];
  SubjectSpec spec;
  spec.kind = SubjectKind::kCase;
  spec.case_key = key;

  auto host_a = MakeSessionTarget(spec);
  ASSERT_TRUE(host_a.ok()) << host_a.status();
  auto dag = (*host_a)->BuildAcDag();
  ASSERT_TRUE(dag.ok()) << dag.status();

  EngineOptions options = EngineOptions::Aid();
  options.trials_per_intervention = 3;

  CausalPathDiscovery discovery(&*dag, (*host_a)->intervention_target(),
                                options);
  auto baseline = discovery.Run();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GE(baseline->rounds, 2u) << key;

  // Find one checkpoint boundary inside each phase by replaying the run
  // and peeking what the resumed machine would plan next.
  std::vector<int> boundaries;
  {
    int mid_branch = -1;
    int mid_giwp = -1;
    for (uint64_t k = 1; k < baseline->rounds; ++k) {
      auto fresh = MakeSessionTarget(spec);
      ASSERT_TRUE(fresh.ok());
      std::string next_phase;
      auto probe = CheckpointAfter(&*dag, options,
                                   (*host_a)->intervention_target(),
                                   (*fresh)->intervention_target(),
                                   static_cast<int>(k), &next_phase);
      ASSERT_TRUE(probe.ok()) << key << ": " << probe.status();
      EXPECT_TRUE(SameDiscoveryOutcome(*baseline, *probe))
          << key << " checkpoint " << k;
      if (next_phase == "branch" && mid_branch < 0) {
        mid_branch = static_cast<int>(k);
      }
      if (next_phase == "giwp" && mid_giwp < 0) mid_giwp = static_cast<int>(k);
      if (mid_branch >= 0 && mid_giwp >= 0) break;
    }
    // Every case study ends in a GIWP pass; a branch-phase boundary exists
    // only when the AC-DAG has a junction to prune.
    EXPECT_GE(mid_giwp, 1) << key;
    if (mid_branch >= 0) boundaries.push_back(mid_branch);
    if (mid_giwp >= 0) boundaries.push_back(mid_giwp);
  }
  ASSERT_FALSE(boundaries.empty()) << key;
}

INSTANTIATE_TEST_SUITE_P(AllSix, CaseStudyCheckpointTest,
                         ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return CaseStudyKeys()[static_cast<size_t>(
                               info.param)];
                         });

TEST(DiscoveryStateCheckpointTest, FlakyBudgetedRunResumesOnAFreshTarget) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  EngineOptions options = EngineOptions::Aid();
  options.trials_per_intervention = 5;
  options.budget.enabled = true;
  constexpr double kManifest = 0.7;
  constexpr uint64_t kFlakySeed = 77;

  FlakyModelTarget baseline_target(&fig.model, kManifest, kFlakySeed);
  CausalPathDiscovery discovery(&*dag, &baseline_target, options);
  auto baseline = discovery.Run();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_GT(baseline->rounds, 3u);

  for (int k : {1, 3}) {
    FlakyModelTarget pre(&fig.model, kManifest, kFlakySeed);
    // The resumed leg runs on a brand-new flaky target: positional
    // determinism (exec/replicable.h) means seeking it to the checkpoint's
    // execution ledger replays the exact manifestation coin flips the
    // uninterrupted run would have drawn.
    FlakyModelTarget post(&fig.model, kManifest, kFlakySeed);
    uint64_t spent = 0;
    auto resumed = CheckpointAfter(
        &*dag, options, &pre, &post, k, /*next_phase=*/nullptr, &spent,
        [&post](uint64_t executions) { post.SeekTrial(executions); });
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_GT(spent, 0u);
    EXPECT_TRUE(SameDiscoveryOutcome(*baseline, *resumed))
        << "checkpoint " << k;
    EXPECT_EQ(baseline->budgeted_trials_allocated,
              resumed->budgeted_trials_allocated)
        << "checkpoint " << k;
    EXPECT_EQ(baseline->budget_early_stops, resumed->budget_early_stops)
        << "checkpoint " << k;
  }
}

TEST(DiscoveryStateCheckpointTest, ExhaustedBudgetResumesWithConfidence) {
  Figure4 fig;
  auto dag = fig.model.BuildAcDag();
  ASSERT_TRUE(dag.ok());

  EngineOptions options = EngineOptions::Aid();
  options.trials_per_intervention = 3;
  options.budget.enabled = true;
  options.budget.max_executions = 6;  // runs out mid-discovery

  ModelTarget baseline_target(&fig.model);
  CausalPathDiscovery discovery(&*dag, &baseline_target, options);
  auto baseline = discovery.Run();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_TRUE(baseline->budget_exhausted);

  ModelTarget pre(&fig.model);
  ModelTarget post(&fig.model);
  auto resumed = CheckpointAfter(&*dag, options, &pre, &post, 2);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_TRUE(SameDiscoveryOutcome(*baseline, *resumed));
  EXPECT_TRUE(resumed->budget_exhausted);
  ASSERT_EQ(baseline->confidence.size(), resumed->confidence.size());
  for (size_t i = 0; i < baseline->confidence.size(); ++i) {
    EXPECT_EQ(baseline->confidence[i].id, resumed->confidence[i].id);
    EXPECT_DOUBLE_EQ(baseline->confidence[i].causal_posterior,
                     resumed->confidence[i].causal_posterior);
  }
}

}  // namespace
}  // namespace aid
