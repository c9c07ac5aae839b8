// Tests of parallel execution through the public aid::Session facade:
// WithParallelism wiring for every built-in backend kind, determinism of
// the resulting reports, the builder's validation contract, and serialized
// observer delivery under parallel dispatch.

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "exec/parallel_target.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

std::unique_ptr<GroundTruthModel> MakeModel(int max_threads = 12,
                                            uint64_t seed = 7) {
  SyntheticAppOptions options;
  options.max_threads = max_threads;
  options.seed = seed;
  auto model = GenerateSyntheticApp(options);
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(*model);
}

SubjectSpec ModelSpec(const GroundTruthModel* model) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model;
  return spec;
}

void ExpectSameDiscovery(const DiscoveryReport& a, const DiscoveryReport& b) {
  EXPECT_EQ(a.causal_path, b.causal_path);
  EXPECT_EQ(a.spurious, b.spurious);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.speculative_executions, b.speculative_executions);
}

// --- determinism across presets through the facade ------------------------

class SessionParallelPresetTest
    : public ::testing::TestWithParam<EnginePreset> {};

TEST_P(SessionParallelPresetTest, ParallelismFourMatchesSerial) {
  const EnginePreset preset = GetParam();
  std::unique_ptr<GroundTruthModel> model = MakeModel();

  auto run_with = [&](int parallelism) {
    SessionBuilder builder;
    builder.WithModel(model.get())
        .WithEngine(preset)
        .WithTrials(2)
        .WithParallelism(parallelism);
    auto session = builder.Build();
    EXPECT_TRUE(session.ok()) << session.status();
    auto report = session->Run();
    EXPECT_TRUE(report.ok()) << report.status();
    return std::move(*report);
  };

  SessionReport serial = run_with(1);
  SessionReport parallel = run_with(4);
  ExpectSameDiscovery(parallel.discovery, serial.discovery);

  std::vector<PredicateId> truth = model->causal_chain();
  truth.push_back(model->failure());
  EXPECT_EQ(parallel.discovery.causal_path, truth);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, SessionParallelPresetTest,
                         ::testing::Values(EnginePreset::kAid,
                                           EnginePreset::kAidNoPredicatePruning,
                                           EnginePreset::kAidNoPruning,
                                           EnginePreset::kTagt));

// --- per-backend wiring ---------------------------------------------------

TEST(SessionParallelTest, FlakyBackendIsBitIdenticalAcrossParallelism) {
  std::unique_ptr<GroundTruthModel> model = MakeModel(8, 13);
  auto run_with = [&](int parallelism) {
    SessionBuilder builder;
    builder.WithFlakyModel(model.get(), 0.8, /*seed=*/5)
        .WithTrials(10)
        .WithParallelism(parallelism);
    auto session = builder.Build();
    EXPECT_TRUE(session.ok()) << session.status();
    auto report = session->Run();
    EXPECT_TRUE(report.ok()) << report.status();
    return std::move(*report);
  };

  SessionReport serial = run_with(1);
  SessionReport parallel = run_with(4);
  ExpectSameDiscovery(parallel.discovery, serial.discovery);
  ASSERT_TRUE(parallel.has_root_cause());
  EXPECT_EQ(parallel.discovery.root_cause(), model->root_cause());
}

TEST(SessionParallelTest, CaseStudyBackendMatchesSerial) {
  auto run_with = [&](int parallelism) {
    SessionBuilder builder;
    builder.WithCaseStudy("kafka")
        .WithTrials(3)
        .WithParallelism(parallelism);
    auto session = builder.Build();
    EXPECT_TRUE(session.ok()) << session.status();
    auto report = session->Run();
    EXPECT_TRUE(report.ok()) << report.status();
    return std::move(*report);
  };

  SessionReport serial = run_with(1);
  SessionReport parallel = run_with(4);
  ExpectSameDiscovery(parallel.discovery, serial.discovery);
  EXPECT_TRUE(parallel.has_root_cause());
}

TEST(SessionParallelTest, LinearPresetReportsSpeculativeExecutions) {
  std::unique_ptr<GroundTruthModel> model = MakeModel();
  SessionBuilder builder;
  builder.WithModel(model.get())
      .WithEngine(EnginePreset::kLinear)
      .WithTrials(2)
      .WithParallelism(4);
  auto session = builder.Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  // parallelism > 1 implies batched linear-scan dispatch, so the pruning
  // wins of the serial scan turn into speculative executions.
  EXPECT_GT(report->discovery.speculative_executions, 0);
  EXPECT_EQ(report->discovery.executions,
            report->discovery.rounds * 2 +
                report->discovery.speculative_executions);
}

TEST(SessionParallelTest, FlakyLinearScanMatchesTheSerialBatchedBaseline) {
  // parallelism > 1 implies batched linear-scan dispatch, whose speculative
  // executions shift trial positions on flaky targets relative to an
  // unbatched scan. The documented apples-to-apples baseline is therefore a
  // serial run with batched dispatch on: against that, parallel reports are
  // bit-identical.
  std::unique_ptr<GroundTruthModel> model = MakeModel(8, 13);
  auto run_with = [&](int parallelism, bool batched) {
    SessionBuilder builder;
    builder.WithFlakyModel(model.get(), 0.6, /*seed=*/1)
        .WithEngine(EnginePreset::kLinear)
        .WithTrials(3)
        .WithBatchedDispatch(batched)
        .WithParallelism(parallelism);
    auto session = builder.Build();
    EXPECT_TRUE(session.ok()) << session.status();
    auto report = session->Run();
    EXPECT_TRUE(report.ok()) << report.status();
    return std::move(*report);
  };

  SessionReport serial_batched = run_with(1, /*batched=*/true);
  SessionReport parallel = run_with(4, /*batched=*/false);
  ExpectSameDiscovery(parallel.discovery, serial_batched.discovery);
}

// --- builder validation ---------------------------------------------------

TEST(SessionParallelTest, EngineOptionsParallelismBuildsTheSamePool) {
  // Parallelism carried in through WithEngineOptions must behave exactly
  // like WithParallelism: same replica pool, same report, same validation.
  std::unique_ptr<GroundTruthModel> model = MakeModel();
  EngineOptions options = MakeEngineOptions(EnginePreset::kLinear);
  options.trials_per_intervention = 2;
  options.parallelism = 4;

  SessionBuilder via_options;
  via_options.WithModel(model.get()).WithEngineOptions(options);
  auto session = via_options.Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();

  SessionBuilder via_builder;
  via_builder.WithModel(model.get())
      .WithEngine(EnginePreset::kLinear)
      .WithTrials(2)
      .WithParallelism(4);
  auto expected_session = via_builder.Build();
  ASSERT_TRUE(expected_session.ok()) << expected_session.status();
  auto expected = expected_session->Run();
  ASSERT_TRUE(expected.ok()) << expected.status();

  ExpectSameDiscovery(report->discovery, expected->discovery);

  // ... including the prebuilt-target rejection.
  auto target = MakeSessionTarget(ModelSpec(model.get()));
  ASSERT_TRUE(target.ok()) << target.status();
  SessionBuilder prebuilt;
  prebuilt.WithTarget(std::move(*target)).WithEngineOptions(options);
  EXPECT_EQ(prebuilt.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionParallelTest, RejectsNonPositiveParallelism) {
  std::unique_ptr<GroundTruthModel> model = MakeModel();
  for (int bogus : {0, -1, -1000}) {
    SessionBuilder builder;
    builder.WithModel(model.get()).WithParallelism(bogus);
    auto session = builder.Build();
    ASSERT_FALSE(session.ok()) << "parallelism " << bogus << " accepted";
    EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(session.status().message().find(std::to_string(bogus)),
              std::string::npos)
        << "error must name the offending value";
  }
}

TEST(SessionParallelTest, RejectsAbsurdParallelism) {
  std::unique_ptr<GroundTruthModel> model = MakeModel();
  for (int bogus : {kMaxParallelism + 1, 1 << 20}) {
    SessionBuilder builder;
    builder.WithModel(model.get()).WithParallelism(bogus);
    auto session = builder.Build();
    ASSERT_FALSE(session.ok()) << "parallelism " << bogus << " accepted";
    EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  }
  // The boundary itself is legal (if unwise on most machines).
  EXPECT_TRUE(ValidateParallelism(kMaxParallelism).ok());
}

TEST(SessionParallelTest, MakeSessionTargetValidatesConfigParallelism) {
  // TargetConfig::parallelism bypasses the builder; MakeSessionTarget must
  // reject bogus values too instead of silently degrading to serial
  // dispatch.
  std::unique_ptr<GroundTruthModel> model = MakeModel();
  for (int bogus : {0, -3, kMaxParallelism + 1}) {
    TargetConfig config;
    config.parallelism = bogus;
    auto target = MakeSessionTarget(ModelSpec(model.get()), config);
    ASSERT_FALSE(target.ok()) << "config parallelism " << bogus << " accepted";
    EXPECT_EQ(target.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SessionParallelTest, RejectsParallelismOnPrebuiltTargets) {
  std::unique_ptr<GroundTruthModel> model = MakeModel();
  auto target = MakeSessionTarget(ModelSpec(model.get()));
  ASSERT_TRUE(target.ok()) << target.status();
  SessionBuilder builder;
  builder.WithTarget(std::move(*target)).WithParallelism(4);
  auto session = builder.Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

// --- observer serialization under parallel dispatch -----------------------

TEST(SessionParallelTest, ObserverCallbacksStayOnTheDrivingThread) {
  class ThreadRecorder : public Observer {
   public:
    void OnPhaseChanged(SessionPhase) override { Record(); }
    void OnRoundStarted(uint64_t, const std::vector<PredicateId>&) override {
      Record();
    }
    void OnRoundFinished(const ObservedRound& round) override {
      Record();
      rounds.push_back(round.round);
    }
    void OnPredicateDecided(PredicateId, bool) override { Record(); }

    std::set<std::thread::id> threads;
    std::vector<uint64_t> rounds;

   private:
    void Record() { threads.insert(std::this_thread::get_id()); }
  };

  std::unique_ptr<GroundTruthModel> model = MakeModel();
  ThreadRecorder observer;
  SessionBuilder builder;
  builder.WithModel(model.get())
      .WithEngine(EnginePreset::kLinear)
      .WithParallelism(4)
      .WithObserver(&observer);
  auto session = builder.Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();

  // Every callback fired on the driving thread, in round order: the
  // parallelism stays behind the target boundary.
  ASSERT_EQ(observer.threads.size(), 1u);
  EXPECT_EQ(*observer.threads.begin(), std::this_thread::get_id());
  ASSERT_EQ(static_cast<int>(observer.rounds.size()),
            report->discovery.rounds);
  for (size_t i = 0; i < observer.rounds.size(); ++i) {
    EXPECT_EQ(observer.rounds[i], static_cast<int>(i) + 1);
  }
}

}  // namespace
}  // namespace aid
