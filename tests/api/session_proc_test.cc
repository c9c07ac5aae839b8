// Tests of process isolation through the public aid::Session facade:
// WithProcessIsolation wiring for the built-in backends, bit-identical
// reports vs. in-process dispatch at every worker count, crash/hang
// subjects completing discovery with their counters surfaced in
// DiscoveryReport, and the builder/MakeSessionTarget validation contract.
//
// Subprocess cases skip gracefully on platforms without fork/exec.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "proc/wire.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

#define SKIP_WITHOUT_FORK()                                            \
  do {                                                                 \
    if (!SubprocessIsolationSupported()) {                             \
      GTEST_SKIP() << "no fork/exec on this platform";                 \
    }                                                                  \
  } while (false)

std::unique_ptr<GroundTruthModel> MakeModel(uint64_t seed = 7,
                                            int max_threads = 12) {
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
  EXPECT_EQ(a.path_is_chain, b.path_is_chain);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].intervened, b.history[i].intervened);
    EXPECT_EQ(a.history[i].failure_stopped, b.history[i].failure_stopped);
    EXPECT_EQ(a.history[i].phase, b.history[i].phase);
  }
}

SessionReport RunModelSession(const GroundTruthModel* model, bool isolated,
                              int parallelism) {
  SessionBuilder builder;
  builder.WithModel(model).WithTrials(2).WithParallelism(parallelism);
  if (isolated) builder.WithProcessIsolation(/*trial_deadline_ms=*/10000);
  auto session = builder.Build();
  EXPECT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  EXPECT_TRUE(report.ok()) << report.status();
  return std::move(*report);
}

// --- acceptance: bit-identical reports at any worker count ----------------

TEST(SessionProcTest, ModelReportBitIdenticalToInProcessAtAnyWorkerCount) {
  SKIP_WITHOUT_FORK();
  auto model = MakeModel();
  for (int workers : {1, 2, 4}) {
    SessionReport in_process = RunModelSession(model.get(), false, workers);
    SessionReport isolated = RunModelSession(model.get(), true, workers);
    ExpectSameDiscovery(isolated.discovery, in_process.discovery);
    EXPECT_EQ(isolated.root_cause, in_process.root_cause);
    EXPECT_EQ(isolated.causal_path, in_process.causal_path);
    EXPECT_EQ(isolated.discovery.respawns, 0);
    EXPECT_EQ(isolated.discovery.crashed_trials, 0);
    EXPECT_EQ(isolated.discovery.timed_out_trials, 0);
  }
}

TEST(SessionProcTest, FlakySubjectBitIdenticalAcrossWorkerCounts) {
  SKIP_WITHOUT_FORK();
  auto model = MakeModel(21);
  auto run = [&](int parallelism) {
    SessionBuilder builder;
    builder.WithFlakyModel(model.get(), 0.7, /*seed=*/5)
        .WithTrials(3)
        .WithParallelism(parallelism)
        .WithProcessIsolation();
    auto session = builder.Build();
    EXPECT_TRUE(session.ok()) << session.status();
    auto report = session->Run();
    EXPECT_TRUE(report.ok()) << report.status();
    return std::move(*report);
  };
  SessionReport one = run(1);
  SessionReport four = run(4);
  // Same dispatch mode on both sides (parallelism > 1 implies batching), so
  // compare against the batched 1-worker run.
  SessionBuilder builder;
  builder.WithFlakyModel(model.get(), 0.7, 5)
      .WithTrials(3)
      .WithBatchedDispatch(true)
      .WithProcessIsolation();
  auto batched_session = builder.Build();
  ASSERT_TRUE(batched_session.ok());
  auto batched = batched_session->Run();
  ASSERT_TRUE(batched.ok());
  ExpectSameDiscovery(four.discovery, batched->discovery);
  EXPECT_TRUE(one.has_root_cause());
  EXPECT_TRUE(four.has_root_cause());
}

// --- acceptance: crashing and hanging subjects complete discovery ---------

TEST(SessionProcTest, CrashySubjectCompletesDiscoveryWithCountsSurfaced) {
  SKIP_WITHOUT_FORK();
  auto model = MakeModel(33);
  SubjectSpec spec;
  spec.kind = SubjectKind::kFlakyModel;
  spec.model = model.get();
  spec.manifest_probability = 0.8;
  spec.flaky_seed = 9;
  spec.crash_period = 7;
  TargetConfig config;
  config.isolation = Isolation::kSubprocess;
  config.subprocess.trial_deadline_ms = 10000;

  SessionBuilder builder;
  builder.WithTarget(spec, config).WithTrials(3);
  auto session = builder.Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();

  // The subject crashed repeatedly, discovery still completed, and the
  // report says exactly how rough the ride was.
  EXPECT_GT(report->discovery.crashed_trials, 0);
  EXPECT_EQ(report->discovery.respawns, report->discovery.crashed_trials);
  EXPECT_EQ(report->discovery.timed_out_trials, 0);
  EXPECT_GT(report->discovery.rounds, 0);

  // The rendered report surfaces the counters.
  const std::string rendered = session->Render(*report);
  EXPECT_NE(rendered.find("crashed trials"), std::string::npos);
  EXPECT_NE(rendered.find("respawns"), std::string::npos);
}

TEST(SessionProcTest, CrashySubjectReportIdenticalAcrossWorkerCounts) {
  SKIP_WITHOUT_FORK();
  auto model = MakeModel(33);
  auto run = [&](int parallelism) {
    SubjectSpec spec = ModelSpec(model.get());
    spec.crash_period = 11;
    TargetConfig config;
    config.isolation = Isolation::kSubprocess;
    config.parallelism = parallelism;
    SessionBuilder builder;
    builder.WithTarget(spec, config).WithTrials(2);
    if (parallelism > 1) builder.WithParallelism(parallelism);
    auto session = builder.Build();
    EXPECT_TRUE(session.ok()) << session.status();
    auto report = session->Run();
    EXPECT_TRUE(report.ok()) << report.status();
    return std::move(*report);
  };
  // Crash injection keys off the positional trial index, so worker count
  // must not change anything -- including which trials crashed.
  SessionReport two = run(2);
  SessionReport four = run(4);
  ExpectSameDiscovery(two.discovery, four.discovery);
  EXPECT_EQ(two.discovery.crashed_trials, four.discovery.crashed_trials);
  EXPECT_GT(two.discovery.crashed_trials, 0);
}

TEST(SessionProcTest, HangingSubjectCompletesDiscoveryViaDeadline) {
  SKIP_WITHOUT_FORK();
  auto model = MakeModel(17, /*max_threads=*/8);
  SubjectSpec spec = ModelSpec(model.get());
  spec.hang_period = 6;
  TargetConfig config;
  config.isolation = Isolation::kSubprocess;
  config.subprocess.trial_deadline_ms = 300;

  SessionBuilder builder;
  builder.WithTarget(spec, config).WithTrials(2);
  auto session = builder.Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_GT(report->discovery.timed_out_trials, 0);
  EXPECT_EQ(report->discovery.respawns, report->discovery.timed_out_trials);
  EXPECT_EQ(report->discovery.crashed_trials, 0);
  const std::string rendered = session->Render(*report);
  EXPECT_NE(rendered.find("timed-out trials"), std::string::npos);
}

// --- builder / target validation ------------------------------------------

TEST(SessionProcTest, NegativeDeadlineIsRejected) {
  auto model = MakeModel();
  SessionBuilder builder;
  builder.WithModel(model.get()).WithProcessIsolation(-5);
  auto session = builder.Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(session.status().message().find("deadline"), std::string::npos);
}

TEST(SessionProcTest, PrebuiltTargetsCannotBeIsolated) {
  auto model = MakeModel();
  auto target = MakeSessionTarget(ModelSpec(model.get()));
  ASSERT_TRUE(target.ok());
  SessionBuilder builder;
  builder.WithTarget(std::move(*target)).WithProcessIsolation();
  auto session = builder.Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(session.status().message().find("requires a subject target"),
            std::string::npos);
}

TEST(SessionProcTest, CaseStudySessionRunsIsolated) {
  SKIP_WITHOUT_FORK();
  // End-to-end over a real VM subject: the child re-runs the observation
  // scan and must land on the identical catalog (handshake cross-check).
  auto run = [&](bool isolated) {
    SessionBuilder builder;
    builder.WithCaseStudy("npgsql").WithTrials(1);
    if (isolated) builder.WithProcessIsolation(/*trial_deadline_ms=*/60000);
    auto session = builder.Build();
    EXPECT_TRUE(session.ok()) << session.status();
    auto report = session->Run();
    EXPECT_TRUE(report.ok()) << report.status();
    return std::move(*report);
  };
  SessionReport in_process = run(false);
  SessionReport isolated = run(true);
  ExpectSameDiscovery(isolated.discovery, in_process.discovery);
  EXPECT_EQ(isolated.root_cause, in_process.root_cause);
  EXPECT_TRUE(isolated.has_root_cause());
}

}  // namespace
}  // namespace aid
