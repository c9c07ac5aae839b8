// Session-level tests of the remote fleet: bit-identical reports between
// in-process and loopback-fleet runs at several worker counts, flaky and
// VM-program subjects across the wire, builder validation, and a runner
// killed mid-session degrading into crashed-trial accounting + failover
// instead of an engine failure; aid_service over the fleet ignoring a
// submitted spec's fault injection.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.h"
#include "core/engine.h"
#include "net/runner.h"
#include "service/client.h"
#include "service/service.h"
#include "runtime/program.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

#if AID_NET_SUPPORTED

class SessionFleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticAppOptions options;
    options.max_threads = 12;
    options.seed = 7;
    auto model = GenerateSyntheticApp(options);
    ASSERT_TRUE(model.ok()) << model.status();
    model_ = std::move(*model);
    for (int i = 0; i < 2; ++i) {
      auto runner = Runner::Start();
      ASSERT_TRUE(runner.ok()) << runner.status();
      fleet_.push_back((*runner)->endpoint().ToString());
      runners_.push_back(std::move(*runner));
    }
  }

  std::vector<std::string> Fleet() const { return fleet_; }

  std::unique_ptr<GroundTruthModel> model_;
  std::vector<std::unique_ptr<Runner>> runners_;
  std::vector<std::string> fleet_;
};

void ExpectSameDiscovery(const DiscoveryReport& a, const DiscoveryReport& b) {
  EXPECT_EQ(a.causal_path, b.causal_path);
  EXPECT_EQ(a.spurious, b.spurious);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.speculative_executions, b.speculative_executions);
}

TEST_F(SessionFleetTest, FleetReportsAreBitIdenticalToInProcessRuns) {
  for (int workers : {1, 2, 4}) {
    auto baseline = SessionBuilder()
                        .WithModel(model_.get())
                        .WithTrials(3)
                        .WithParallelism(workers)
                        .Build();
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    auto baseline_report = baseline->Run();
    ASSERT_TRUE(baseline_report.ok()) << baseline_report.status();

    auto fleet = SessionBuilder()
                     .WithModel(model_.get())
                     .WithTrials(3)
                     .WithParallelism(workers)
                     .WithRemoteFleet(Fleet(), /*trial_deadline_ms=*/20000)
                     .Build();
    ASSERT_TRUE(fleet.ok()) << fleet.status();
    auto fleet_report = fleet->Run();
    ASSERT_TRUE(fleet_report.ok()) << fleet_report.status();

    ExpectSameDiscovery(baseline_report->discovery, fleet_report->discovery);
    EXPECT_EQ(fleet_report->discovery.crashed_trials, 0);
    EXPECT_EQ(fleet_report->discovery.timed_out_trials, 0);
    EXPECT_EQ(fleet_report->discovery.respawns, 0);
  }
}

TEST_F(SessionFleetTest, FlakySubjectsStayDeterministicAcrossTheFleet) {
  auto baseline = SessionBuilder()
                      .WithFlakyModel(model_.get(), 0.7, /*seed=*/5)
                      .WithTrials(3)
                      .WithParallelism(2)
                      .Build();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  auto baseline_report = baseline->Run();
  ASSERT_TRUE(baseline_report.ok()) << baseline_report.status();

  auto fleet = SessionBuilder()
                   .WithFlakyModel(model_.get(), 0.7, /*seed=*/5)
                   .WithTrials(3)
                   .WithParallelism(2)
                   .WithRemoteFleet(Fleet(), /*trial_deadline_ms=*/20000)
                   .Build();
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  auto fleet_report = fleet->Run();
  ASSERT_TRUE(fleet_report.ok()) << fleet_report.status();

  ExpectSameDiscovery(baseline_report->discovery, fleet_report->discovery);
}

TEST_F(SessionFleetTest, VmProgramsShipWholeToTheRunners) {
  // A hand-built VM program with an intermittent atomicity bug (the
  // quickstart subject, condensed): the runner-side child deserializes it,
  // re-runs the observation scan, and must land on the identical predicate
  // catalog and discovery report.
  ProgramBuilder b;
  b.Global("version", 1);
  b.Global("checksum", 1);
  {
    auto m = b.Method("Main");
    m.Spawn(0, "Writer").Spawn(1, "Reader").Join(0).Join(1).Return();
  }
  {
    auto m = b.Method("Writer");
    m.Random(0, 2);
    const size_t late = m.JumpIfNonZeroPlaceholder(0);
    m.Delay(10);
    const size_t go = m.JumpPlaceholder();
    m.PatchTarget(late);
    m.Delay(70);
    m.PatchTarget(go);
    m.CallVoid("PublishConfig").Return();
  }
  {
    auto m = b.Method("PublishConfig");
    m.LoadConst(1, 2)
        .StoreGlobal("version", 1)
        .Delay(30)
        .StoreGlobal("checksum", 1)
        .Return();
  }
  {
    auto m = b.Method("Reader");
    m.Random(0, 2);
    const size_t late = m.JumpIfNonZeroPlaceholder(0);
    m.Delay(30);
    const size_t go = m.JumpPlaceholder();
    m.PatchTarget(late);
    m.Delay(85);
    m.PatchTarget(go);
    m.CallVoid("ValidateConfig").Return();
  }
  {
    auto m = b.Method("ValidateConfig");
    m.SideEffectFree();
    m.LoadGlobal(0, "version")
        .LoadGlobal(1, "checksum")
        .CmpEq(2, 0, 1)
        .ThrowIfZero(2, "ChecksumMismatch")
        .Return(2);
  }
  auto program = b.Build("Main");
  ASSERT_TRUE(program.ok()) << program.status();

  auto baseline = SessionBuilder().WithProgram(&*program).WithTrials(2).Build();
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  auto baseline_report = baseline->Run();
  ASSERT_TRUE(baseline_report.ok()) << baseline_report.status();

  auto fleet = SessionBuilder()
                   .WithProgram(&*program)
                   .WithTrials(2)
                   .WithRemoteFleet(Fleet(), /*trial_deadline_ms=*/60000)
                   .Build();
  ASSERT_TRUE(fleet.ok()) << fleet.status();
  auto fleet_report = fleet->Run();
  ASSERT_TRUE(fleet_report.ok()) << fleet_report.status();

  ExpectSameDiscovery(baseline_report->discovery, fleet_report->discovery);
}

/// Stops one runner daemon after the first finished round -- from the
/// engine's driving thread, so the loss lands mid-session,
/// deterministically.
class RunnerAssassin : public Observer {
 public:
  explicit RunnerAssassin(Runner* victim) : victim_(victim) {}
  void OnRoundFinished(const ObservedRound&) override {
    if (victim_ != nullptr) {
      victim_->Stop();
      victim_ = nullptr;
    }
  }

 private:
  Runner* victim_;
};

TEST_F(SessionFleetTest, KilledRunnerMidSessionDegradesInsteadOfFailing) {
  RunnerAssassin assassin(runners_[0].get());
  auto session = SessionBuilder()
                     .WithModel(model_.get())
                     .WithTrials(3)
                     .WithParallelism(2)
                     .WithRemoteFleet(Fleet(), /*trial_deadline_ms=*/20000)
                     .WithObserver(&assassin)
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();

  // The session completed; the turbulence is in the books. (Both replicas
  // may have lived on runner 0's connections at the moment it died, so we
  // only bound the counters from below.)
  EXPECT_GE(report->discovery.crashed_trials, 1);
  EXPECT_GE(report->discovery.respawns, 1);
  EXPECT_EQ(report->discovery.crashed_trials + report->discovery.timed_out_trials,
            report->discovery.respawns);
}

TEST_F(SessionFleetTest, BuilderRejectsFleetMisconfigurations) {
  // Empty endpoint list.
  auto empty = SessionBuilder()
                   .WithModel(model_.get())
                   .WithRemoteFleet({})
                   .Build();
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  // Unparseable endpoint.
  auto garbled = SessionBuilder()
                     .WithModel(model_.get())
                     .WithRemoteFleet({"not-an-endpoint"})
                     .Build();
  ASSERT_FALSE(garbled.ok());
  EXPECT_EQ(garbled.status().code(), StatusCode::kInvalidArgument);

  // Fleet and subprocess isolation are mutually exclusive.
  auto both = SessionBuilder()
                  .WithModel(model_.get())
                  .WithProcessIsolation(1000)
                  .WithRemoteFleet(Fleet())
                  .Build();
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(both.status().message().find("mutually exclusive"),
            std::string::npos);

  // Negative deadline.
  auto negative = SessionBuilder()
                      .WithModel(model_.get())
                      .WithRemoteFleet(Fleet(), -5)
                      .Build();
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);

  // Prebuilt targets cannot be shipped to runners.
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model_.get();
  auto prebuilt_target = MakeSessionTarget(spec);
  ASSERT_TRUE(prebuilt_target.ok());
  auto prebuilt = SessionBuilder()
                      .WithTarget(std::move(*prebuilt_target))
                      .WithRemoteFleet(Fleet())
                      .Build();
  ASSERT_FALSE(prebuilt.ok());
  EXPECT_EQ(prebuilt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(prebuilt.status().message().find("requires a subject target"),
            std::string::npos);
}

TEST_F(SessionFleetTest, InjectedFleetChaosSurfacesInTheSessionReport) {
  // Deterministic crash injection through the subject spec: the session
  // completes and the report carries the accounting.
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model_.get();
  spec.crash_period = 7;
  TargetConfig config;
  config.fleet = Fleet();
  config.remote.trial_deadline_ms = 20000;
  auto session = SessionBuilder()
                     .WithTarget(spec, std::move(config))
                     .WithTrials(3)
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GE(report->discovery.crashed_trials, 1);
  EXPECT_EQ(report->discovery.respawns, report->discovery.crashed_trials);
}

TEST_F(SessionFleetTest, ServiceDropsSubmittedFaultInjection) {
  // aid_service runs its fleet without a trial deadline, so a submitted
  // hang period would wedge the daemon's only worker for good. The daemon
  // clears the periods: the session finishes exactly like a clean run.
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model_.get();
  EngineOptions engine = EngineOptions::Aid();
  engine.trials_per_intervention = 3;
  auto solo_target = MakeSessionTarget(spec);
  ASSERT_TRUE(solo_target.ok()) << solo_target.status();
  auto dag = (*solo_target)->BuildAcDag();
  ASSERT_TRUE(dag.ok()) << dag.status();
  auto solo = CausalPathDiscovery(&*dag, (*solo_target)->intervention_target(),
                                  engine)
                  .Run();
  ASSERT_TRUE(solo.ok()) << solo.status();

  ServiceOptions options;
  options.workers = 1;
  options.fleet = Fleet();
  auto service = DiscoveryService::Start(options);
  ASSERT_TRUE(service.ok()) << service.status();
  auto client = ServiceClient::Connect((*service)->endpoint());
  ASSERT_TRUE(client.ok()) << client.status();
  ServiceSubmission submission;
  submission.label = "faulty";
  submission.spec = spec;
  submission.spec.hang_period = 1;
  submission.spec.crash_period = 1;
  submission.engine = engine;
  ASSERT_TRUE((*client)->Submit(submission).ok());
  auto outcome = (*client)->Await(/*timeout_ms=*/60000);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_FALSE(outcome->checkpointed);
  ExpectSameDiscovery(*solo, outcome->report);
  EXPECT_EQ(outcome->report.crashed_trials, 0);
  EXPECT_EQ(outcome->report.timed_out_trials, 0);
}

#else  // !AID_NET_SUPPORTED

TEST(SessionFleetTest, UnsupportedPlatformFailsBuildWithUnimplemented) {
  auto session = SessionBuilder()
                     .WithCaseStudy("kafka")
                     .WithRemoteFleet({"localhost:7601"})
                     .Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kUnimplemented);
}

#endif  // AID_NET_SUPPORTED

}  // namespace
}  // namespace aid
