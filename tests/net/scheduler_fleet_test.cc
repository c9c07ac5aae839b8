// Heterogeneous-fleet tests of the latency-aware scheduler (exec/scheduler.h
// + net/latency.h): bit-identical reports with one runner 10x slower than
// the rest, latency-learned replica placement avoiding the slow runner,
// LatencyBoard unit behavior, the FleetTarget cursor-commit-on-success
// regression, and a slow runner killed mid-session degrading (not failing)
// under work stealing.

#include <chrono>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <cstdlib>

#include "api/session.h"
#include "common/strings.h"
#include "exec/parallel_target.h"
#include "net/fleet_target.h"
#include "net/latency.h"
#include "net/runner.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

// --- LatencyBoard units (platform-independent) ----------------------------

TEST(LatencyBoardTest, UnmeasuredEndpointsPlaceRoundRobin) {
  LatencyBoard board;
  const std::vector<Endpoint> fleet = {
      {"a", 1}, {"b", 2}, {"c", 3}};
  for (int i = 0; i < 6; ++i) board.PlaceReplica(fleet);
  // With no latency data the board must reproduce blind round-robin:
  // exploration balances placements exactly.
  EXPECT_EQ(board.placements(fleet[0]), 2u);
  EXPECT_EQ(board.placements(fleet[1]), 2u);
  EXPECT_EQ(board.placements(fleet[2]), 2u);
}

TEST(LatencyBoardTest, MeasuredPlacementAvoidsTheSlowEndpoint) {
  LatencyBoard board;
  const std::vector<Endpoint> fleet = {
      {"fast1", 1}, {"fast2", 2}, {"slow", 3}};
  board.RecordTrial(fleet[0], 100);
  board.RecordTrial(fleet[1], 100);
  board.RecordTrial(fleet[2], 1000);  // 10x slower
  for (int i = 0; i < 4; ++i) board.PlaceReplica(fleet);
  // Predicted per-replica latency (ewma x (placements + 1)) keeps every
  // placement off the slow endpoint until the fast ones are loaded ~10x.
  EXPECT_EQ(board.placements(fleet[2]), 0u);
  EXPECT_EQ(board.placements(fleet[0]) + board.placements(fleet[1]), 4u);
}

TEST(LatencyBoardTest, EwmaSmoothsSamples) {
  LatencyBoard board(/*ewma_alpha=*/0.25);
  const Endpoint endpoint{"a", 1};
  EXPECT_EQ(board.ewma_micros(endpoint), 0u);  // unmeasured sentinel
  board.RecordTrial(endpoint, 100);
  EXPECT_EQ(board.ewma_micros(endpoint), 100u);
  board.RecordTrial(endpoint, 300);
  EXPECT_EQ(board.ewma_micros(endpoint), 150u);  // 0.25*300 + 0.75*100
}

#if AID_NET_SUPPORTED

/// Two full-speed runners plus one 10x-slower runner (it charges an extra
/// delay per trial, modeling a loaded machine; loopback RPC is ~a few
/// hundred us, so a few ms of injected delay dominates cleanly).
///
/// The fleet is embedded by default. Set AID_TEST_FLEET to
/// "fast:port,fast:port,slow:port" (the THIRD endpoint must be the slow
/// runner, e.g. `aid_runner --slow-us 3000`) to drive external runner
/// processes instead -- that is how CI runs this suite under
/// ThreadSanitizer, whose runtime cannot survive the runner's
/// fork-without-exec session children in-process, while the engine-side
/// machinery under test (chunk queues, steals, EWMA atomics, the latency
/// board) stays fully instrumented.
class SchedulerFleetTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kSlowTrialDelayUs = 3000;

  void SetUp() override {
    SyntheticAppOptions options;
    options.max_threads = 12;
    options.seed = 7;
    auto model = GenerateSyntheticApp(options);
    ASSERT_TRUE(model.ok()) << model.status();
    model_ = std::move(*model);
    if (const char* external = std::getenv("AID_TEST_FLEET")) {
      fleet_ = Split(external, ',');
      ASSERT_EQ(fleet_.size(), 3u)
          << "AID_TEST_FLEET wants \"fast,fast,slow\" endpoints, got '"
          << external << "'";
      return;
    }
    for (int i = 0; i < 3; ++i) {
      RunnerOptions runner_options;
      if (i == 2) runner_options.trial_delay_us = kSlowTrialDelayUs;
      auto runner = Runner::Start(runner_options);
      ASSERT_TRUE(runner.ok()) << runner.status();
      fleet_.push_back((*runner)->endpoint().ToString());
      runners_.push_back(std::move(*runner));
    }
  }

  bool ExternalFleet() const { return runners_.empty(); }

  Endpoint SlowEndpoint() const {
    auto endpoint = ParseEndpoint(fleet_[2]);
    EXPECT_TRUE(endpoint.ok()) << endpoint.status();
    return *endpoint;
  }

  Endpoint FastEndpoint(int i) const {
    auto endpoint = ParseEndpoint(fleet_[static_cast<size_t>(i)]);
    EXPECT_TRUE(endpoint.ok()) << endpoint.status();
    return *endpoint;
  }

  std::unique_ptr<GroundTruthModel> model_;
  std::vector<std::unique_ptr<Runner>> runners_;
  std::vector<std::string> fleet_;
};

TEST_F(SchedulerFleetTest, HeterogeneousFleetReportsAreBitIdentical) {
  for (int workers : {2, 4}) {
    auto baseline = SessionBuilder()
                        .WithModel(model_.get())
                        .WithTrials(6)
                        .WithParallelism(workers)
                        .Build();
    ASSERT_TRUE(baseline.ok()) << baseline.status();
    auto baseline_report = baseline->Run();
    ASSERT_TRUE(baseline_report.ok()) << baseline_report.status();

    auto fleet = SessionBuilder()
                     .WithModel(model_.get())
                     .WithTrials(6)
                     .WithParallelism(workers)
                     .WithRemoteFleet(fleet_, /*trial_deadline_ms=*/20000)
                     .Build();
    ASSERT_TRUE(fleet.ok()) << fleet.status();
    auto fleet_report = fleet->Run();
    ASSERT_TRUE(fleet_report.ok()) << fleet_report.status();

    // THE contract: a straggling runner, fine-grained chunks, latency
    // learning, and stealing may move every trial around -- and not one
    // byte of the decisions.
    EXPECT_TRUE(SameDiscoveryOutcome(baseline_report->discovery,
                                     fleet_report->discovery));
    EXPECT_EQ(fleet_report->discovery.crashed_trials, 0u);
    EXPECT_EQ(fleet_report->discovery.timed_out_trials, 0u);
    // Dispatch accounting stays exact under heterogeneity.
    ASSERT_EQ(fleet_report->discovery.replica_trials.size(),
              static_cast<size_t>(workers));
    EXPECT_EQ(std::accumulate(fleet_report->discovery.replica_trials.begin(),
                              fleet_report->discovery.replica_trials.end(),
                              uint64_t{0}),
              fleet_report->discovery.executions);
  }
}

TEST_F(SchedulerFleetTest, LearnedLatencySteersNewReplicasOffTheSlowRunner) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model_.get();
  auto endpoints_or = ParseEndpoints(fleet_);
  ASSERT_TRUE(endpoints_or.ok()) << endpoints_or.status();
  std::vector<Endpoint> endpoints = *endpoints_or;
  RemoteOptions options;
  options.trial_deadline_ms = 20000;
  auto fleet = FleetTarget::Create(endpoints, spec, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status();

  // Learning pass: a pool over the fleet (initial placement is blind
  // round-robin -- no data yet -- so the slow runner hosts a replica and
  // gets measured).
  auto pool = ParallelTarget::Create(fleet->get(), 3);
  ASSERT_TRUE(pool.ok()) << pool.status();
  auto run = (*pool)->RunIntervened({}, 30);
  ASSERT_TRUE(run.ok()) << run.status();

  const LatencyBoard& board = (*fleet)->latency_board();
  const Endpoint slow = SlowEndpoint();
  ASSERT_GT(board.ewma_micros(slow), 0u) << "slow runner never measured";
  for (int i = 0; i < 2; ++i) {
    EXPECT_GT(board.ewma_micros(slow), board.ewma_micros(FastEndpoint(i)))
        << "runner " << i;
  }

  // New replicas dealt after learning avoid the slow runner entirely.
  // (Held alive: a dying replica releases its board placement.)
  const uint64_t slow_placements_before = board.placements(slow);
  const uint64_t fast_placements_before =
      board.placements(FastEndpoint(0)) + board.placements(FastEndpoint(1));
  std::vector<std::unique_ptr<ReplicableTarget>> held;
  for (int i = 0; i < 4; ++i) {
    auto clone = (*fleet)->Clone();
    ASSERT_TRUE(clone.ok()) << clone.status();
    held.push_back(std::move(*clone));
  }
  EXPECT_EQ(board.placements(slow), slow_placements_before);
  EXPECT_EQ(board.placements(FastEndpoint(0)) +
                board.placements(FastEndpoint(1)),
            fast_placements_before + 4);
  // Releasing them hands the placements back (the anti-ghost contract for
  // repeated pools over one fleet).
  held.clear();
  EXPECT_EQ(board.placements(FastEndpoint(0)) +
                board.placements(FastEndpoint(1)),
            fast_placements_before);
}

TEST_F(SchedulerFleetTest, FleetCursorCommitsOnlyOnSuccess) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model_.get();
  auto endpoints_or = ParseEndpoints(fleet_);
  ASSERT_TRUE(endpoints_or.ok()) << endpoints_or.status();
  std::vector<Endpoint> endpoints = *endpoints_or;
  RemoteOptions options;
  options.trial_deadline_ms = 20000;
  // Crash on the 3rd trial with no reconnect budget: the call fails
  // mid-stream after consuming a partial prefix.
  spec.crash_period = 3;
  options.max_reconnects = 0;
  auto fleet = FleetTarget::Create(endpoints, spec, options);
  ASSERT_TRUE(fleet.ok()) << fleet.status();

  auto result = (*fleet)->RunIntervened({}, 5);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kAborted);
  // Regression: the cursor used to adopt the replica's half-advanced
  // position on failure, desyncing it from what serial dispatch -- which
  // stops at its first error -- consumed. It must still read 0.
  EXPECT_EQ((*fleet)->trial_position(), 0u);
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

TEST_F(SchedulerFleetTest, KilledRunnerDegradesUnderWorkStealing) {
  if (ExternalFleet()) {
    GTEST_SKIP() << "external runners (AID_TEST_FLEET) cannot be killed "
                    "from the test";
  }
  // Kill a FAST runner: the scheduler deliberately starves the straggler
  // of work, so killing the slow one can be a silent no-op -- a fast
  // runner's replica is guaranteed traffic every round, making the crash
  // observation deterministic.
  RunnerAssassin assassin(runners_[0].get());
  auto session = SessionBuilder()
                     .WithModel(model_.get())
                     .WithTrials(4)
                     .WithParallelism(3)
                     .WithRemoteFleet(fleet_, /*trial_deadline_ms=*/20000)
                     .WithObserver(&assassin)
                     .Build();
  ASSERT_TRUE(session.ok()) << session.status();
  auto report = session->Run();
  ASSERT_TRUE(report.ok()) << report.status();
  // The session completed despite losing a runner mid-session on a
  // heterogeneous fleet: the lost replica's trials became crashed trials
  // + failovers (placed by the latency board), never an engine failure --
  // the fail-fast path only fires on hard errors, not on recoverable
  // crash degradation.
  EXPECT_GE(report->discovery.crashed_trials +
                report->discovery.timed_out_trials,
            1u);
  EXPECT_GE(report->discovery.respawns, 1u);
}

#else  // !AID_NET_SUPPORTED

TEST(SchedulerFleetTest, UnsupportedPlatformStillValidatesSchedulers) {
  SchedulerOptions bad;
  bad.chunks_per_worker = 0;
  EXPECT_EQ(ValidateSchedulerOptions(bad).code(),
            StatusCode::kInvalidArgument);
}

#endif  // AID_NET_SUPPORTED

}  // namespace
}  // namespace aid
