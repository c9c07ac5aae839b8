// Tests of net::RemoteTarget against a live in-process Runner: handshake +
// trial parity with the in-process backends, positional determinism of
// flaky subjects across the network boundary, keepalive, and the failure
// lifecycle (killed session children, injected crashes, dead runners,
// reconnect accounting).

#include "net/remote_target.h"

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#if AID_NET_SUPPORTED
#include <poll.h>
#endif

#include "net/fleet_target.h"
#include "net/runner.h"
#include "synth/flaky_target.h"
#include "synth/generator.h"
#include "synth/model.h"

namespace aid {
namespace {

#if AID_NET_SUPPORTED

std::unique_ptr<GroundTruthModel> MakeModel(uint64_t seed = 11) {
  SyntheticAppOptions options;
  options.max_threads = 10;
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

void ExpectSameLog(const PredicateLog& a, const PredicateLog& b) {
  EXPECT_EQ(a.failed, b.failed);
  ASSERT_EQ(a.observed.size(), b.observed.size());
  for (const auto& [id, obs] : a.observed) {
    ASSERT_TRUE(b.Has(id)) << "predicate " << id;
    EXPECT_EQ(b.observed.at(id).start, obs.start);
    EXPECT_EQ(b.observed.at(id).end, obs.end);
  }
}

TEST(RemoteTargetTest, TrialsMatchTheInProcessModelTarget) {
  auto model = MakeModel();
  auto runner = Runner::Start();
  ASSERT_TRUE(runner.ok()) << runner.status();

  auto remote = RemoteTarget::Create({(*runner)->endpoint()},
                                     ModelSpec(model.get()));
  ASSERT_TRUE(remote.ok()) << remote.status();
  ModelTarget local(model.get());

  const std::vector<std::vector<PredicateId>> interventions = {
      {}, {model->root_cause()}, {model->predicates().front()}};
  for (const auto& intervened : interventions) {
    auto remote_result = (*remote)->RunIntervened(intervened, 2);
    ASSERT_TRUE(remote_result.ok()) << remote_result.status();
    auto local_result = local.RunIntervened(intervened, 2);
    ASSERT_TRUE(local_result.ok());
    ASSERT_EQ(remote_result->logs.size(), local_result->logs.size());
    for (size_t i = 0; i < remote_result->logs.size(); ++i) {
      ExpectSameLog(local_result->logs[i], remote_result->logs[i]);
      EXPECT_TRUE(remote_result->logs[i].complete());
    }
  }
  EXPECT_EQ((*remote)->remote_catalog_size(), model->catalog().size());
  EXPECT_EQ((*remote)->executions(), 6);
  EXPECT_EQ((*remote)->health().crashed_trials, 0);
  EXPECT_EQ((*remote)->health().respawns, 0);
}

TEST(RemoteTargetTest, FlakySubjectsAreSeekablePositionallyOverTheWire) {
  auto model = MakeModel(23);
  auto runner = Runner::Start();
  ASSERT_TRUE(runner.ok()) << runner.status();

  SubjectSpec spec;
  spec.kind = SubjectKind::kFlakyModel;
  spec.model = model.get();
  spec.manifest_probability = 0.6;
  spec.flaky_seed = 77;
  auto remote = RemoteTarget::Create({(*runner)->endpoint()}, spec);
  ASSERT_TRUE(remote.ok()) << remote.status();
  FlakyModelTarget local(model.get(), 0.6, 77);

  // Same positional window twice, one target from trial 0, one sought
  // directly into the middle: flaky coin flips are a pure function of the
  // trial index even across the network boundary.
  auto serial = local.RunIntervened({model->root_cause()}, 8);
  ASSERT_TRUE(serial.ok());
  (*remote)->SeekTrial(4);
  auto window = (*remote)->RunIntervened({model->root_cause()}, 4);
  ASSERT_TRUE(window.ok()) << window.status();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(window->logs[i].failed, serial->logs[4 + i].failed)
        << "trial " << 4 + i;
  }
}

TEST(RemoteTargetTest, PingKeepsIdleConnectionsHonest) {
  auto model = MakeModel();
  auto runner = Runner::Start();
  ASSERT_TRUE(runner.ok()) << runner.status();
  auto remote = RemoteTarget::Create({(*runner)->endpoint()},
                                     ModelSpec(model.get()));
  ASSERT_TRUE(remote.ok()) << remote.status();

  EXPECT_TRUE((*remote)->Ping().ok());        // connects lazily, then PONGs
  auto result = (*remote)->RunIntervened({}, 1);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE((*remote)->Ping().ok());        // between trials too
}

TEST(RemoteTargetTest, KilledSessionChildBecomesCrashedTrialPlusReconnect) {
  auto model = MakeModel();
  auto runner = Runner::Start();
  ASSERT_TRUE(runner.ok()) << runner.status();
  auto remote = RemoteTarget::Create({(*runner)->endpoint()},
                                     ModelSpec(model.get()));
  ASSERT_TRUE(remote.ok()) << remote.status();

  auto first = (*remote)->RunIntervened({}, 1);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->logs[0].complete());

  // The machine loses its subjects but the runner daemon survives.
  (*runner)->KillSessions();

  auto second = (*remote)->RunIntervened({}, 1);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(second->logs.size(), 1u);
  EXPECT_TRUE(second->logs[0].failed);
  EXPECT_EQ(second->logs[0].outcome, TrialOutcome::kCrashed);
  EXPECT_FALSE(second->logs[0].complete());
  EXPECT_EQ((*remote)->health().crashed_trials, 1);
  EXPECT_EQ((*remote)->health().respawns, 1);

  // And the reconnected replica serves the next trial normally, with the
  // same bytes the in-process target produces at that position.
  auto third = (*remote)->RunIntervened({}, 1);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_TRUE(third->logs[0].complete());
  ModelTarget local(model.get());
  auto expected = local.RunIntervened({}, 1);
  ASSERT_TRUE(expected.ok());
  ExpectSameLog(expected->logs[0], third->logs[0]);
}

TEST(RemoteTargetTest, InjectedCrashesAreCountedDeterministically) {
  auto model = MakeModel();
  auto runner = Runner::Start();
  ASSERT_TRUE(runner.ok()) << runner.status();

  SubjectSpec spec = ModelSpec(model.get());
  spec.crash_period = 3;  // 1-based trials 3 and 6 die
  auto remote = RemoteTarget::Create({(*runner)->endpoint()}, spec);
  ASSERT_TRUE(remote.ok()) << remote.status();

  auto result = (*remote)->RunIntervened({}, 6);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->logs.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    const bool poisoned = (i + 1) % 3 == 0;
    EXPECT_EQ(result->logs[i].outcome == TrialOutcome::kCrashed, poisoned)
        << "trial " << i;
    if (poisoned) EXPECT_TRUE(result->logs[i].failed);
  }
  EXPECT_EQ((*remote)->health().crashed_trials, 2);
  EXPECT_EQ((*remote)->health().respawns, 2);
}

#if defined(POLLRDHUP)
TEST(RemoteTargetTest, HungSubjectIsReapedOnTheRunnerAfterTimeout) {
  auto model = MakeModel();
  auto runner = Runner::Start();
  ASSERT_TRUE(runner.ok()) << runner.status();

  SubjectSpec spec = ModelSpec(model.get());
  spec.hang_period = 2;  // 1-based trial 2 hangs forever
  RemoteOptions options;
  options.trial_deadline_ms = 300;
  auto remote =
      RemoteTarget::Create({(*runner)->endpoint()}, spec, options);
  ASSERT_TRUE(remote.ok()) << remote.status();

  auto result = (*remote)->RunIntervened({}, 3);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->logs[1].outcome, TrialOutcome::kTimedOut);
  EXPECT_TRUE(result->logs[2].complete());
  EXPECT_EQ((*remote)->health().timed_out_trials, 1);

  // The hung session child must not leak on the runner: its watchdog sees
  // the engine's hangup and exits, leaving only the reconnected session.
  int live = -1;
  for (int i = 0; i < 100; ++i) {
    live = (*runner)->live_sessions();
    if (live <= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(live, 1);
}
#endif  // POLLRDHUP

TEST(RemoteTargetTest, DeadRunnerExhaustsConnectAttempts) {
  auto model = MakeModel();
  // Find a port that briefly existed, then close it: nothing listens there.
  Endpoint dead{"127.0.0.1", 1};
  {
    auto runner = Runner::Start();
    ASSERT_TRUE(runner.ok()) << runner.status();
    dead = (*runner)->endpoint();
    (*runner)->Stop();
  }
  RemoteOptions options;
  options.connect_attempts = 2;
  options.backoff_ms = 5;
  options.backoff_max_ms = 10;
  options.connect_timeout_ms = 2000;
  auto remote = RemoteTarget::Create({dead}, ModelSpec(model.get()), options);
  ASSERT_TRUE(remote.ok()) << remote.status();

  auto result = (*remote)->RunIntervened({}, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("attempts"), std::string::npos);
}

TEST(RemoteTargetTest, CatalogMismatchFailsTheHandshake) {
  auto model = MakeModel();
  auto runner = Runner::Start();
  ASSERT_TRUE(runner.ok()) << runner.status();
  RemoteOptions options;
  options.expected_catalog_size =
      static_cast<uint32_t>(model->catalog().size()) + 5;  // deliberately off
  auto remote = RemoteTarget::Create({(*runner)->endpoint()},
                                     ModelSpec(model.get()), options);
  ASSERT_TRUE(remote.ok()) << remote.status();
  auto result = (*remote)->RunIntervened({}, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("catalog"), std::string::npos);
}

TEST(RemoteTargetTest, ValidationRejectsBadOptions) {
  auto model = MakeModel();
  const SubjectSpec spec = ModelSpec(model.get());
  EXPECT_FALSE(RemoteTarget::Create({}, spec).ok());
  RemoteOptions negative_deadline;
  negative_deadline.trial_deadline_ms = -1;
  EXPECT_FALSE(
      RemoteTarget::Create({Endpoint{"h", 1}}, spec, negative_deadline).ok());
  RemoteOptions no_attempts;
  no_attempts.connect_attempts = 0;
  EXPECT_FALSE(
      RemoteTarget::Create({Endpoint{"h", 1}}, spec, no_attempts).ok());
}

TEST(FleetTargetTest, UnmeasuredClonesSpreadRoundRobinWithFailoverOrder) {
  auto model = MakeModel();
  auto runner_a = Runner::Start();
  auto runner_b = Runner::Start();
  ASSERT_TRUE(runner_a.ok() && runner_b.ok());

  auto fleet = FleetTarget::Create(
      {(*runner_a)->endpoint(), (*runner_b)->endpoint()},
      ModelSpec(model.get()));
  ASSERT_TRUE(fleet.ok()) << fleet.status();

  // Four clones dealt up front, the way a pool deals them -- before any
  // trial has produced a latency measurement, so the board's exploration
  // places them exactly round-robin: two per runner, each with the other
  // runner as failover. (Clones dealt AFTER trials ran are placed by
  // measured latency instead; tests/net/scheduler_fleet_test.cc covers
  // that regime.)
  std::vector<std::unique_ptr<ReplicableTarget>> replicas;
  for (int i = 0; i < 4; ++i) {
    auto clone = (*fleet)->Clone();
    ASSERT_TRUE(clone.ok()) << clone.status();
    replicas.push_back(std::move(*clone));
  }
  for (auto& replica : replicas) {
    auto result = replica->RunIntervened({}, 1);
    ASSERT_TRUE(result.ok()) << result.status();
  }
  EXPECT_EQ((*runner_a)->sessions_started(), 2);
  EXPECT_EQ((*runner_b)->sessions_started(), 2);
}

TEST(FleetTargetTest, ReplicaFailsOverWhenItsRunnerDies) {
  auto model = MakeModel();
  auto runner_a = Runner::Start();
  auto runner_b = Runner::Start();
  ASSERT_TRUE(runner_a.ok() && runner_b.ok());

  RemoteOptions options;
  options.connect_attempts = 3;
  options.backoff_ms = 5;
  options.backoff_max_ms = 20;
  auto fleet = FleetTarget::Create(
      {(*runner_a)->endpoint(), (*runner_b)->endpoint()},
      ModelSpec(model.get()), options);
  ASSERT_TRUE(fleet.ok()) << fleet.status();

  // The fleet's own replica binds to runner A...
  auto first = (*fleet)->RunIntervened({}, 1);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ((*runner_a)->sessions_started(), 1);

  // ...which then drops off the network entirely.
  (*runner_a)->Stop();

  // The in-flight connection dies (crashed trial), and the reconnect fails
  // over to runner B -- the session degrades instead of failing.
  auto second = (*fleet)->RunIntervened({}, 1);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->logs[0].outcome, TrialOutcome::kCrashed);
  auto third = (*fleet)->RunIntervened({}, 1);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_TRUE(third->logs[0].complete());
  EXPECT_GE((*runner_b)->sessions_started(), 1);
  EXPECT_EQ((*fleet)->health().crashed_trials, 1);
  EXPECT_GE((*fleet)->health().respawns, 1);
}

#else  // !AID_NET_SUPPORTED

TEST(RemoteTargetTest, UnsupportedPlatformReportsUnimplemented) {
  SubjectSpec spec;
  EXPECT_EQ(RemoteTarget::Create({Endpoint{"h", 1}}, spec).status().code(),
            StatusCode::kUnimplemented);
}

#endif  // AID_NET_SUPPORTED

}  // namespace
}  // namespace aid
