// Driving the multi-tenant discovery daemon (aid_service) end to end:
// submit a session, detach it at a checkpoint, "lose" the client, and
// resume the checkpoint on a fresh connection to the bit-identical report.
//
// The subject is the paper's Figure 4 ground-truth model, submitted as a
// serialized SubjectSpec -- the daemon rebuilds it and interleaves this
// session's intervention rounds with every other tenant's.
//
// Run a daemon first (in-process targets; add --fleet for real runners):
//
//   ./build/aid_service --port 7602 &
//   ./build/examples/service_session 127.0.0.1:7602
//
// Exits 0 iff the resumed report matches an uninterrupted local run --
// CI's multi-session smoke job leans on that.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/session_target.h"
#include "core/engine.h"
#include "net/socket.h"
#include "service/client.h"
#include "synth/model.h"

using namespace aid;

namespace {

// Figure 4: p10's anomalous interval has temporal paths from its true
// causes p3 and p11 plus confounded non-causes (paper Section 4).
std::unique_ptr<GroundTruthModel> Figure4Model() {
  auto model = std::make_unique<GroundTruthModel>();
  model->AddFailure();
  std::vector<PredicateId> p(12, kInvalidPredicate);
  for (int i = 1; i <= 11; ++i) {
    p[static_cast<size_t>(i)] = model->AddPredicate(i);
  }
  auto edge = [&](int a, int b) {
    model->AddTemporalEdge(p[static_cast<size_t>(a)],
                           p[static_cast<size_t>(b)]);
  };
  edge(1, 2); edge(2, 3); edge(3, 4); edge(4, 5); edge(5, 6);
  edge(3, 7); edge(7, 8); edge(7, 9); edge(8, 11); edge(9, 11);
  edge(6, 10); edge(8, 10); edge(9, 10);
  model->SetCausalChain({p[1], p[2], p[11]});
  model->SetTrueParents(p[10], {p[3], p[11]});
  return model;
}

int Fail(const char* stage, const Status& status) {
  std::fprintf(stderr, "service_session: %s: %s\n", stage,
               status.ToString().c_str());
  return 1;
}

DiscoveryReport SoloRun(const SubjectSpec& spec, const EngineOptions& options,
                        int* error) {
  auto target = MakeSessionTarget(spec);
  if (!target.ok()) { *error = Fail("target", target.status()); return {}; }
  auto dag = (*target)->BuildAcDag();
  if (!dag.ok()) { *error = Fail("dag", dag.status()); return {}; }
  CausalPathDiscovery local(&*dag, (*target)->intervention_target(), options);
  auto report = local.Run();
  if (!report.ok()) { *error = Fail("local run", report.status()); return {}; }
  return *report;
}

/// --concurrent N: the multi-tenant path CI smokes. N sessions with
/// distinct labels and presets are submitted before any is awaited, so the
/// daemon interleaves all of them; every report must match its solo run.
/// Prints one machine-readable line per session for the metrics validator.
int RunConcurrent(const Endpoint& endpoint, int sessions) {
  auto model = Figure4Model();
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model.get();
  const EngineOptions presets[] = {EngineOptions::Aid(), EngineOptions::Tagt(),
                                   EngineOptions::Linear()};

  std::vector<std::unique_ptr<ServiceClient>> clients;
  std::vector<DiscoveryReport> solos;
  for (int i = 0; i < sessions; ++i) {
    const EngineOptions& engine = presets[static_cast<size_t>(i) % 3];
    int error = 0;
    solos.push_back(SoloRun(spec, engine, &error));
    if (error != 0) return error;
    auto client = ServiceClient::Connect(endpoint);
    if (!client.ok()) return Fail("connect", client.status());
    ServiceSubmission submission;
    submission.label = "smoke-" + std::to_string(i + 1);
    submission.spec = spec;
    submission.engine = engine;
    auto accepted = (*client)->Submit(submission);
    if (!accepted.ok()) return Fail("submit", accepted.status());
    clients.push_back(std::move(*client));
  }
  for (int i = 0; i < sessions; ++i) {
    auto outcome = clients[static_cast<size_t>(i)]->Await(
        /*timeout_ms=*/120000);
    if (!outcome.ok()) return Fail("await", outcome.status());
    if (outcome->checkpointed ||
        !SameDiscoveryOutcome(outcome->report, solos[static_cast<size_t>(i)])) {
      std::fprintf(stderr, "service_session: session smoke-%d DIVERGED from "
                           "its solo run\n", i + 1);
      return 1;
    }
    std::printf("session smoke-%d rounds=%llu executions=%llu\n", i + 1,
                (unsigned long long)outcome->report.rounds,
                (unsigned long long)outcome->report.executions);
  }
  std::printf("%d concurrent sessions, every report bit-identical to its "
              "solo run\n", sessions);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::string(argv[1]) == "--concurrent") {
    const int sessions = std::atoi(argv[2]);
    auto endpoint = ParseEndpoint(argv[3]);
    if (!endpoint.ok()) return Fail("endpoint", endpoint.status());
    if (sessions < 1) {
      std::fprintf(stderr, "usage: service_session --concurrent N HOST:PORT\n");
      return 2;
    }
    return RunConcurrent(*endpoint, sessions);
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: service_session [--concurrent N] HOST:PORT\n");
    return 2;
  }
  auto endpoint = ParseEndpoint(argv[1]);
  if (!endpoint.ok()) return Fail("endpoint", endpoint.status());

  auto model = Figure4Model();
  SubjectSpec spec;
  spec.kind = SubjectKind::kModel;
  spec.model = model.get();
  const EngineOptions engine = EngineOptions::Aid();

  // The ground truth the daemon is held to: an uninterrupted local run.
  auto target = MakeSessionTarget(spec);
  if (!target.ok()) return Fail("target", target.status());
  auto dag = (*target)->BuildAcDag();
  if (!dag.ok()) return Fail("dag", dag.status());
  CausalPathDiscovery local(&*dag, (*target)->intervention_target(), engine);
  auto solo = local.Run();
  if (!solo.ok()) return Fail("local run", solo.status());
  std::printf("local run: %llu rounds, %llu executions\n",
              (unsigned long long)solo->rounds,
              (unsigned long long)solo->executions);

  // 1. Submit, asking the daemon to checkpoint after 3 rounds.
  auto client = ServiceClient::Connect(*endpoint);
  if (!client.ok()) return Fail("connect", client.status());
  ServiceSubmission submission;
  submission.label = "figure4-demo";
  submission.spec = spec;
  submission.engine = engine;
  submission.checkpoint_after_rounds = 3;
  auto accepted = (*client)->Submit(submission);
  if (!accepted.ok()) return Fail("submit", accepted.status());
  std::printf("submitted: session %llu\n",
              (unsigned long long)accepted->session_id);

  // 2. The daemon detaches the session at the boundary and ships the
  //    serialized DiscoveryState back.
  auto checkpointed = (*client)->Await(/*timeout_ms=*/60000);
  if (!checkpointed.ok()) return Fail("await checkpoint",
                                      checkpointed.status());
  if (!checkpointed->checkpointed) {
    std::fprintf(stderr, "service_session: expected a checkpoint, got the "
                         "final report\n");
    return 1;
  }
  std::printf("checkpointed: %llu rounds, %llu executions, %zu state bytes\n",
              (unsigned long long)checkpointed->checkpoint.rounds,
              (unsigned long long)checkpointed->checkpoint.executions,
              checkpointed->checkpoint.state.size());

  // 3. "Kill" the client: drop the connection. Only the state bytes and
  //    the spec survive -- exactly what a crash-and-restart would hold.
  const std::string state = checkpointed->checkpoint.state;
  client->reset();

  // 4. Resume on a fresh connection (any daemon serving the same subjects
  //    would do) and run to completion.
  auto resumer = ServiceClient::Connect(*endpoint);
  if (!resumer.ok()) return Fail("reconnect", resumer.status());
  ServiceSubmission resume;
  resume.label = "figure4-demo-resumed";
  resume.spec = spec;
  resume.engine = engine;
  resume.resume_state = state;
  auto readmitted = (*resumer)->Submit(resume);
  if (!readmitted.ok()) return Fail("resubmit", readmitted.status());
  std::printf("resumed: session %llu (resumed=%d)\n",
              (unsigned long long)readmitted->session_id,
              readmitted->resumed ? 1 : 0);
  auto outcome = (*resumer)->Await(/*timeout_ms=*/60000);
  if (!outcome.ok()) return Fail("await report", outcome.status());
  if (outcome->checkpointed) {
    std::fprintf(stderr, "service_session: expected the final report, got "
                         "another checkpoint\n");
    return 1;
  }

  std::printf("final report: %llu rounds, %llu executions, %zu causal "
              "predicates\n",
              (unsigned long long)outcome->report.rounds,
              (unsigned long long)outcome->report.executions,
              outcome->report.causal_path.size());
  if (!SameDiscoveryOutcome(outcome->report, *solo)) {
    std::fprintf(stderr, "service_session: resumed report DIVERGED from the "
                         "uninterrupted run\n");
    return 1;
  }
  std::printf("resumed report is bit-identical to the uninterrupted run\n");
  return 0;
}
