// DiscoveryService: the multi-tenant discovery daemon (aid_service).
//
// One long-lived process multiplexes N concurrent causal-path discoveries
// over one shared execution substrate. Each accepted connection is one
// session: the client SUBMITs a SubjectSpec + EngineOptions (or a
// checkpoint to resume), and the service drives that session's
// DiscoveryState (core/discovery_state.h) one action at a time,
// interleaved round-robin with every other live session -- the state
// machine split is exactly what makes a blocking Run() loop schedulable.
//
// Scheduling is cooperative and fair: a FIFO run queue of session ids, a
// small worker pool, one action (one intervention round, or one batched
// scan) per session per turn, requeue at the tail. A session with 30
// rounds left cannot starve a session with 2; wall-clock interleaves
// proportionally to round cost.
//
// Admission control: at `max_sessions` live sessions, further SUBMITs get
// a structured FAILED_PRECONDITION ERROR frame (the aid_runner
// --max-sessions pattern one layer up). `session_quota` caps what any one
// session may spend: budgeted sessions have their BudgetOptions::
// max_executions clamped to the quota (they degrade gracefully into
// best-effort reports with per-candidate confidence); unbudgeted sessions
// are hard-stopped with an ERROR when they cross it. A resumed checkpoint
// keeps the budget it was written with, so unless that budget already lies
// within the quota it is hard-stopped the same way.
//
// Checkpoint/resume: a SUBMIT with checkpoint_after_rounds > 0 detaches
// the session at that round boundary and ships the serialized
// DiscoveryState back (CHECKPOINT frame); any client may later resume it
// -- on this daemon or another host -- by submitting the state bytes with
// the same SubjectSpec. Resumed runs finish with reports bit-identical to
// uninterrupted ones.
//
// Telemetry: with a Telemetry bundle attached, the service maintains
// per-session labeled counters (aid_service_rounds_total{session=label},
// aid_service_executions_total{...}, aid_service_turns_total{...}) plus
// daemon-wide admission/outcome counters. The engine-level telemetry hooks
// stay OFF inside sessions: the tracer's single active-parent slot and the
// unlabeled aid_* counters assume one discovery per process, and
// interleaved sessions would race them. See docs/service.md.

#ifndef AID_SERVICE_SERVICE_H_
#define AID_SERVICE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/socket.h"
#include "telemetry/telemetry.h"

namespace aid {

struct ServiceOptions {
  /// Bind address. Default loopback: the protocol is unauthenticated, like
  /// the runner's (docs/remote_protocol.md trust model).
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the outcome with DiscoveryService::port().
  int port = 0;
  int backlog = 16;
  /// Accept-loop tick; doubles as the Stop() latency bound.
  int accept_poll_ms = 200;
  /// Worker threads executing session actions. Each worker drives one
  /// session's action at a time, so this is the daemon's cross-session
  /// execution parallelism.
  int workers = 2;
  /// Admission cap on concurrent live sessions; 0 = unlimited.
  int max_sessions = 8;
  /// Per-session execution quota; 0 = none. Fresh budgeted sessions get
  /// their global budget clamped to it; every other session that crosses
  /// it (unbudgeted, or resumed with a budget looser than the quota) is
  /// stopped with an ERROR.
  uint64_t session_quota = 0;
  /// Runner endpoints ("host:port") every session's intervention replicas
  /// are placed on. Empty = in-process targets.
  std::vector<std::string> fleet;
  /// Optional daemon telemetry (per-session labeled counters). The bundle
  /// is shared with nothing else; see the header comment for why engine
  /// spans stay off.
  std::shared_ptr<Telemetry> telemetry;
};

class DiscoveryService {
 public:
  /// Binds, starts the accept loop and worker pool, and returns the live
  /// daemon. Unimplemented on platforms without sockets.
  static Result<std::unique_ptr<DiscoveryService>> Start(
      ServiceOptions options = {});

  ~DiscoveryService();
  DiscoveryService(const DiscoveryService&) = delete;
  DiscoveryService& operator=(const DiscoveryService&) = delete;

  const std::string& host() const;
  int port() const;
  Endpoint endpoint() const;

  /// Sessions currently live (admitted, not yet reported / checkpointed /
  /// failed).
  int live_sessions();
  /// Sessions ever admitted (resumed ones included).
  uint64_t sessions_accepted() const;

  /// Stops accepting, drains nothing: live sessions get a best-effort
  /// "service shutting down" ERROR and are dropped. Idempotent; the
  /// destructor calls it.
  void Stop();

 private:
  class Impl;
  explicit DiscoveryService(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace aid

#endif  // AID_SERVICE_SERVICE_H_
