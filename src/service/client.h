// ServiceClient: the client side of the aid_service conversation
// (service/protocol.h). One client = one connection = one session:
//
//   auto client = ServiceClient::Connect(endpoint, 5000);
//   ServiceSubmission submission;
//   submission.label = "kafka-debug";
//   submission.spec = spec;               // SubjectSpec (borrowed subject)
//   submission.engine = EngineOptions::Aid();
//   auto accepted = (*client)->Submit(submission);
//   auto outcome = (*client)->Await(/*timeout_ms=*/60000);
//   if (outcome->checkpointed) { ... resume later with outcome->checkpoint
//   .state ... } else { use outcome->report ... }
//
// Connect only dials. Submit performs admission synchronously in one round
// trip: it sends SUBMIT at once, then checks the service's HELLO and reads
// ACCEPTED (or the service's structured ERROR as a Status). Await blocks
// for the terminal frame --
// REPORT, CHECKPOINT, or ERROR. Resuming is a fresh Connect + Submit with
// `resume_state` set to the checkpoint bytes and the same spec.

#ifndef AID_SERVICE_CLIENT_H_
#define AID_SERVICE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/engine.h"
#include "net/channel.h"
#include "net/socket.h"
#include "proc/subject_spec.h"
#include "service/protocol.h"

namespace aid {

/// Everything one SUBMIT carries. The spec's subject pointers are borrowed
/// and only need to live until Submit returns (the service rebuilds the
/// subject from the encoded bytes).
struct ServiceSubmission {
  std::string label;
  SubjectSpec spec;
  EngineOptions engine;
  /// See SubmitMsg::checkpoint_after_rounds.
  uint64_t checkpoint_after_rounds = 0;
  /// Checkpoint bytes from a prior session's CHECKPOINT; empty = fresh run.
  std::string resume_state;
};

/// The session's terminal answer: exactly one of report / checkpoint,
/// discriminated by `checkpointed`.
struct ServiceOutcome {
  bool checkpointed = false;
  DiscoveryReport report;
  CheckpointMsg checkpoint;
};

#if AID_NET_SUPPORTED

class ServiceClient {
 public:
  /// Dials the service. `timeout_ms` bounds the TCP connect here, and
  /// Submit's wait for the service's HELLO.
  static Result<std::unique_ptr<ServiceClient>> Connect(
      const Endpoint& endpoint, int timeout_ms = 5000);

  /// Sends SUBMIT, verifies the service's HELLO (magic "AIDS", version;
  /// an ERROR in its place is returned as its Status) and waits for the
  /// admission verdict. A service-side rejection (session cap, bad
  /// spec/options/state) is returned as the ERROR frame's carried Status.
  /// Call once per client.
  Result<AcceptedMsg> Submit(const ServiceSubmission& submission);

  /// Blocks for the terminal frame. timeout_ms <= 0 = forever. A service-
  /// side failure (quota exceeded, target error, shutdown) is the ERROR
  /// frame's carried Status; DeadlineExceeded means the session is still
  /// running (call again).
  Result<ServiceOutcome> Await(int timeout_ms = 0);

 private:
  ServiceClient(std::unique_ptr<SocketChannel> channel, int hello_timeout_ms)
      : channel_(std::move(channel)), hello_timeout_ms_(hello_timeout_ms) {}

  std::unique_ptr<SocketChannel> channel_;
  int hello_timeout_ms_;
};

#else  // !AID_NET_SUPPORTED

class ServiceClient {
 public:
  static Result<std::unique_ptr<ServiceClient>> Connect(const Endpoint&,
                                                        int timeout_ms = 5000);
  Result<AcceptedMsg> Submit(const ServiceSubmission&);
  Result<ServiceOutcome> Await(int timeout_ms = 0);
};

#endif  // AID_NET_SUPPORTED

}  // namespace aid

#endif  // AID_SERVICE_CLIENT_H_
