#include "service/client.h"

#include <utility>

#include "core/discovery_state.h"
#include "proc/wire.h"

namespace aid {

#if AID_NET_SUPPORTED

namespace {

/// Checks the frame the service opens every connection with: its HELLO
/// (magic "AIDS", protocol version), or an ERROR in its place.
Status CheckServiceHello(const ProcFrame& frame) {
  if (frame.type == ProcMsgType::kError) {
    AID_ASSIGN_OR_RETURN(ErrorMsg error, DecodeError(frame.payload));
    return error.ToStatus();
  }
  if (frame.type != ProcMsgType::kHello) {
    return Status::InvalidArgument(
        "service client: expected HELLO, got " +
        std::string(ServiceFrameName(frame.type)));
  }
  AID_ASSIGN_OR_RETURN(HelloMsg hello, DecodeServiceHello(frame.payload));
  if (hello.version != kServiceProtocolVersion) {
    return Status::InvalidArgument(
        "service client: protocol version mismatch (peer " +
        std::to_string(hello.version) + ", expected " +
        std::to_string(kServiceProtocolVersion) + ")");
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ServiceClient>> ServiceClient::Connect(
    const Endpoint& endpoint, int timeout_ms) {
  AID_ASSIGN_OR_RETURN(int fd, ConnectTo(endpoint, timeout_ms));
  return std::unique_ptr<ServiceClient>(
      new ServiceClient(std::make_unique<SocketChannel>(fd), timeout_ms));
}

Result<AcceptedMsg> ServiceClient::Submit(const ServiceSubmission& submission) {
  SubmitMsg msg;
  msg.label = submission.label;
  AID_ASSIGN_OR_RETURN(msg.spec, EncodeSubjectSpec(submission.spec));
  WireWriter engine;
  EncodeEngineOptions(submission.engine, engine);
  msg.engine = engine.Release();
  msg.checkpoint_after_rounds = submission.checkpoint_after_rounds;
  msg.state = submission.resume_state;
  // SUBMIT goes out before the service's HELLO is read: the service writes
  // HELLO first and then reads, so admission costs one round trip.
  const Status sent = channel_->Write(AsProcMsgType(ServiceMsgType::kSubmit),
                                      EncodeSubmit(msg), hello_timeout_ms_);
  // The HELLO (or an ERROR in its place) explains a refused SUBMIT better
  // than the write error does, so it is read even when the write failed.
  Result<ProcFrame> hello = channel_->Read(hello_timeout_ms_);
  if (!hello.ok()) return sent.ok() ? hello.status() : sent;
  AID_RETURN_IF_ERROR(CheckServiceHello(*hello));
  AID_RETURN_IF_ERROR(sent);
  AID_ASSIGN_OR_RETURN(ProcFrame frame, channel_->Read());
  if (frame.type == ProcMsgType::kError) {
    AID_ASSIGN_OR_RETURN(ErrorMsg error, DecodeError(frame.payload));
    return error.ToStatus();
  }
  if (frame.type != AsProcMsgType(ServiceMsgType::kAccepted)) {
    return Status::InvalidArgument(
        "service client: expected ACCEPTED, got " +
        std::string(ServiceFrameName(frame.type)));
  }
  return DecodeAccepted(frame.payload);
}

Result<ServiceOutcome> ServiceClient::Await(int timeout_ms) {
  AID_ASSIGN_OR_RETURN(ProcFrame frame, channel_->Read(timeout_ms));
  if (frame.type == ProcMsgType::kError) {
    AID_ASSIGN_OR_RETURN(ErrorMsg error, DecodeError(frame.payload));
    return error.ToStatus();
  }
  ServiceOutcome outcome;
  if (frame.type == AsProcMsgType(ServiceMsgType::kReport)) {
    AID_ASSIGN_OR_RETURN(ReportMsg report, DecodeReportMsg(frame.payload));
    outcome.report = std::move(report.report);
    return outcome;
  }
  if (frame.type == AsProcMsgType(ServiceMsgType::kCheckpoint)) {
    outcome.checkpointed = true;
    AID_ASSIGN_OR_RETURN(outcome.checkpoint,
                         DecodeCheckpoint(frame.payload));
    return outcome;
  }
  return Status::InvalidArgument(
      "service client: expected REPORT, CHECKPOINT or ERROR, got " +
      std::string(ServiceFrameName(frame.type)));
}

#else  // !AID_NET_SUPPORTED

Result<std::unique_ptr<ServiceClient>> ServiceClient::Connect(const Endpoint&,
                                                              int) {
  return Status::Unimplemented(
      "ServiceClient: sockets are unavailable on this platform");
}

Result<AcceptedMsg> ServiceClient::Submit(const ServiceSubmission&) {
  return Status::Unimplemented(
      "ServiceClient: sockets are unavailable on this platform");
}

Result<ServiceOutcome> ServiceClient::Await(int) {
  return Status::Unimplemented(
      "ServiceClient: sockets are unavailable on this platform");
}

#endif  // AID_NET_SUPPORTED

}  // namespace aid
