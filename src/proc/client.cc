#include "proc/client.h"

#include <cerrno>
#include <chrono>
#include <string>
#include <utility>

#include "telemetry/telemetry.h"

#if AID_PROC_SUPPORTED
#include <sys/wait.h>
#endif

namespace aid {

namespace {

using Clock = std::chrono::steady_clock;

/// Remaining budget against an absolute deadline, for channel calls that
/// want milliseconds. 0 = no deadline; -1 = budget exhausted.
int RemainingMs(bool has_deadline, Clock::time_point deadline) {
  if (!has_deadline) return 0;
  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
                             deadline - Clock::now())
                             .count();
  if (remaining <= 0) return -1;
  return static_cast<int>(remaining);
}

}  // namespace

Result<uint32_t> HandshakeSubject(FrameChannel& channel,
                                  std::string_view spec_bytes,
                                  const SubjectHandshake& options) {
  const bool has_deadline = options.timeout_ms > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(options.timeout_ms);

  int budget = RemainingMs(has_deadline, deadline);
  Result<ProcFrame> hello = channel.Read(budget < 0 ? 1 : budget);
  if (!hello.ok()) {
    return Status(hello.status().code(),
                  "handshake: no HELLO from " + options.peer + ": " +
                      hello.status().message());
  }
  if (hello->type != ProcMsgType::kHello) {
    return Status::Internal("handshake: expected HELLO from " + options.peer +
                            ", got " +
                            std::string(ProcMsgTypeName(hello->type)));
  }
  AID_ASSIGN_OR_RETURN(HelloMsg hello_msg, DecodeHello(hello->payload));
  if (hello_msg.version != kProcProtocolVersion) {
    return Status::FailedPrecondition(
        "handshake: protocol version mismatch (" + options.peer +
        " speaks v" + std::to_string(hello_msg.version) + ", engine v" +
        std::to_string(kProcProtocolVersion) + ")");
  }

  // Specs can exceed the transport's buffering; the deadline keeps a peer
  // that stops reading from wedging the handshake.
  budget = RemainingMs(has_deadline, deadline);
  if (budget < 0) {
    return Status::DeadlineExceeded("handshake: budget exhausted before SPEC");
  }
  AID_RETURN_IF_ERROR(channel.Write(ProcMsgType::kSpec, spec_bytes, budget));

  budget = RemainingMs(has_deadline, deadline);
  Result<ProcFrame> ready = channel.Read(budget < 0 ? 1 : budget);
  if (!ready.ok()) {
    return Status(ready.status().code(),
                  "handshake: " + options.peer +
                      " died during subject construction: " +
                      ready.status().message());
  }
  if (ready->type == ProcMsgType::kError) {
    AID_ASSIGN_OR_RETURN(ErrorMsg error, DecodeError(ready->payload));
    return error.ToStatus();
  }
  if (ready->type != ProcMsgType::kReady) {
    return Status::Internal("handshake: expected READY from " + options.peer +
                            ", got " +
                            std::string(ProcMsgTypeName(ready->type)));
  }
  AID_ASSIGN_OR_RETURN(ReadyMsg ready_msg, DecodeReady(ready->payload));
  if (options.expected_catalog_size != 0 &&
      options.expected_catalog_size != ready_msg.catalog_size) {
    return Status::Internal(
        "handshake: " + options.peer +
        " rebuilt a different predicate catalog (" +
        std::to_string(ready_msg.catalog_size) + " predicates, expected " +
        std::to_string(options.expected_catalog_size) +
        "); engine and host would disagree on predicate ids");
  }
  if (options.previous_catalog_size != 0 &&
      options.previous_catalog_size != ready_msg.catalog_size) {
    return Status::Internal(
        "handshake: respawned " + options.peer +
        " rebuilt a different catalog (" +
        std::to_string(ready_msg.catalog_size) + " vs " +
        std::to_string(options.previous_catalog_size) + " predicates)");
  }
  return ready_msg.catalog_size;
}

Result<PredicateLog> RunTrialOverChannel(
    FrameChannel& channel, uint64_t trial_index,
    const std::vector<PredicateId>& intervened, int trial_deadline_ms,
    Telemetry* telemetry, uint64_t trial_span_id) {
  const bool has_deadline = trial_deadline_ms > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(trial_deadline_ms);

  Tracer* tracer = telemetry != nullptr ? telemetry->tracer() : nullptr;
  const bool propagate = tracer != nullptr && trial_span_id != 0;

  RunTrialMsg request;
  request.trial_index = trial_index;
  request.intervened = intervened;
  uint64_t engine_send_us = 0;
  if (propagate) {
    request.has_span_context = true;
    request.trace_id = 1;  // one trace per Telemetry bundle
    request.parent_span_id = trial_span_id;
    engine_send_us = tracer->NowMicros();
  }
  AID_RETURN_IF_ERROR(channel.Write(ProcMsgType::kRunTrial,
                                    EncodeRunTrial(request),
                                    has_deadline ? trial_deadline_ms : 0));

  for (;;) {
    // The deadline budgets the WHOLE trial, send included.
    const int budget = RemainingMs(has_deadline, deadline);
    if (budget < 0) {
      return Status::DeadlineExceeded("trial " + std::to_string(trial_index) +
                                      ": deadline expired");
    }
    AID_ASSIGN_OR_RETURN(ProcFrame frame, channel.Read(budget));
    switch (frame.type) {
      case ProcMsgType::kTrialResult: {
        AID_ASSIGN_OR_RETURN(TrialResultMsg result,
                             DecodeTrialResult(frame.payload));
        if (propagate && result.has_host_telemetry) {
          // Re-base the host's steady-clock span times into this tracer's
          // timeline: the host anchored them on its RUN_TRIAL receive
          // timestamp, which happened (wire latency aside) at our send
          // timestamp. ImportSpan clamps inside the trial span, so skew
          // can never break the cross-process nesting.
          auto rebase = [&](uint64_t host_us) {
            return engine_send_us + (host_us >= result.host_recv_us
                                         ? host_us - result.host_recv_us
                                         : 0);
          };
          for (const WireHostSpan& span : result.host_spans) {
            tracer->ImportSpan(span.name, trial_span_id,
                               rebase(span.start_us), rebase(span.end_us));
          }
        }
        return std::move(result.log);
      }
      case ProcMsgType::kError: {
        AID_ASSIGN_OR_RETURN(ErrorMsg error, DecodeError(frame.payload));
        return error.ToStatus();
      }
      case ProcMsgType::kPong:
        // Stale answer to an earlier keepalive probe; harmless.
        break;
      default:
        return Status::Internal("trial " + std::to_string(trial_index) +
                                ": unexpected frame " +
                                std::string(ProcMsgTypeName(frame.type)));
    }
  }
}

Result<PredicateLog> RunTrialWithRecovery(
    FrameChannel& channel, uint64_t trial_index,
    const std::vector<PredicateId>& intervened, int trial_deadline_ms,
    TargetHealth* health, const std::function<Status()>& replace_peer,
    Telemetry* telemetry) {
  // Trial timing at the wire, charged on every exit path: the substrate's
  // real per-trial latency -- RPC and any peer replacement -- feeds the latency-aware scheduler's per-replica EWMA
  // (exec/scheduler.h) and the fleet's endpoint placement (net/latency.h).
  const Clock::time_point start = Clock::now();
  // The engine-side "trial" span, parented under whatever round span the
  // engine published. It covers the whole trial including any peer
  // replacement, and is the import anchor for the host-side spans.
  ScopedSpan trial_span;
  if (telemetry != nullptr && telemetry->tracer() != nullptr) {
    trial_span = ScopedSpan(telemetry->tracer(), "trial",
                            telemetry->active_parent());
  }
  Result<PredicateLog> out = [&]() -> Result<PredicateLog> {
    Result<PredicateLog> run =
        RunTrialOverChannel(channel, trial_index, intervened,
                            trial_deadline_ms, telemetry, trial_span.id());
    const StatusCode code = run.status().code();
    if (code != StatusCode::kAborted && code != StatusCode::kDeadlineExceeded) {
      return run;
    }
    // The subject never answered: a failing trial with no observations.
    PredicateLog log;
    log.failed = true;
    if (code == StatusCode::kAborted) {
      log.outcome = TrialOutcome::kCrashed;
      ++health->crashed_trials;
    } else {
      log.outcome = TrialOutcome::kTimedOut;
      ++health->timed_out_trials;
    }
    AID_RETURN_IF_ERROR(replace_peer());
    return log;
  }();
  trial_span.End();
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           Clock::now() - start)
                           .count();
  if (elapsed > 0) health->trial_micros += static_cast<uint64_t>(elapsed);
  if (telemetry != nullptr && elapsed > 0) {
    telemetry
        ->LatencyHistogram("aid_trial_latency_us",
                           {{"transport", std::string(channel.transport())}})
        ->Record(static_cast<uint64_t>(elapsed));
  }
  return out;
}

#if AID_PROC_SUPPORTED
pid_t WaitpidRetry(pid_t pid, int* status, int flags) {
  for (;;) {
    const pid_t rc = ::waitpid(pid, status, flags);
    if (rc >= 0 || errno != EINTR) return rc;
  }
}
#endif

Status PingPeer(FrameChannel& channel, uint64_t token, int timeout_ms) {
  const bool has_deadline = timeout_ms > 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  PingMsg ping;
  ping.token = token;
  AID_RETURN_IF_ERROR(
      channel.Write(ProcMsgType::kPing, EncodePing(ping), timeout_ms));
  for (;;) {
    const int budget = RemainingMs(has_deadline, deadline);
    if (budget < 0) {
      return Status::DeadlineExceeded("ping: no PONG within " +
                                      std::to_string(timeout_ms) + "ms");
    }
    AID_ASSIGN_OR_RETURN(ProcFrame frame, channel.Read(budget));
    if (frame.type != ProcMsgType::kPong) continue;  // stale trial traffic
    AID_ASSIGN_OR_RETURN(PingMsg pong, DecodePing(frame.payload));
    if (pong.token == token) return Status::OK();
  }
}

}  // namespace aid
