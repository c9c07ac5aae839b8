#include "proc/subject_host.h"

#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "analysis/analyzer.h"
#include "common/logging.h"
#include "proc/wire.h"
#include "telemetry/json.h"

#if AID_PROC_SUPPORTED
#include <unistd.h>
#endif

namespace aid {
namespace {

/// Opens a subject received over the wire. Every received program is
/// linted first, regardless of the spec's analysis options: undefined
/// registers, unreachable predicate sites, out-of-range targets and the
/// like become a structured ERROR frame instead of a child crash mid-scan.
Result<OpenedSubject> OpenReceivedSubject(const SubjectSpec& spec) {
  if (spec.kind == SubjectKind::kVmProgram) {
    AID_RETURN_IF_ERROR(ProgramAnalysis::Analyze(*spec.program).LintStatus());
  }
  return OpenSubject(spec);
}

/// Poisoned-trial check: 1-based global trial index hits the period.
bool HitsPeriod(uint64_t trial_index, uint64_t period) {
  return period != 0 && (trial_index + 1) % period == 0;
}

[[noreturn]] void HangForever() {
  // A deliberately wedged subject: the paper's hung-subject scenario. The
  // parent's per-trial deadline is the only way out (SIGKILL).
  for (;;) std::this_thread::sleep_for(std::chrono::hours(24));
}

/// Microseconds on the host's steady clock (CLOCK_MONOTONIC; shared by
/// every process on the machine, which is what lets the runner daemon's
/// start time be compared against a child's now).
uint64_t HostNowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Answers a STATS request with the self-describing JSON document of
/// `aid_runner --stats`: daemon uptime / session count (zeros when run
/// outside a daemon, e.g. under plain SubprocessTarget) plus the shared
/// trial totals and latency histogram of the whole fleet node.
Status AnswerStats(FrameChannel& channel, const SubjectHostOptions& host) {
  JsonWriter w;
  w.BeginObject();
  const uint64_t uptime_us =
      host.daemon_start_micros != 0 &&
              HostNowMicros() > host.daemon_start_micros
          ? HostNowMicros() - host.daemon_start_micros
          : 0;
  w.Key("uptime_seconds").U64(uptime_us / 1000000);
  w.Key("sessions_started").U64(host.daemon_sessions_started);
  uint64_t trials = 0;
  uint64_t failed = 0;
  uint64_t micros = 0;
  w.Key("trial_latency_us").BeginObject();
  w.Key("bounds").BeginArray();
  for (size_t i = 0; i < kLatencyBucketBoundCount; ++i) {
    w.U64(kLatencyBucketBoundsUs[i]);
  }
  w.EndArray();
  w.Key("buckets").BeginArray();
  for (size_t i = 0; i <= kLatencyBucketBoundCount; ++i) {
    w.U64(host.shared_stats != nullptr
              ? host.shared_stats->latency_buckets[i].load(
                    std::memory_order_relaxed)
              : 0);
  }
  w.EndArray();
  w.EndObject();
  if (host.shared_stats != nullptr) {
    trials = host.shared_stats->trials.load(std::memory_order_relaxed);
    failed = host.shared_stats->failed_trials.load(std::memory_order_relaxed);
    micros = host.shared_stats->trial_micros.load(std::memory_order_relaxed);
  }
  w.Key("trials").U64(trials);
  w.Key("failed_trials").U64(failed);
  w.Key("trial_micros_total").U64(micros);
  w.EndObject();
  StatsReplyMsg reply;
  reply.json = w.str();
  return channel.Write(ProcMsgType::kStatsReply, EncodeStatsReply(reply));
}

/// Answers a PING by echoing its token back (v2 keepalive). A garbled PING
/// still gets a PONG (token 0): liveness is the point, not the payload.
Status AnswerPing(FrameChannel& channel, const ProcFrame& frame) {
  PingMsg pong;
  if (Result<PingMsg> ping = DecodePing(frame.payload); ping.ok()) {
    pong.token = ping->token;
  }
  return channel.Write(ProcMsgType::kPong, EncodePing(pong));
}

}  // namespace

void SharedHostStats::RecordTrial(uint64_t micros, bool failed) {
  trials.fetch_add(1, std::memory_order_relaxed);
  if (failed) failed_trials.fetch_add(1, std::memory_order_relaxed);
  trial_micros.fetch_add(micros, std::memory_order_relaxed);
  size_t bucket = kLatencyBucketBoundCount;  // +Inf overflow
  for (size_t i = 0; i < kLatencyBucketBoundCount; ++i) {
    if (micros <= kLatencyBucketBoundsUs[i]) {
      bucket = i;
      break;
    }
  }
  latency_buckets[bucket].fetch_add(1, std::memory_order_relaxed);
}

int RunSubjectHost(FrameChannel& channel, const SubjectHostOptions& host) {
#if !AID_PROC_SUPPORTED
  (void)channel;
  (void)host;
  return 3;
#else
  HelloMsg hello;
  hello.pid = static_cast<uint64_t>(::getpid());
  if (!channel.Write(ProcMsgType::kHello, EncodeHello(hello)).ok()) {
    return 2;
  }

  // SPEC -> open -> READY (or ERROR and exit).
  OwnedSubjectSpec owned;
  OpenedSubject subject;
  for (;;) {
    Result<ProcFrame> frame = channel.Read();
    if (!frame.ok()) return 2;
    if (frame->type == ProcMsgType::kShutdown) return 0;
    if (frame->type == ProcMsgType::kPing) {
      if (!AnswerPing(channel, *frame).ok()) return 2;
      continue;
    }
    if (frame->type == ProcMsgType::kStats) {
      // Stats connections never send a SPEC: answer and keep waiting (the
      // client follows up with SHUTDOWN or just closes).
      if (!AnswerStats(channel, host).ok()) return 2;
      continue;
    }
    if (frame->type != ProcMsgType::kSpec) {
      (void)channel.Write(
          ProcMsgType::kError,
          EncodeError(Status::InvalidArgument(
              "subject host: expected SPEC, got " +
              std::string(ProcMsgTypeName(frame->type)))));
      return 2;
    }
    Result<OwnedSubjectSpec> decoded = DecodeSubjectSpec(frame->payload);
    if (!decoded.ok()) {
      (void)channel.Write(ProcMsgType::kError, EncodeError(decoded.status()));
      return 2;
    }
    owned = std::move(decoded).value();
    Result<OpenedSubject> opened = OpenReceivedSubject(owned.spec);
    if (!opened.ok()) {
      (void)channel.Write(ProcMsgType::kError, EncodeError(opened.status()));
      return 2;
    }
    subject = std::move(opened).value();
    ReadyMsg ready;
    ready.catalog_size = static_cast<uint32_t>(subject.catalog().size());
    if (!channel.Write(ProcMsgType::kReady, EncodeReady(ready)).ok()) {
      return 2;
    }
    break;
  }

  // Trial loop.
  for (;;) {
    Result<ProcFrame> frame = channel.Read();
    if (!frame.ok()) {
      // EOF: the engine died or dropped us; exiting is the clean response.
      return frame.status().code() == StatusCode::kAborted ? 0 : 2;
    }
    switch (frame->type) {
      case ProcMsgType::kShutdown:
        return 0;
      case ProcMsgType::kPing:
        if (!AnswerPing(channel, *frame).ok()) return 2;
        break;
      case ProcMsgType::kStats:
        if (!AnswerStats(channel, host).ok()) return 2;
        break;
      case ProcMsgType::kRunTrial: {
        const uint64_t recv_us = HostNowMicros();
        Result<RunTrialMsg> request = DecodeRunTrial(frame->payload);
        if (!request.ok()) {
          (void)channel.Write(ProcMsgType::kError,
                              EncodeError(request.status()));
          return 2;
        }
        // Fault injection happens mid-trial, after the request is accepted:
        // the engine has committed to this trial and observes a genuine
        // mid-trial death or hang.
        if (HitsPeriod(request->trial_index, owned.spec.crash_period)) {
          std::abort();
        }
        if (HitsPeriod(request->trial_index, owned.spec.hang_period)) {
          HangForever();
        }
        if (host.trial_delay_us > 0) {
          // Simulated slow host (see SubjectHostOptions): charged inside
          // the trial so the engine-side deadline still covers it.
          std::this_thread::sleep_for(
              std::chrono::microseconds(host.trial_delay_us));
        }
        const uint64_t run_start_us = HostNowMicros();
        subject.target->SeekTrial(request->trial_index);
        Result<TargetRunResult> result =
            subject.target->RunIntervened(request->intervened, 1);
        const uint64_t run_end_us = HostNowMicros();
        if (!result.ok()) {
          // Subject-level error: report and keep serving (the engine decides
          // whether to fail the discovery run).
          if (host.shared_stats != nullptr) {
            host.shared_stats->RecordTrial(run_end_us - recv_us,
                                           /*failed=*/true);
          }
          if (!channel.Write(ProcMsgType::kError,
                             EncodeError(result.status()))
                   .ok()) {
            return 2;
          }
          break;
        }
        if (result->logs.empty()) {
          if (!channel.Write(ProcMsgType::kError,
                             EncodeError(Status::Internal(
                                 "subject host: target produced no log")))
                   .ok()) {
            return 2;
          }
          break;
        }
        if (host.shared_stats != nullptr) {
          host.shared_stats->RecordTrial(run_end_us - recv_us,
                                         result->logs.front().failed);
        }
        // The whole answer in one frame. Host-side spans go back only when
        // the engine propagated span context on the request: host.trial
        // covers the whole request handling (delay injection included),
        // host.subject_run just the subject's execution. Times stay in this
        // host's clock domain; the engine re-bases them against recv_us
        // (see proc/client.cc).
        TrialResultMsg answer;
        answer.log = std::move(result->logs.front());
        if (request->has_span_context) {
          answer.has_host_telemetry = true;
          answer.host_recv_us = recv_us;
          answer.host_spans = {
              WireHostSpan{"host.trial", recv_us, run_end_us},
              WireHostSpan{"host.subject_run", run_start_us, run_end_us}};
        }
        if (!channel.Write(ProcMsgType::kTrialResult, EncodeTrialResult(answer))
                 .ok()) {
          return 2;
        }
        break;
      }
      default:
        (void)channel.Write(
            ProcMsgType::kError,
            EncodeError(Status::InvalidArgument(
                "subject host: unexpected frame " +
                std::string(ProcMsgTypeName(frame->type)))));
        return 2;
    }
  }
#endif  // AID_PROC_SUPPORTED
}

int RunSubjectHost(int in_fd, int out_fd, const SubjectHostOptions& host) {
  PipeChannel channel(in_fd, out_fd, /*owns_fds=*/false);
  return RunSubjectHost(channel, host);
}

}  // namespace aid
