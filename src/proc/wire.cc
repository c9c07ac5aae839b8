#include "proc/wire.h"

#include <cerrno>
#include <cstring>

#if AID_PROC_SUPPORTED
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <chrono>
#include <mutex>

namespace aid {

std::string_view ProcMsgTypeName(ProcMsgType type) {
  switch (type) {
    case ProcMsgType::kHello: return "HELLO";
    case ProcMsgType::kSpec: return "SPEC";
    case ProcMsgType::kReady: return "READY";
    case ProcMsgType::kError: return "ERROR";
    case ProcMsgType::kRunTrial: return "RUN_TRIAL";
    case ProcMsgType::kShutdown: return "SHUTDOWN";
    case ProcMsgType::kPing: return "PING";
    case ProcMsgType::kPong: return "PONG";
    case ProcMsgType::kStats: return "STATS";
    case ProcMsgType::kStatsReply: return "STATS_REPLY";
    case ProcMsgType::kTrialResult: return "TRIAL_RESULT";
  }
  return "UNKNOWN";
}

#if AID_PROC_SUPPORTED

namespace {

/// A closed peer must surface as EPIPE (-> Status), not as a fatal SIGPIPE.
/// Installed once, process-wide, before the first pipe write -- the standard
/// contract of libraries that own pipe/socket transports.
void IgnoreSigpipeOnce() {
  static std::once_flag once;
  std::call_once(once, []() { ::signal(SIGPIPE, SIG_IGN); });
}

Status WriteAll(int fd, const char* data, size_t n) {
  size_t written = 0;
  while (written < n) {
    const ssize_t rc = ::write(fd, data + written, n - written);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::Aborted("proc wire: peer closed the channel (" +
                               std::string(std::strerror(errno)) + ")");
      }
      return Status::Internal(std::string("proc wire: write failed: ") +
                              std::strerror(errno));
    }
    written += static_cast<size_t>(rc);
  }
  return Status::OK();
}

using Clock = std::chrono::steady_clock;

/// Milliseconds left until `deadline`, rounded down; <= 0 = expired.
int RemainingMs(Clock::time_point deadline) {
  return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - Clock::now())
                              .count());
}

/// WriteAll with an absolute give-up point: the fd is flipped to
/// non-blocking for the duration and each would-block wait goes through
/// poll(POLLOUT) with the remaining budget, so a peer that stops draining
/// the pipe surfaces as DeadlineExceeded instead of wedging the writer.
Status WriteAllDeadline(int fd, const char* data, size_t n,
                        Clock::time_point deadline) {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("proc wire: fcntl failed: ") +
                            std::strerror(errno));
  }
  auto restore = [&]() { ::fcntl(fd, F_SETFL, flags); };
  size_t written = 0;
  while (written < n) {
    const ssize_t rc = ::write(fd, data + written, n - written);
    if (rc > 0) {
      written += static_cast<size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      restore();
      return Status::Aborted("proc wire: peer closed the channel (" +
                             std::string(std::strerror(errno)) + ")");
    }
    if (rc < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      restore();
      return Status::Internal(std::string("proc wire: write failed: ") +
                              std::strerror(errno));
    }
    // Pipe full: wait for drain within the remaining budget.
    const int remaining_ms = RemainingMs(deadline);
    if (remaining_ms <= 0) {
      restore();
      return Status::DeadlineExceeded("proc wire: write deadline expired");
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int prc = ::poll(&pfd, 1, remaining_ms);
    if (prc < 0 && errno != EINTR) {
      restore();
      return Status::Internal(std::string("proc wire: poll failed: ") +
                              std::strerror(errno));
    }
    if (prc == 0) {
      restore();
      return Status::DeadlineExceeded("proc wire: write deadline expired");
    }
  }
  restore();
  return Status::OK();
}

/// Bytes a frame occupies in front of its payload: u32 length + u8 type.
constexpr size_t kFrameHeaderBytes = sizeof(uint32_t) + 1;

/// A fresh buffer's size: one page holds a trial answer of ~200 observed
/// predicates, so steady-state reads never grow it.
constexpr size_t kInitialReadBuffer = 4096;

/// A buffer grown past this for one long frame (a subject spec, a stats
/// document) is released once drained instead of being kept for the
/// channel's lifetime.
constexpr size_t kRetainedReadBuffer = 64 * 1024;

}  // namespace

namespace {

/// One contiguous buffer per frame: a single write() syscall -- and, over
/// TCP_NODELAY sockets, a single segment -- instead of a header write plus
/// a payload write on the per-trial hot path.
std::string AssembleFrame(ProcMsgType type, std::string_view payload) {
  WireWriter frame;
  frame.U32(static_cast<uint32_t>(payload.size()) + 1);
  frame.U8(static_cast<uint8_t>(type));
  frame.Raw(payload);
  return frame.Release();
}

}  // namespace

Status WriteFrame(int fd, ProcMsgType type, std::string_view payload) {
  IgnoreSigpipeOnce();
  if (payload.size() > kProcMaxFramePayload) {
    return Status::InvalidArgument("proc wire: frame payload too large (" +
                                   std::to_string(payload.size()) + " bytes)");
  }
  const std::string frame = AssembleFrame(type, payload);
  return WriteAll(fd, frame.data(), frame.size());
}

Status WriteFrameDeadline(int fd, ProcMsgType type, std::string_view payload,
                          int deadline_ms) {
  if (deadline_ms <= 0) return WriteFrame(fd, type, payload);
  IgnoreSigpipeOnce();
  if (payload.size() > kProcMaxFramePayload) {
    return Status::InvalidArgument("proc wire: frame payload too large (" +
                                   std::to_string(payload.size()) + " bytes)");
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  const std::string frame = AssembleFrame(type, payload);
  return WriteAllDeadline(fd, frame.data(), frame.size(), deadline);
}

void FrameReader::Reserve(size_t frame_bytes) {
  // Only an incomplete frame is left (complete ones were parsed first), so
  // moving it to the front is cheap.
  if (begin_ > 0) {
    std::memmove(buffer_.get(), buffer_.get() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (capacity_ >= frame_bytes) return;
  const size_t capacity =
      std::max({frame_bytes, kInitialReadBuffer, 2 * capacity_});
  auto grown = std::make_unique_for_overwrite<char[]>(capacity);
  if (end_ > 0) std::memcpy(grown.get(), buffer_.get(), end_);
  buffer_ = std::move(grown);
  capacity_ = capacity;
}

Result<ProcFrame> FrameReader::Read(int fd, int deadline_ms) {
  const bool has_deadline = deadline_ms > 0;
  const Clock::time_point deadline =
      has_deadline ? Clock::now() + std::chrono::milliseconds(deadline_ms)
                   : Clock::time_point::max();
  for (;;) {
    // Parse first: a frame may already sit whole in the buffer.
    size_t need = kFrameHeaderBytes;
    if (end_ - begin_ >= sizeof(uint32_t)) {
      const uint32_t length =
          WireReader(std::string_view(buffer_.get() + begin_, sizeof(uint32_t)))
              .U32();
      if (length < 1 || length > kProcMaxFramePayload + 1) {
        return Status::InvalidArgument("proc wire: corrupt frame length " +
                                       std::to_string(length));
      }
      need = sizeof(uint32_t) + length;
      if (end_ - begin_ >= need) {
        const char* frame_start = buffer_.get() + begin_;
        ProcFrame frame;
        frame.type = static_cast<ProcMsgType>(
            static_cast<uint8_t>(frame_start[sizeof(uint32_t)]));
        frame.payload.assign(frame_start + kFrameHeaderBytes,
                             need - kFrameHeaderBytes);
        begin_ += need;
        if (begin_ == end_) {
          begin_ = end_ = 0;
          if (capacity_ > kRetainedReadBuffer) {
            buffer_.reset();
            capacity_ = 0;
          }
        }
        return frame;
      }
    }
    Reserve(need);
    if (has_deadline) {
      const int remaining_ms = RemainingMs(deadline);
      if (remaining_ms <= 0) {
        return Status::DeadlineExceeded("proc wire: read deadline expired");
      }
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int rc = ::poll(&pfd, 1, remaining_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(std::string("proc wire: poll failed: ") +
                                std::strerror(errno));
      }
      if (rc == 0) {
        return Status::DeadlineExceeded("proc wire: read deadline expired");
      }
      // POLLHUP with buffered data still reads; plain read() below decides.
    }
    const ssize_t rc = ::read(fd, buffer_.get() + end_, capacity_ - end_);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) {
        return Status::Aborted("proc wire: peer reset the connection");
      }
      return Status::Internal(std::string("proc wire: read failed: ") +
                              std::strerror(errno));
    }
    if (rc == 0) {
      // The only writer is the peer process: EOF, mid-frame or between
      // frames, means it died.
      return Status::Aborted("proc wire: peer closed the channel (EOF)");
    }
    end_ += static_cast<size_t>(rc);
  }
}

Status PipeChannel::Write(ProcMsgType type, std::string_view payload,
                          int deadline_ms) {
  if (write_fd_ < 0) {
    return Status::Internal("pipe channel: write side is closed");
  }
  return WriteFrameDeadline(write_fd_, type, payload, deadline_ms);
}

Result<ProcFrame> PipeChannel::Read(int deadline_ms) {
  if (read_fd_ < 0) {
    return Status::Internal("pipe channel: read side is closed");
  }
  return reader_.Read(read_fd_, deadline_ms);
}

void PipeChannel::Close() {
  if (owns_fds_) {
    if (read_fd_ >= 0) ::close(read_fd_);
    if (write_fd_ >= 0 && write_fd_ != read_fd_) ::close(write_fd_);
  }
  read_fd_ = -1;
  write_fd_ = -1;
}

#else  // !AID_PROC_SUPPORTED

Status WriteFrame(int, ProcMsgType, std::string_view) {
  return Status::Unimplemented(
      "proc wire: pipes are unavailable on this platform");
}

Status WriteFrameDeadline(int, ProcMsgType, std::string_view, int) {
  return Status::Unimplemented(
      "proc wire: pipes are unavailable on this platform");
}

Result<ProcFrame> FrameReader::Read(int, int) {
  return Status::Unimplemented(
      "proc wire: pipes are unavailable on this platform");
}

Status PipeChannel::Write(ProcMsgType, std::string_view, int) {
  return Status::Unimplemented(
      "proc wire: pipes are unavailable on this platform");
}

Result<ProcFrame> PipeChannel::Read(int) {
  return Status::Unimplemented(
      "proc wire: pipes are unavailable on this platform");
}

void PipeChannel::Close() {
  read_fd_ = -1;
  write_fd_ = -1;
}

#endif  // AID_PROC_SUPPORTED

// -------------------------------------------------------------- messages --

std::string EncodeHello(const HelloMsg& msg) {
  WireWriter writer;
  writer.U32(msg.magic);
  writer.U32(msg.version);
  writer.U64(msg.pid);
  return writer.Release();
}

Result<HelloMsg> DecodeHello(std::string_view payload) {
  WireReader reader(payload);
  HelloMsg msg;
  msg.magic = reader.U32();
  msg.version = reader.U32();
  msg.pid = reader.U64();
  AID_RETURN_IF_ERROR(reader.Finish());
  if (msg.magic != kProcMagic) {
    return Status::InvalidArgument(
        "proc wire: HELLO magic mismatch (not a subject host?)");
  }
  return msg;
}

std::string EncodeReady(const ReadyMsg& msg) {
  WireWriter writer;
  writer.U32(msg.catalog_size);
  return writer.Release();
}

Result<ReadyMsg> DecodeReady(std::string_view payload) {
  WireReader reader(payload);
  ReadyMsg msg;
  msg.catalog_size = reader.U32();
  AID_RETURN_IF_ERROR(reader.Finish());
  return msg;
}

std::string EncodeError(const Status& status) {
  WireWriter writer;
  writer.U32(static_cast<uint32_t>(status.code()));
  writer.Str(status.message());
  return writer.Release();
}

Result<ErrorMsg> DecodeError(std::string_view payload) {
  WireReader reader(payload);
  ErrorMsg msg;
  msg.code = static_cast<StatusCode>(reader.U32());
  msg.message = reader.Str();
  AID_RETURN_IF_ERROR(reader.Finish());
  if (msg.code == StatusCode::kOk) {
    // An ERROR frame must carry an error; a peer sending OK is confused.
    msg.code = StatusCode::kInternal;
  }
  return msg;
}

std::string EncodeRunTrial(const RunTrialMsg& msg) {
  WireWriter writer;
  writer.U64(msg.trial_index);
  writer.U32(static_cast<uint32_t>(msg.intervened.size()));
  for (PredicateId id : msg.intervened) writer.I32(id);
  if (msg.has_span_context) {
    // Optional trailing SPAN_CONTEXT (telemetry). Absent = bytes identical
    // to pre-telemetry builds; see the wire.h compatibility note.
    writer.U64(msg.trace_id);
    writer.U64(msg.parent_span_id);
  }
  return writer.Release();
}

Result<RunTrialMsg> DecodeRunTrial(std::string_view payload) {
  WireReader reader(payload);
  RunTrialMsg msg;
  msg.trial_index = reader.U64();
  const uint32_t count = reader.Count(sizeof(PredicateId));
  AID_RETURN_IF_ERROR(reader.status());
  msg.intervened.reserve(count);
  for (uint32_t i = 0; i < count; ++i) msg.intervened.push_back(reader.I32());
  if (reader.ok() && reader.remaining() > 0) {
    msg.trace_id = reader.U64();
    msg.parent_span_id = reader.U64();
    msg.has_span_context = reader.ok();
  }
  AID_RETURN_IF_ERROR(reader.Finish());
  return msg;
}

/// Wire size of one observed predicate: i32 id + i64 start + i64 end.
constexpr size_t kObservationBytes = sizeof(int32_t) + 2 * sizeof(int64_t);

std::string EncodeTrialResult(const TrialResultMsg& msg) {
  WireWriter writer;
  writer.U8(msg.log.failed ? 1 : 0);
  writer.U32(static_cast<uint32_t>(msg.log.observed.size()));
  for (const auto& [id, observation] : msg.log.observed) {
    writer.I32(id);
    writer.I64(observation.start);
    writer.I64(observation.end);
  }
  if (msg.has_host_telemetry) {
    // Optional trailing host-telemetry block, mirrored on RUN_TRIAL's
    // SPAN_CONTEXT: absent unless the engine asked for it.
    writer.U64(msg.host_recv_us);
    writer.U32(static_cast<uint32_t>(msg.host_spans.size()));
    for (const WireHostSpan& span : msg.host_spans) {
      writer.Str(span.name);
      writer.U64(span.start_us);
      writer.U64(span.end_us);
    }
  }
  return writer.Release();
}

Result<TrialResultMsg> DecodeTrialResult(std::string_view payload) {
  WireReader reader(payload);
  TrialResultMsg msg;
  msg.log.failed = reader.U8() != 0;
  const uint32_t count = reader.Count(kObservationBytes);
  AID_RETURN_IF_ERROR(reader.status());
  msg.log.observed.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const PredicateId id = reader.I32();
    PredicateObservation& observation = msg.log.observed[id];
    observation.start = reader.I64();
    observation.end = reader.I64();
  }
  if (reader.ok() && reader.remaining() > 0) {
    msg.host_recv_us = reader.U64();
    const uint32_t spans =
        reader.Count(sizeof(uint32_t) + 2 * sizeof(uint64_t));
    AID_RETURN_IF_ERROR(reader.status());
    msg.host_spans.reserve(spans);
    for (uint32_t i = 0; i < spans; ++i) {
      WireHostSpan span;
      span.name = reader.Str();
      span.start_us = reader.U64();
      span.end_us = reader.U64();
      msg.host_spans.push_back(std::move(span));
    }
    msg.has_host_telemetry = reader.ok();
  }
  AID_RETURN_IF_ERROR(reader.Finish());
  return msg;
}

std::string EncodePing(const PingMsg& msg) {
  WireWriter writer;
  writer.U64(msg.token);
  return writer.Release();
}

Result<PingMsg> DecodePing(std::string_view payload) {
  WireReader reader(payload);
  PingMsg msg;
  msg.token = reader.U64();
  AID_RETURN_IF_ERROR(reader.Finish());
  return msg;
}

std::string EncodeStatsReply(const StatsReplyMsg& msg) {
  WireWriter writer;
  writer.Str(msg.json);
  return writer.Release();
}

Result<StatsReplyMsg> DecodeStatsReply(std::string_view payload) {
  WireReader reader(payload);
  StatsReplyMsg msg;
  msg.json = reader.Str();
  AID_RETURN_IF_ERROR(reader.Finish());
  return msg;
}

}  // namespace aid
