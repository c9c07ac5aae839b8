// The AID subject wire protocol (version 3).
//
// A debugging engine and a subject host speak length-prefixed binary frames
// over any byte transport -- the pipe pair of a fork/exec'd child
// (proc::SubprocessTarget, the child's stdin/stdout) or a TCP connection to
// a remote runner (net::RemoteTarget / the aid_runner daemon). Every frame
// is
//
//   [u32 length][u8 type][payload (length - 1 bytes)]
//
// with all integers little-endian (trace/serialize.h WireWriter/WireReader).
// The conversation:
//
//   host   -> engine   HELLO      magic, protocol version, pid
//   engine -> host     SPEC       serialized SubjectSpec (proc/subject_spec)
//   host   -> engine   READY      catalog size (id-space sanity check)
//                   or ERROR      status code + message (bad spec, failed
//                                 observation, version mismatch)
//   engine -> host     RUN_TRIAL  global trial index + intervened predicates
//   host   -> engine   TRIAL_RESULT  verdict + every observed predicate
//                   or ERROR      subject-level error for this trial
//   ...                (RUN_TRIAL repeats)
//   engine -> host     PING       keepalive probe (any time between trials)
//   host   -> engine   PONG       echoed token
//   engine -> host     STATS      stats request (any time; runner daemons)
//   host   -> engine   STATS_REPLY  JSON stats document
//   engine -> host     SHUTDOWN   host exits 0
//
// Version 2 added the PING/PONG keepalive pair (idle fleet connections need
// a liveness probe; over pipes the pair is a harmless no-op). Version 3
// answers a trial with ONE TRIAL_RESULT frame -- one write on the host, one
// read on the engine -- where v2 streamed a TRACE_EVENT frame per observed
// predicate and closed the trial with a VERDICT. A trial the subject does
// not finish (crash, hang) therefore carries no observations at all.
//
// Optional trailing blocks (appended only when the sender's telemetry is
// enabled; decoders accept frames with or without them): RUN_TRIAL may
// carry a SPAN_CONTEXT (trace id + parent span id), and TRIAL_RESULT then
// carries a host-telemetry block (receive timestamp + host-side spans). The
// STATS / STATS_REPLY pair is additive too: hosts that predate it answer
// with their normal unexpected-frame ERROR, which stats clients surface as
// "unsupported".
//
// Failure semantics live at the transport layer: an EOF or write error means
// the peer died (the engine records a crashed trial and respawns or
// reconnects); a read deadline expiring means the subject hung (the engine
// SIGKILLs or drops the connection and records a timed-out trial). See
// docs/proc_protocol.md and docs/remote_protocol.md for the full
// specification.
//
// WriteFrame/WriteFrameDeadline write one frame with one write(2); a
// FrameReader parses frames out of a per-channel buffer filled by one
// read(2) per wake-up. FrameChannel wraps both behind a transport-agnostic
// interface (PipeChannel here, net::SocketChannel for TCP) so protocol
// drivers -- proc/client.h, proc/subject_host -- never care which transport
// carries their frames.
//
// Platform support: the transports use POSIX descriptors. On platforms
// without them, SubprocessIsolationSupported() returns false and every
// transport entry point returns Unimplemented.

#ifndef AID_PROC_WIRE_H_
#define AID_PROC_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "predicates/predicate.h"
#include "trace/serialize.h"

#if defined(__unix__) || defined(__APPLE__)
#define AID_PROC_SUPPORTED 1
#else
#define AID_PROC_SUPPORTED 0
#endif

namespace aid {

/// True when this build can fork/exec sandboxed subject hosts.
constexpr bool SubprocessIsolationSupported() {
  return AID_PROC_SUPPORTED != 0;
}

inline constexpr uint32_t kProcMagic = 0x41494450;  // "AIDP"
/// v2 = v1 + the PING/PONG keepalive pair; v3 = one TRIAL_RESULT per trial.
inline constexpr uint32_t kProcProtocolVersion = 3;

/// Frames larger than this are rejected as corrupt before any allocation;
/// real frames are dominated by subject specs (programs/models, ~KBs).
inline constexpr uint32_t kProcMaxFramePayload = 64u << 20;

enum class ProcMsgType : uint8_t {
  kHello = 1,
  kSpec = 2,
  kReady = 3,
  kError = 4,
  kRunTrial = 5,
  // 6 and 7 stay unassigned: v2 peers sent per-predicate frames with them.
  kShutdown = 8,
  kPing = 9,
  kPong = 10,
  kStats = 11,
  kStatsReply = 12,
  kTrialResult = 13,
};

std::string_view ProcMsgTypeName(ProcMsgType type);

struct ProcFrame {
  ProcMsgType type = ProcMsgType::kError;
  std::string payload;
};

// ----------------------------------------------------------- transport ----

/// Writes one frame, retrying on EINTR and short writes. Returns Aborted
/// when the peer has closed its end (EPIPE), Internal on other I/O errors.
/// SIGPIPE is ignored process-wide on first use (standard practice for
/// pipe-speaking libraries; a closed peer must surface as a Status, not a
/// signal).
Status WriteFrame(int fd, ProcMsgType type, std::string_view payload);

/// Same, but gives up with DeadlineExceeded after `deadline_ms` if the peer
/// stops draining the pipe (poll()-based, temporarily non-blocking). Large
/// payloads (subject specs can exceed the pipe buffer) must use this when
/// the peer is untrusted: a wedged reader must not wedge the writer.
/// deadline_ms <= 0 means block indefinitely.
Status WriteFrameDeadline(int fd, ProcMsgType type, std::string_view payload,
                          int deadline_ms);

/// Buffered frame reader, one per channel (PipeChannel and SocketChannel
/// share it). Each wake-up costs one read(2) of whatever the peer has sent;
/// frames are parsed out of the buffer, and bytes past the returned frame
/// stay buffered for the next Read. The buffer is allocated on first use at
/// a few KiB, grows only to fit a longer frame, and drops back once a
/// large frame has been consumed.
class FrameReader {
 public:
  /// Reads one frame from `fd`, giving up after `deadline_ms` measured
  /// across the whole frame (poll()-based; <= 0 blocks indefinitely).
  /// Aborted on EOF or ECONNRESET (the peer died, mid-frame or not);
  /// InvalidArgument on a corrupt length prefix, which is checked against
  /// kProcMaxFramePayload before the buffer grows; DeadlineExceeded on
  /// expiry, with the bytes received so far kept buffered.
  Result<ProcFrame> Read(int fd, int deadline_ms = 0);

 private:
  /// Makes room for a frame of `frame_bytes` (header included) starting at
  /// begin_: compacts the buffer, and grows it when the frame is longer.
  void Reserve(size_t frame_bytes);

  std::unique_ptr<char[]> buffer_;
  size_t capacity_ = 0;
  size_t begin_ = 0;  ///< first unconsumed byte
  size_t end_ = 0;    ///< one past the last received byte
};

// ------------------------------------------------------------- channels ----

/// A bidirectional frame transport: the seam between the protocol drivers
/// (proc/client.h, proc/subject_host) and whatever bytes actually carry the
/// frames. Every operation takes a deadline in milliseconds (<= 0 = block
/// indefinitely); all EINTR retrying happens below this interface.
///
/// Status vocabulary, shared by all implementations:
///   Aborted          -- the peer is gone (EOF, EPIPE, ECONNRESET);
///   DeadlineExceeded -- the peer is alive but silent / not draining;
///   InvalidArgument  -- corrupt frame (bad length prefix);
///   Internal         -- local I/O failure.
///
/// Channels are not thread-safe; one conversation owns one channel.
class FrameChannel {
 public:
  virtual ~FrameChannel() = default;

  virtual Status Write(ProcMsgType type, std::string_view payload,
                       int deadline_ms = 0) = 0;
  virtual Result<ProcFrame> Read(int deadline_ms = 0) = 0;

  /// Releases the transport (idempotent). Further Read/Write fail Internal.
  virtual void Close() = 0;
  virtual bool open() const = 0;

  /// Transport name for error messages ("pipe", "socket").
  virtual std::string_view transport() const = 0;
};

/// FrameChannel over a unidirectional descriptor pair -- the subprocess
/// transport (parent side: child stdin/stdout; host side: its own 0/1).
class PipeChannel : public FrameChannel {
 public:
  /// `owns_fds`: close the descriptors on Close()/destruction. The host
  /// side wraps stdin/stdout non-owning.
  PipeChannel(int read_fd, int write_fd, bool owns_fds)
      : read_fd_(read_fd), write_fd_(write_fd), owns_fds_(owns_fds) {}
  ~PipeChannel() override { Close(); }

  PipeChannel(const PipeChannel&) = delete;
  PipeChannel& operator=(const PipeChannel&) = delete;

  Status Write(ProcMsgType type, std::string_view payload,
               int deadline_ms = 0) override;
  Result<ProcFrame> Read(int deadline_ms = 0) override;
  void Close() override;
  bool open() const override { return read_fd_ >= 0 || write_fd_ >= 0; }
  std::string_view transport() const override { return "pipe"; }

 private:
  int read_fd_;
  int write_fd_;
  bool owns_fds_;
  FrameReader reader_;
};

// ------------------------------------------------------------ messages ----

struct HelloMsg {
  uint32_t magic = kProcMagic;
  uint32_t version = kProcProtocolVersion;
  uint64_t pid = 0;
};

struct ReadyMsg {
  /// Size of the child's predicate catalog. The parent cross-checks it
  /// against its own catalog: a mismatch means the spec did not reconstruct
  /// the same predicate id space and every answer would be garbage.
  uint32_t catalog_size = 0;
};

struct ErrorMsg {
  StatusCode code = StatusCode::kInternal;
  std::string message;

  Status ToStatus() const { return Status(code, message); }
};

struct RunTrialMsg {
  /// Global trial index: the child SeekTrial()s here before executing, so
  /// all per-trial nondeterminism is positional (exec/replicable.h) and any
  /// replica produces the bytes serial dispatch would have.
  uint64_t trial_index = 0;
  std::vector<PredicateId> intervened;
  /// Optional trailing SPAN_CONTEXT (telemetry): the engine-side trace and
  /// parent span this trial executes under. Encoded only when
  /// has_span_context -- with it false the bytes are identical to
  /// pre-telemetry builds.
  bool has_span_context = false;
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
};

/// One host-side span carried back in a TRIAL_RESULT's telemetry block.
/// Times are microseconds on the HOST's steady clock; the engine re-bases
/// them into its tracer timeline (see proc/client.cc).
struct WireHostSpan {
  std::string name;
  uint64_t start_us = 0;
  uint64_t end_us = 0;
};

/// The host's whole answer to one RUN_TRIAL (v3):
///
///   u8  failed
///   u32 count, then count x (i32 predicate, i64 start, i64 end)
///   [u64 host_recv_us, u32 span count, spans x (str name, u64, u64)]
///
/// The bracketed host-telemetry block is appended only when the RUN_TRIAL
/// carried a SPAN_CONTEXT: the host clock's timestamp at which the
/// RUN_TRIAL was received (the engine's re-basing anchor) and the
/// host-side spans of this trial.
struct TrialResultMsg {
  /// The verdict and the observed predicates. The outcome is not on the
  /// wire: a decoded result is a completed trial.
  PredicateLog log;
  bool has_host_telemetry = false;
  uint64_t host_recv_us = 0;
  std::vector<WireHostSpan> host_spans;
};

/// Keepalive probe. The host echoes the token back in its PONG so a prober
/// can match responses even after stale frames (v2).
struct PingMsg {
  uint64_t token = 0;
};

/// STATS_REPLY: a self-describing JSON document (uptime, sessions, trial
/// counts, latency histogram). JSON rather than packed fields so
/// `aid_runner --stats` output is directly consumable by scripts and the
/// schema can grow without a protocol change. The STATS request itself has
/// an empty payload.
struct StatsReplyMsg {
  std::string json;
};

std::string EncodeHello(const HelloMsg& msg);
Result<HelloMsg> DecodeHello(std::string_view payload);
std::string EncodeReady(const ReadyMsg& msg);
Result<ReadyMsg> DecodeReady(std::string_view payload);
std::string EncodeError(const Status& status);
Result<ErrorMsg> DecodeError(std::string_view payload);
std::string EncodeRunTrial(const RunTrialMsg& msg);
Result<RunTrialMsg> DecodeRunTrial(std::string_view payload);
std::string EncodeTrialResult(const TrialResultMsg& msg);
/// InvalidArgument for any payload that is not exactly one well-formed
/// TRIAL_RESULT (count past the payload, truncated entry or telemetry
/// block, trailing bytes); a hostile count never sizes an allocation.
Result<TrialResultMsg> DecodeTrialResult(std::string_view payload);
std::string EncodePing(const PingMsg& msg);
Result<PingMsg> DecodePing(std::string_view payload);
std::string EncodeStatsReply(const StatsReplyMsg& msg);
Result<StatsReplyMsg> DecodeStatsReply(std::string_view payload);

}  // namespace aid

#endif  // AID_PROC_WIRE_H_
