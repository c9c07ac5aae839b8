// Tests of the process-isolation wire protocol: frame transport over real
// pipes (framing, buffered reads, EOF, deadlines, corrupt lengths), message
// codecs (hostile TRIAL_RESULT payloads included), and the subject-spec
// codec that ships whole subjects across the process boundary.

#include "proc/wire.h"

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "proc/subject_spec.h"
#include "runtime/program.h"
#include "runtime/program_io.h"
#include "synth/generator.h"

#if AID_PROC_SUPPORTED
#include <fcntl.h>
#include <unistd.h>
#endif

namespace aid {
namespace {

#if AID_PROC_SUPPORTED

class PipePair {
 public:
  PipePair() { EXPECT_EQ(::pipe(fds_), 0); }
  ~PipePair() {
    CloseRead();
    CloseWrite();
  }
  int read_fd() const { return fds_[0]; }
  int write_fd() const { return fds_[1]; }
  void CloseRead() {
    if (fds_[0] >= 0) ::close(fds_[0]);
    fds_[0] = -1;
  }
  void CloseWrite() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }

 private:
  int fds_[2] = {-1, -1};
};

TEST(ProcWireTest, FramesRoundTripOverAPipe) {
  PipePair pipe;
  RunTrialMsg request;
  request.trial_index = 42;
  request.intervened = {3, 1, 4, 1, 5};
  ASSERT_TRUE(WriteFrame(pipe.write_fd(), ProcMsgType::kRunTrial,
                         EncodeRunTrial(request))
                  .ok());
  ASSERT_TRUE(WriteFrame(pipe.write_fd(), ProcMsgType::kShutdown, {}).ok());

  FrameReader reader;
  auto frame = reader.Read(pipe.read_fd());
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, ProcMsgType::kRunTrial);
  auto decoded = DecodeRunTrial(frame->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->trial_index, 42u);
  EXPECT_EQ(decoded->intervened, request.intervened);

  auto shutdown = reader.Read(pipe.read_fd());
  ASSERT_TRUE(shutdown.ok());
  EXPECT_EQ(shutdown->type, ProcMsgType::kShutdown);
  EXPECT_TRUE(shutdown->payload.empty());
}

TEST(ProcWireTest, EofSurfacesAsAborted) {
  PipePair pipe;
  pipe.CloseWrite();
  auto frame = FrameReader().Read(pipe.read_fd());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kAborted);
}

TEST(ProcWireTest, TruncatedFrameSurfacesAsAborted) {
  PipePair pipe;
  // A length prefix promising 100 bytes, then EOF after 3.
  WireWriter writer;
  writer.U32(100);
  writer.U8(static_cast<uint8_t>(ProcMsgType::kTrialResult));
  writer.Raw("ab");
  ASSERT_EQ(::write(pipe.write_fd(), writer.buffer().data(),
                    writer.buffer().size()),
            static_cast<ssize_t>(writer.buffer().size()));
  pipe.CloseWrite();
  auto frame = FrameReader().Read(pipe.read_fd());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kAborted);
}

TEST(ProcWireTest, CorruptLengthIsInvalidArgument) {
  PipePair pipe;
  WireWriter writer;
  writer.U32(0);  // a frame must carry at least its type byte
  ASSERT_EQ(::write(pipe.write_fd(), writer.buffer().data(),
                    writer.buffer().size()),
            static_cast<ssize_t>(writer.buffer().size()));
  auto frame = FrameReader().Read(pipe.read_fd());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProcWireTest, DeadlineExpiresOnASilentPeer) {
  PipePair pipe;
  const auto start = std::chrono::steady_clock::now();
  auto frame = FrameReader().Read(pipe.read_fd(), 50);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            45);
}

TEST(ProcWireTest, WriteDeadlineExpiresWhenThePeerStopsDraining) {
  PipePair pipe;
  // Nobody reads: a payload far beyond any pipe buffer must hit the
  // deadline instead of wedging the writer forever.
  const std::string big(4 << 20, 'x');
  const Status status =
      WriteFrameDeadline(pipe.write_fd(), ProcMsgType::kSpec, big, 100);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  // The fd is back in blocking mode afterwards.
  const int flags = ::fcntl(pipe.write_fd(), F_GETFL);
  EXPECT_EQ(flags & O_NONBLOCK, 0);
}

TEST(ProcWireTest, DeadlineReadStillDeliversPromptFrames) {
  PipePair pipe;
  std::thread writer([&pipe]() {
    TrialResultMsg result;
    result.log.failed = true;
    EXPECT_TRUE(WriteFrame(pipe.write_fd(), ProcMsgType::kTrialResult,
                           EncodeTrialResult(result))
                    .ok());
  });
  auto frame = FrameReader().Read(pipe.read_fd(), 5000);
  writer.join();
  ASSERT_TRUE(frame.ok()) << frame.status();
  auto result = DecodeTrialResult(frame->payload);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->log.failed);
}

/// The bytes of one whole frame, as a single WriteFrame would send them.
std::string FrameBytes(ProcMsgType type, std::string_view payload) {
  WireWriter writer;
  writer.U32(static_cast<uint32_t>(payload.size()) + 1);
  writer.U8(static_cast<uint8_t>(type));
  writer.Raw(payload);
  return writer.Release();
}

void WriteRaw(int fd, std::string_view bytes) {
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
}

TEST(ProcWireTest, BufferedReaderReturnsTwoFramesFromOneWrite) {
  PipePair pipe;
  PingMsg ping;
  ping.token = 7;
  WriteRaw(pipe.write_fd(), FrameBytes(ProcMsgType::kPing, EncodePing(ping)) +
                                FrameBytes(ProcMsgType::kShutdown, ""));
  FrameReader reader;
  auto first = reader.Read(pipe.read_fd(), 1000);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->type, ProcMsgType::kPing);
  auto token = DecodePing(first->payload);
  ASSERT_TRUE(token.ok());
  EXPECT_EQ(token->token, 7u);
  // The second frame arrived with the first and waits in the buffer: with
  // the pipe closed, a reader that had dropped it would see EOF.
  pipe.CloseWrite();
  auto second = reader.Read(pipe.read_fd(), 1000);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->type, ProcMsgType::kShutdown);
  EXPECT_TRUE(second->payload.empty());
}

TEST(ProcWireTest, BufferedReaderJoinsAFrameSplitAcrossThreeWrites) {
  PipePair pipe;
  TrialResultMsg result;
  result.log.failed = true;
  for (PredicateId id = 0; id < 300; ++id) result.log.observed[id] = {id, id + 1};
  const std::string bytes =
      FrameBytes(ProcMsgType::kTrialResult, EncodeTrialResult(result));
  ASSERT_GT(bytes.size(), 4096u);  // longer than a fresh buffer, too
  // Split inside the length prefix and again inside the payload.
  std::thread writer([&]() {
    WriteRaw(pipe.write_fd(), std::string_view(bytes).substr(0, 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    WriteRaw(pipe.write_fd(), std::string_view(bytes).substr(2, 1000));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    WriteRaw(pipe.write_fd(), std::string_view(bytes).substr(1002));
  });
  FrameReader reader;
  auto frame = reader.Read(pipe.read_fd(), 5000);
  writer.join();
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, ProcMsgType::kTrialResult);
  auto decoded = DecodeTrialResult(frame->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->log.failed);
  EXPECT_EQ(decoded->log.observed.size(), 300u);
  EXPECT_EQ(decoded->log.observed.at(299).end, 300);
}

TEST(ProcWireTest, DeadlineKeepsAPartialFrameBuffered) {
  PipePair pipe;
  const std::string bytes = FrameBytes(ProcMsgType::kShutdown, "");
  WriteRaw(pipe.write_fd(), std::string_view(bytes).substr(0, 3));
  FrameReader reader;
  auto expired = reader.Read(pipe.read_fd(), 20);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  // The rest arrives late: the frame is still whole and aligned.
  WriteRaw(pipe.write_fd(), std::string_view(bytes).substr(3));
  auto frame = reader.Read(pipe.read_fd(), 1000);
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, ProcMsgType::kShutdown);
}

#else  // !AID_PROC_SUPPORTED

TEST(ProcWireTest, UnsupportedPlatformReportsUnimplemented) {
  EXPECT_EQ(FrameReader().Read(0).status().code(),
            StatusCode::kUnimplemented);
}

#endif  // AID_PROC_SUPPORTED

// --- message codecs (platform-independent) --------------------------------

TEST(ProcWireTest, HelloRejectsWrongMagic) {
  HelloMsg hello;
  hello.magic = 0x12345678;
  auto decoded = DecodeHello(EncodeHello(hello));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProcWireTest, ErrorMessageRoundTripsStatus) {
  const Status original = Status::NotFound("no such subject");
  auto decoded = DecodeError(EncodeError(original));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->ToStatus(), original);
}

TEST(ProcWireTest, TruncatedMessagePayloadsFailCleanly) {
  const std::string hello = EncodeHello(HelloMsg{});
  for (size_t cut = 0; cut < hello.size(); ++cut) {
    EXPECT_FALSE(DecodeHello(hello.substr(0, cut)).ok());
  }
  RunTrialMsg request;
  request.intervened = {1, 2, 3};
  const std::string run = EncodeRunTrial(request);
  for (size_t cut = 0; cut < run.size(); ++cut) {
    EXPECT_FALSE(DecodeRunTrial(run.substr(0, cut)).ok());
  }
}

TEST(ProcWireTest, TrialResultRoundTripsEveryObservation) {
  TrialResultMsg result;
  result.log.failed = true;
  result.log.observed[3] = {-5, 7};
  result.log.observed[1 << 20] = {1LL << 40, (1LL << 40) + 9};
  auto decoded = DecodeTrialResult(EncodeTrialResult(result));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->log.failed);
  EXPECT_TRUE(decoded->log.complete());
  ASSERT_EQ(decoded->log.observed.size(), 2u);
  EXPECT_EQ(decoded->log.observed.at(3).start, -5);
  EXPECT_EQ(decoded->log.observed.at(3).end, 7);
  EXPECT_EQ(decoded->log.observed.at(1 << 20).end, (1LL << 40) + 9);
  EXPECT_FALSE(decoded->has_host_telemetry);
}

/// One encoded observation entry: i32 predicate, i64 start, i64 end.
void AppendEntry(WireWriter& writer, PredicateId id) {
  writer.I32(id);
  writer.I64(10);
  writer.I64(20);
}

void ExpectHostileTrialResult(const std::string& payload) {
  auto decoded = DecodeTrialResult(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
      << decoded.status();
}

TEST(ProcWireTest, TrialResultWithACountPastThePayloadIsRejected) {
  // A count of ~4 billion entries behind 20 bytes: rejected before any
  // allocation is sized from it.
  WireWriter writer;
  writer.U8(0);
  writer.U32(0xFFFFFFFFu);
  AppendEntry(writer, 1);
  ExpectHostileTrialResult(writer.Release());
}

TEST(ProcWireTest, TrialResultWithATruncatedEntryIsRejected) {
  WireWriter writer;
  writer.U8(1);
  writer.U32(2);
  AppendEntry(writer, 1);
  AppendEntry(writer, 2);
  std::string payload = writer.Release();
  payload.resize(payload.size() - 3);  // the second entry loses its tail
  ExpectHostileTrialResult(payload);
  // A single missing byte of the only entry, too.
  WireWriter one;
  one.U8(1);
  one.U32(1);
  one.I32(1);
  one.I64(10);
  one.U32(20);  // four of the end's eight bytes
  ExpectHostileTrialResult(one.Release());
}

TEST(ProcWireTest, TrialResultWithATruncatedTelemetryBlockIsRejected) {
  TrialResultMsg result;
  result.log.observed[2] = {1, 2};
  result.has_host_telemetry = true;
  result.host_recv_us = 99;
  result.host_spans.push_back(WireHostSpan{"host.trial", 100, 200});
  const std::string whole = EncodeTrialResult(result);
  TrialResultMsg plain = result;
  plain.has_host_telemetry = false;
  const size_t block_start = EncodeTrialResult(plain).size();
  // Every cut strictly inside the telemetry block fails.
  for (size_t cut = block_start + 1; cut < whole.size(); ++cut) {
    ExpectHostileTrialResult(whole.substr(0, cut));
  }
  // A span count past the block's bytes fails without allocating.
  WireWriter writer;
  writer.U8(0);
  writer.U32(0);
  writer.U64(99);
  writer.U32(0xFFFFFFFFu);
  ExpectHostileTrialResult(writer.Release());
}

TEST(ProcWireTest, TrialResultWithTrailingGarbageIsRejected) {
  TrialResultMsg result;
  result.log.failed = true;
  result.log.observed[5] = {1, 2};
  ExpectHostileTrialResult(EncodeTrialResult(result) + "junk");
  result.has_host_telemetry = true;
  result.host_spans.push_back(WireHostSpan{"host.trial", 1, 2});
  ExpectHostileTrialResult(EncodeTrialResult(result) + "x");
  // A cut anywhere in front of the entries fails as well.
  const std::string whole = EncodeTrialResult(TrialResultMsg{});
  for (size_t cut = 0; cut < whole.size(); ++cut) {
    ExpectHostileTrialResult(whole.substr(0, cut));
  }
}

// --- subject specs --------------------------------------------------------

TEST(SubjectSpecTest, ModelSpecRoundTripsIdentically) {
  SyntheticAppOptions options;
  options.max_threads = 10;
  options.seed = 11;
  auto model = GenerateSyntheticApp(options);
  ASSERT_TRUE(model.ok());

  SubjectSpec spec;
  spec.kind = SubjectKind::kFlakyModel;
  spec.model = model->get();
  spec.manifest_probability = 0.625;
  spec.flaky_seed = 99;
  spec.crash_period = 17;
  auto encoded = EncodeSubjectSpec(spec);
  ASSERT_TRUE(encoded.ok()) << encoded.status();
  auto decoded = DecodeSubjectSpec(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  EXPECT_EQ(decoded->spec.kind, SubjectKind::kFlakyModel);
  EXPECT_EQ(decoded->spec.manifest_probability, 0.625);
  EXPECT_EQ(decoded->spec.flaky_seed, 99u);
  EXPECT_EQ(decoded->spec.crash_period, 17u);
  ASSERT_NE(decoded->model, nullptr);

  const GroundTruthModel& original = **model;
  const GroundTruthModel& copy = *decoded->model;
  // Identical id space and structure...
  EXPECT_EQ(copy.catalog().size(), original.catalog().size());
  EXPECT_EQ(copy.failure(), original.failure());
  EXPECT_EQ(copy.predicates(), original.predicates());
  EXPECT_EQ(copy.causal_chain(), original.causal_chain());
  EXPECT_EQ(copy.temporal_edges(), original.temporal_edges());
  // ...and identical behavior: execution under interventions matches.
  const std::vector<std::vector<PredicateId>> interventions = {
      {}, {original.root_cause()}, {original.predicates().front()}};
  for (const auto& intervened : interventions) {
    const PredicateLog a = original.Execute(intervened);
    const PredicateLog b = copy.Execute(intervened);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.observed.size(), b.observed.size());
    for (const auto& [id, obs] : a.observed) {
      ASSERT_TRUE(b.Has(id));
      EXPECT_EQ(b.observed.at(id).start, obs.start);
      EXPECT_EQ(b.observed.at(id).end, obs.end);
    }
  }
}

TEST(SubjectSpecTest, CaseSpecRoundTrips) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kCase;
  spec.case_key = "kafka";
  spec.hang_period = 5;
  auto encoded = EncodeSubjectSpec(spec);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeSubjectSpec(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->spec.kind, SubjectKind::kCase);
  EXPECT_EQ(decoded->spec.case_key, "kafka");
  EXPECT_EQ(decoded->spec.hang_period, 5u);
}

TEST(SubjectSpecTest, SelfInconsistentSpecsAreRejected) {
  SubjectSpec no_model;
  no_model.kind = SubjectKind::kModel;
  EXPECT_FALSE(EncodeSubjectSpec(no_model).ok());

  SubjectSpec no_key;
  no_key.kind = SubjectKind::kCase;
  EXPECT_FALSE(EncodeSubjectSpec(no_key).ok());

  SubjectSpec no_program;
  no_program.kind = SubjectKind::kVmProgram;
  EXPECT_FALSE(EncodeSubjectSpec(no_program).ok());
}

TEST(SubjectSpecTest, TruncatedSpecFailsCleanly) {
  SubjectSpec spec;
  spec.kind = SubjectKind::kCase;
  spec.case_key = "npgsql";
  auto encoded = EncodeSubjectSpec(spec);
  ASSERT_TRUE(encoded.ok());
  for (size_t cut = 0; cut < encoded->size(); ++cut) {
    EXPECT_FALSE(DecodeSubjectSpec(encoded->substr(0, cut)).ok());
  }
}

// --- program serialization ------------------------------------------------

TEST(ProgramIoTest, ProgramRoundTripsAndRunsIdentically) {
  ProgramBuilder builder;
  builder.Global("counter", 3);
  builder.Array("slots", 4);
  builder.Mutex("lock");
  auto worker = builder.Method("Worker");
  worker.Lock("lock")
      .LoadGlobal(0, "counter")
      .AddImm(0, 0, 1)
      .StoreGlobal("counter", 0)
      .Unlock("lock")
      .Return(0);
  auto main_method = builder.Method("Main");
  main_method.Spawn(1, "Worker")
      .Call(0, "Worker")
      .Join(1)
      .LoadGlobal(0, "counter")
      .ThrowIfZero(0, "Boom")
      .Return(0);
  auto program = builder.Build("Main");
  ASSERT_TRUE(program.ok()) << program.status();

  const std::string bytes = ProgramToBytes(*program);
  auto decoded = ProgramFromBytes(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();

  EXPECT_EQ(decoded->entry(), program->entry());
  EXPECT_EQ(decoded->methods().size(), program->methods().size());
  EXPECT_EQ(decoded->method_names().size(), program->method_names().size());
  EXPECT_EQ(decoded->object_names().size(), program->object_names().size());
  EXPECT_EQ(decoded->mutexes(), program->mutexes());
  EXPECT_EQ(decoded->globals(), program->globals());
  EXPECT_EQ(decoded->arrays(), program->arrays());
  // Bit-stable re-encode.
  EXPECT_EQ(ProgramToBytes(*decoded), bytes);
}

TEST(ProgramIoTest, TruncatedProgramFailsCleanly) {
  ProgramBuilder builder;
  builder.Global("x", 0);
  auto main_method = builder.Method("Main");
  main_method.LoadGlobal(0, "x").Return(0);
  auto program = builder.Build("Main");
  ASSERT_TRUE(program.ok());
  const std::string bytes = ProgramToBytes(*program);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(ProgramFromBytes(std::string_view(bytes).substr(0, cut)).ok());
  }
}

}  // namespace
}  // namespace aid
