// Tests of the process-isolation wire protocol: frame transport over real
// pipes (framing, EOF, deadlines, corrupt lengths), message codecs, and the
// subject-spec codec that ships whole subjects across the process boundary.

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

  auto frame = ReadFrame(pipe.read_fd());
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, ProcMsgType::kRunTrial);
  auto decoded = DecodeRunTrial(frame->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->trial_index, 42u);
  EXPECT_EQ(decoded->intervened, request.intervened);

  auto shutdown = ReadFrame(pipe.read_fd());
  ASSERT_TRUE(shutdown.ok());
  EXPECT_EQ(shutdown->type, ProcMsgType::kShutdown);
  EXPECT_TRUE(shutdown->payload.empty());
}

TEST(ProcWireTest, EofSurfacesAsAborted) {
  PipePair pipe;
  pipe.CloseWrite();
  auto frame = ReadFrame(pipe.read_fd());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kAborted);
}

TEST(ProcWireTest, TruncatedFrameSurfacesAsAborted) {
  PipePair pipe;
  // A length prefix promising 100 bytes, then EOF after 3.
  WireWriter writer;
  writer.U32(100);
  writer.U8(static_cast<uint8_t>(ProcMsgType::kVerdict));
  writer.Raw("ab");
  ASSERT_EQ(::write(pipe.write_fd(), writer.buffer().data(),
                    writer.buffer().size()),
            static_cast<ssize_t>(writer.buffer().size()));
  pipe.CloseWrite();
  auto frame = ReadFrame(pipe.read_fd());
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
  auto frame = ReadFrame(pipe.read_fd());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProcWireTest, DeadlineExpiresOnASilentPeer) {
  PipePair pipe;
  const auto start = std::chrono::steady_clock::now();
  auto frame = ReadFrameDeadline(pipe.read_fd(), 50);
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
    VerdictMsg verdict;
    verdict.failed = true;
    EXPECT_TRUE(WriteFrame(pipe.write_fd(), ProcMsgType::kVerdict,
                           EncodeVerdict(verdict))
                    .ok());
  });
  auto frame = ReadFrameDeadline(pipe.read_fd(), 5000);
  writer.join();
  ASSERT_TRUE(frame.ok()) << frame.status();
  auto verdict = DecodeVerdict(frame->payload);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict->failed);
}

#else  // !AID_PROC_SUPPORTED

TEST(ProcWireTest, UnsupportedPlatformReportsUnimplemented) {
  EXPECT_EQ(ReadFrame(0).status().code(), StatusCode::kUnimplemented);
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
