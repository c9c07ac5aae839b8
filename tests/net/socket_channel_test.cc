// Tests of the socket frame transport: SocketChannel framing over a real
// socketpair (round trips, EOF/truncation, oversized-length rejection,
// deadlines), the engine-side handshake against a misbehaving peer
// (version mismatch, a v2 host), the v2 PING/PONG keepalive, endpoint
// parsing, and EINTR robustness of frame I/O under a signal storm.

#include "net/channel.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "net/socket.h"
#include "proc/client.h"
#include "proc/wire.h"

#if AID_NET_SUPPORTED
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace aid {
namespace {

// --- endpoint parsing (platform-independent) ------------------------------

TEST(EndpointTest, ParsesHostColonPort) {
  auto endpoint = ParseEndpoint("runner7.example:7601");
  ASSERT_TRUE(endpoint.ok()) << endpoint.status();
  EXPECT_EQ(endpoint->host, "runner7.example");
  EXPECT_EQ(endpoint->port, 7601);
  EXPECT_EQ(endpoint->ToString(), "runner7.example:7601");
}

TEST(EndpointTest, RejectsMalformedEndpoints) {
  for (const char* bad : {"", "nohost", ":7601", "host:", "host:abc",
                          "host:0", "host:65536", "host:70000",
                          "::1:7601"}) {
    EXPECT_FALSE(ParseEndpoint(bad).ok()) << bad;
  }
}

TEST(EndpointTest, ParseEndpointsFailsOnFirstBadEntry) {
  auto good = ParseEndpoints({"a:1", "b:2"});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->size(), 2u);
  EXPECT_FALSE(ParseEndpoints({"a:1", "broken"}).ok());
}

#if AID_NET_SUPPORTED

/// A connected AF_UNIX stream pair: the cheapest honest socket transport
/// (same read/write/poll semantics the TCP path sees).
class SocketPair {
 public:
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0); }
  ~SocketPair() {
    CloseA();
    CloseB();
  }
  int a() const { return fds_[0]; }
  int b() const { return fds_[1]; }
  /// Detaches the fd for handoff to an owning SocketChannel.
  int ReleaseA() { return std::exchange(fds_[0], -1); }
  int ReleaseB() { return std::exchange(fds_[1], -1); }
  void CloseA() {
    if (fds_[0] >= 0) ::close(fds_[0]);
    fds_[0] = -1;
  }
  void CloseB() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }

 private:
  int fds_[2] = {-1, -1};
};

TEST(SocketChannelTest, FramesRoundTripOverASocketPair) {
  SocketPair pair;
  SocketChannel engine(pair.ReleaseA());
  SocketChannel host(pair.ReleaseB());

  RunTrialMsg request;
  request.trial_index = 42;
  request.intervened = {3, 1, 4, 1, 5};
  ASSERT_TRUE(
      engine.Write(ProcMsgType::kRunTrial, EncodeRunTrial(request)).ok());

  auto frame = host.Read();
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, ProcMsgType::kRunTrial);
  auto decoded = DecodeRunTrial(frame->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->trial_index, 42u);
  EXPECT_EQ(decoded->intervened, request.intervened);

  TrialResultMsg result;
  result.log.failed = true;
  ASSERT_TRUE(
      host.Write(ProcMsgType::kTrialResult, EncodeTrialResult(result)).ok());
  auto answer = engine.Read();
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->type, ProcMsgType::kTrialResult);
}

TEST(SocketChannelTest, TruncationMidFrameSurfacesAsAborted) {
  SocketPair pair;
  // A length prefix promising 100 bytes, then the peer dies after 3.
  WireWriter writer;
  writer.U32(100);
  writer.U8(static_cast<uint8_t>(ProcMsgType::kTrialResult));
  writer.Raw("ab");
  ASSERT_EQ(::write(pair.a(), writer.buffer().data(), writer.buffer().size()),
            static_cast<ssize_t>(writer.buffer().size()));
  pair.CloseA();

  SocketChannel channel(pair.ReleaseB());
  auto frame = channel.Read();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kAborted);
}

TEST(SocketChannelTest, CleanEofSurfacesAsAborted) {
  SocketPair pair;
  pair.CloseA();
  SocketChannel channel(pair.ReleaseB());
  auto frame = channel.Read();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kAborted);
}

TEST(SocketChannelTest, OversizedLengthIsRejectedBeforeAllocation) {
  SocketPair pair;
  WireWriter writer;
  writer.U32(kProcMaxFramePayload + 2);  // beyond the hard frame bound
  ASSERT_EQ(::write(pair.a(), writer.buffer().data(), writer.buffer().size()),
            static_cast<ssize_t>(writer.buffer().size()));

  SocketChannel channel(pair.ReleaseB());
  auto frame = channel.Read();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);

  // And the writing side refuses to produce such a frame in the first
  // place.
  SocketChannel writer_channel(pair.ReleaseA());
  const std::string big(kProcMaxFramePayload + 1, 'x');
  const Status status = writer_channel.Write(ProcMsgType::kSpec, big);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SocketChannelTest, ReadDeadlineExpiresOnASilentPeer) {
  SocketPair pair;
  SocketChannel channel(pair.ReleaseB());
  const auto start = std::chrono::steady_clock::now();
  auto frame = channel.Read(/*deadline_ms=*/50);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
      45);
}

TEST(SocketChannelTest, WriteDeadlineExpiresWhenThePeerStopsDraining) {
  SocketPair pair;
  SocketChannel channel(pair.ReleaseA());
  // Nobody reads: a payload far beyond any socket buffer must hit the
  // deadline instead of wedging the writer forever.
  const std::string big(8 << 20, 'x');
  const Status status =
      channel.Write(ProcMsgType::kSpec, big, /*deadline_ms=*/100);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(SocketChannelTest, HandshakeVersionMismatchIsFailedPrecondition) {
  SocketPair pair;
  SocketChannel engine(pair.ReleaseA());
  SocketChannel host(pair.ReleaseB());

  // The peer speaks a protocol from the future.
  HelloMsg hello;
  hello.version = kProcProtocolVersion + 7;
  ASSERT_TRUE(host.Write(ProcMsgType::kHello, EncodeHello(hello)).ok());

  SubjectHandshake options;
  options.timeout_ms = 2000;
  options.peer = "runner test:1";
  auto catalog = HandshakeSubject(engine, "irrelevant-spec", options);
  ASSERT_FALSE(catalog.ok());
  EXPECT_EQ(catalog.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(catalog.status().message().find("version"), std::string::npos);
}

TEST(SocketChannelTest, HandshakeRejectsAVersion2Host) {
  // A v2 host would stream TRACE_EVENT frames and a VERDICT per trial; the
  // version check turns it away before the first trial.
  SocketPair pair;
  SocketChannel engine(pair.ReleaseA());
  SocketChannel host(pair.ReleaseB());
  HelloMsg hello;
  hello.version = 2;
  ASSERT_TRUE(host.Write(ProcMsgType::kHello, EncodeHello(hello)).ok());
  SubjectHandshake options;
  options.timeout_ms = 2000;
  auto catalog = HandshakeSubject(engine, "spec", options);
  ASSERT_FALSE(catalog.ok());
  EXPECT_EQ(catalog.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(catalog.status().message().find("speaks v2, engine v3"),
            std::string::npos)
      << catalog.status();
}

TEST(SocketChannelTest, HandshakeRejectsWrongMagic) {
  SocketPair pair;
  SocketChannel engine(pair.ReleaseA());
  SocketChannel host(pair.ReleaseB());
  HelloMsg hello;
  hello.magic = 0x0BADF00D;
  ASSERT_TRUE(host.Write(ProcMsgType::kHello, EncodeHello(hello)).ok());
  SubjectHandshake options;
  options.timeout_ms = 2000;
  auto catalog = HandshakeSubject(engine, "spec", options);
  ASSERT_FALSE(catalog.ok());
  EXPECT_EQ(catalog.status().code(), StatusCode::kInvalidArgument);
}

TEST(SocketChannelTest, PingPongRoundTripsToken) {
  SocketPair pair;
  SocketChannel engine(pair.ReleaseA());
  SocketChannel host(pair.ReleaseB());

  std::thread peer([&host]() {
    auto frame = host.Read(2000);
    ASSERT_TRUE(frame.ok()) << frame.status();
    ASSERT_EQ(frame->type, ProcMsgType::kPing);
    auto ping = DecodePing(frame->payload);
    ASSERT_TRUE(ping.ok());
    EXPECT_EQ(ping->token, 99u);
    ASSERT_TRUE(host.Write(ProcMsgType::kPong, EncodePing(*ping)).ok());
  });
  const Status status = PingPeer(engine, /*token=*/99, /*timeout_ms=*/2000);
  peer.join();
  EXPECT_TRUE(status.ok()) << status;
}

TEST(SocketChannelTest, PingTimesOutOnASilentPeer) {
  SocketPair pair;
  SocketChannel engine(pair.ReleaseA());
  const Status status = PingPeer(engine, /*token=*/1, /*timeout_ms=*/50);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

// --- EINTR robustness -----------------------------------------------------

void NoopHandler(int) {}

/// A frame read bombarded with signals (handler installed WITHOUT
/// SA_RESTART, so every blocking syscall is interruptible) while the bytes
/// trickle in must still deliver the frame -- the wire primitives retry
/// EINTR instead of surfacing a spurious Aborted/Internal.
TEST(SocketChannelTest, SignalStormDoesNotAbortFrameIo) {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = NoopHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction previous;
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  SocketPair pair;
  SocketChannel reader(pair.ReleaseB());

  TrialResultMsg result;
  result.log.failed = true;
  WireWriter writer;
  const std::string payload = EncodeTrialResult(result);
  writer.U32(static_cast<uint32_t>(payload.size()) + 1);
  writer.U8(static_cast<uint8_t>(ProcMsgType::kTrialResult));
  writer.Raw(payload);
  const std::string bytes = writer.Release();

  const pthread_t reader_thread = ::pthread_self();
  std::atomic<bool> done{false};
  std::thread storm([&]() {
    while (!done.load()) {
      ::pthread_kill(reader_thread, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::thread trickle([&]() {
    for (char c : bytes) {
      ASSERT_EQ(::write(pair.a(), &c, 1), 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  auto frame = reader.Read(/*deadline_ms=*/10000);
  done.store(true);
  storm.join();
  trickle.join();
  ::sigaction(SIGUSR1, &previous, nullptr);

  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->type, ProcMsgType::kTrialResult);
  auto decoded = DecodeTrialResult(frame->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->log.failed);
}

#else  // !AID_NET_SUPPORTED

TEST(SocketChannelTest, UnsupportedPlatformReportsUnimplemented) {
  EXPECT_EQ(ConnectTo(Endpoint{"localhost", 1}, 10).status().code(),
            StatusCode::kUnimplemented);
}

#endif  // AID_NET_SUPPORTED

}  // namespace
}  // namespace aid
