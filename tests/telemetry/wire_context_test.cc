// Wire-level tests of the telemetry extensions to the subject protocol:
// the optional SPAN_CONTEXT trailing fields on RUN_TRIAL and the optional
// host-telemetry block on TRIAL_RESULT. The extensions are additive -- with
// the flags off the encoded bytes are identical to the telemetry-free
// layout, and a decoder fed a context-free payload reports the extension
// absent instead of failing.

#include <string>

#include <gtest/gtest.h>

#include "proc/wire.h"

namespace aid {
namespace {

TEST(RunTrialWireTest, RoundTripsWithoutSpanContext) {
  RunTrialMsg msg;
  msg.trial_index = 41;
  msg.intervened = {3, 7, 11};
  const std::string payload = EncodeRunTrial(msg);

  auto decoded = DecodeRunTrial(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->trial_index, 41u);
  EXPECT_EQ(decoded->intervened, msg.intervened);
  EXPECT_FALSE(decoded->has_span_context);
  EXPECT_EQ(decoded->trace_id, 0u);
  EXPECT_EQ(decoded->parent_span_id, 0u);
}

TEST(RunTrialWireTest, RoundTripsSpanContext) {
  RunTrialMsg msg;
  msg.trial_index = 5;
  msg.intervened = {2};
  msg.has_span_context = true;
  msg.trace_id = 0xFEEDFACE12345678ull;
  msg.parent_span_id = 99;
  const std::string payload = EncodeRunTrial(msg);

  auto decoded = DecodeRunTrial(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->trial_index, 5u);
  EXPECT_EQ(decoded->intervened, msg.intervened);
  EXPECT_TRUE(decoded->has_span_context);
  EXPECT_EQ(decoded->trace_id, 0xFEEDFACE12345678ull);
  EXPECT_EQ(decoded->parent_span_id, 99u);
}

TEST(RunTrialWireTest, ContextFreeBytesMatchPreTelemetryLayout) {
  // With the flag off the context fields must not leak into the encoding,
  // whatever values they hold: the bytes are what an old build emitted.
  RunTrialMsg plain;
  plain.trial_index = 12;
  plain.intervened = {1, 2};

  RunTrialMsg with_garbage = plain;
  with_garbage.trace_id = 0xDEAD;
  with_garbage.parent_span_id = 0xBEEF;  // has_span_context still false

  EXPECT_EQ(EncodeRunTrial(plain), EncodeRunTrial(with_garbage));

  // The extension is strictly additive: the context-free payload is a
  // proper prefix of the context-carrying one.
  RunTrialMsg with_context = plain;
  with_context.has_span_context = true;
  with_context.trace_id = 1;
  with_context.parent_span_id = 2;
  const std::string longer = EncodeRunTrial(with_context);
  const std::string shorter = EncodeRunTrial(plain);
  ASSERT_LT(shorter.size(), longer.size());
  EXPECT_EQ(longer.compare(0, shorter.size(), shorter), 0);
}

TEST(TrialResultWireTest, RoundTripsWithoutHostTelemetry) {
  TrialResultMsg msg;
  msg.log.failed = true;
  const std::string payload = EncodeTrialResult(msg);

  auto decoded = DecodeTrialResult(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->log.failed);
  EXPECT_FALSE(decoded->has_host_telemetry);
  EXPECT_TRUE(decoded->host_spans.empty());
}

TEST(TrialResultWireTest, RoundTripsHostTelemetryBlock) {
  TrialResultMsg msg;
  msg.log.failed = false;
  msg.log.observed[4] = {10, 20};
  msg.has_host_telemetry = true;
  msg.host_recv_us = 123456789;
  msg.host_spans.push_back(WireHostSpan{"host.trial", 100, 900});
  msg.host_spans.push_back(WireHostSpan{"host.subject_run", 150, 850});
  const std::string payload = EncodeTrialResult(msg);

  auto decoded = DecodeTrialResult(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_FALSE(decoded->log.failed);
  ASSERT_TRUE(decoded->log.Has(4));
  EXPECT_EQ(decoded->log.observed.at(4).end, 20);
  ASSERT_TRUE(decoded->has_host_telemetry);
  EXPECT_EQ(decoded->host_recv_us, 123456789u);
  ASSERT_EQ(decoded->host_spans.size(), 2u);
  EXPECT_EQ(decoded->host_spans[0].name, "host.trial");
  EXPECT_EQ(decoded->host_spans[0].start_us, 100u);
  EXPECT_EQ(decoded->host_spans[0].end_us, 900u);
  EXPECT_EQ(decoded->host_spans[1].name, "host.subject_run");
  EXPECT_EQ(decoded->host_spans[1].start_us, 150u);
  EXPECT_EQ(decoded->host_spans[1].end_us, 850u);
}

TEST(TrialResultWireTest, TelemetryFreeBytesAreAPrefixOfTheTelemetryBlock) {
  TrialResultMsg plain;
  plain.log.failed = false;
  plain.log.observed[1] = {0, 5};

  TrialResultMsg with_garbage = plain;
  with_garbage.host_recv_us = 777;  // has_host_telemetry still false
  with_garbage.host_spans.push_back(WireHostSpan{"ignored", 1, 2});
  EXPECT_EQ(EncodeTrialResult(plain), EncodeTrialResult(with_garbage));

  TrialResultMsg with_block = plain;
  with_block.has_host_telemetry = true;
  with_block.host_recv_us = 1;
  const std::string longer = EncodeTrialResult(with_block);
  const std::string shorter = EncodeTrialResult(plain);
  ASSERT_LT(shorter.size(), longer.size());
  EXPECT_EQ(longer.compare(0, shorter.size(), shorter), 0);
}

TEST(TrialResultWireTest, EmptyHostSpanListStillRoundTrips) {
  // A host with tracing compiled out answers a SPAN_CONTEXT request with
  // the telemetry block present but empty (the recv anchor alone).
  TrialResultMsg msg;
  msg.has_host_telemetry = true;
  msg.host_recv_us = 42;
  auto decoded = DecodeTrialResult(EncodeTrialResult(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->has_host_telemetry);
  EXPECT_EQ(decoded->host_recv_us, 42u);
  EXPECT_TRUE(decoded->host_spans.empty());
}

TEST(StatsWireTest, StatsReplyRoundTripsItsJsonDocument) {
  StatsReplyMsg msg;
  msg.json = "{\"uptime_seconds\":12,\"trials\":34}";
  auto decoded = DecodeStatsReply(EncodeStatsReply(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->json, msg.json);
}

TEST(StatsWireTest, StatsMessageTypesHaveNames) {
  EXPECT_EQ(ProcMsgTypeName(ProcMsgType::kStats), "STATS");
  EXPECT_EQ(ProcMsgTypeName(ProcMsgType::kStatsReply), "STATS_REPLY");
}

}  // namespace
}  // namespace aid
