// The wire format (engine/wire.h): encode -> decode -> re-encode must be
// byte-identical for every backend kind and for delta frames (the property
// the aggregator's replay/dedup logic and the golden fixtures rely on).
// WireV2RoundTripTest runs these properties over version-2 full frames;
// WireRoundTripTest runs them over the frames an engine's export path
// ships, a full frame and then steady-state deltas. Further:
// truncated or corrupted buffers must decode to an error Status, never UB
// (this suite runs under the ASan/UBSan CI job); and the checked-in golden
// fixtures pin the layout so any format change shows up as an explicit
// kWireVersion bump plus regenerated fixtures, not a silent skew.
//
// Golden fixtures live in tests/golden/ (path baked in via
// QLOVE_GOLDEN_DIR); regenerate with
//   QLOVE_REGEN_GOLDEN=1 ./qlove_tests --gtest_filter='*Golden*'
// after bumping kWireVersion — never to paper over an unintended change.

#include "engine/wire.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/aggregator.h"
#include "engine/engine.h"
#include "workload/generators.h"

namespace qlove {
namespace engine {
namespace {

std::string ToHex(const std::vector<uint8_t>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (uint8_t byte : bytes) {
    hex.push_back(digits[byte >> 4]);
    hex.push_back(digits[byte & 0xF]);
  }
  return hex;
}

std::vector<uint8_t> FromHex(const std::string& hex) {
  std::vector<uint8_t> bytes;
  bytes.reserve(hex.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) break;
    bytes.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return bytes;
}

BackendOptions MakeBackendOptions(BackendKind kind) {
  BackendOptions backend;
  backend.kind = kind;
  backend.epsilon = 0.0005;  // gk/cmqs: fine enough for the default p99.9
  return backend;
}

/// An engine-driven snapshot: real sketch state for \p kind, exported the
/// way an agent would export it.
WireSnapshot AgentSnapshot(BackendKind kind, uint64_t seed) {
  EngineOptions options;
  options.num_shards = 2;
  options.shard_window = WindowSpec(512, 128);
  options.default_backend = MakeBackendOptions(kind);
  TelemetryEngine engine(options);
  const MetricKey key("rtt_us", {{"host", "h0"}, {"service", "netmon"}});
  workload::NetMonGenerator gen(seed);
  for (int tick = 0; tick < 6; ++tick) {
    EXPECT_TRUE(
        engine.RecordBatch(key, workload::Materialize(&gen, 256)).ok());
    engine.Tick();
  }
  return engine.ExportSnapshot("agent-" + std::string(BackendKindName(kind)));
}

/// A hand-built snapshot with literal values only: golden bytes must not
/// depend on any sketch pipeline's floating-point history, just on the
/// wire layout itself.
WireSnapshot LiteralSnapshot(BackendKind kind) {
  WireSnapshot snapshot;
  snapshot.source = "golden-agent";
  snapshot.epoch = 7;
  snapshot.sync_token = 0x0123456789ABCDEFull;

  WireMetricSummary metric;
  metric.key = MetricKey("rtt_us", {{"dc", "eu-1"}, {"host", "h3"}});
  metric.options.shard_window = WindowSpec(1024, 256);
  metric.options.phis = {0.5, 0.9, 0.99};
  metric.options.backend = MakeBackendOptions(kind);

  BackendSummary shard;
  shard.kind = kind;
  if (kind == BackendKind::kQlove) {
    core::SubWindowSummary sub;
    sub.quantiles = {125.0, 480.5, 912.25};
    core::TailCapture tail;
    tail.topk = {{990.0, 2}, {912.25, 1}};
    tail.samples = {990.0, 950.5};
    sub.tails = {tail};
    sub.bursty = false;
    sub.count = 256;
    sub.epoch = 5;
    shard.subwindows.push_back(sub);
    sub.epoch = 6;
    sub.bursty = true;
    shard.subwindows.push_back(sub);
    shard.inflight = 3;
    shard.burst_active = true;
  } else {
    shard.entries = {{100.0, 10}, {250.5, 20}, {999.75, 2}};
    shard.count = 32;
    shard.semantics = kind == BackendKind::kExact
                          ? sketch::RankSemantics::kExact
                          : sketch::RankSemantics::kInterpolated;
    shard.rank_error = kind == BackendKind::kExact ? 0.0 : 0.005;
    shard.inflight = 1;
  }
  metric.shards = {shard, shard};
  snapshot.metrics.push_back(std::move(metric));
  return snapshot;
}

std::string GoldenPath(const std::string& name) {
  return std::string(QLOVE_GOLDEN_DIR) + "/wire_v" +
         std::to_string(kWireVersion) + "_" + name + ".hex";
}

/// Shared golden-fixture body: regenerate under QLOVE_REGEN_GOLDEN=1,
/// otherwise compare byte for byte and round-trip the checked-in bytes
/// through \p reencode.
void CheckGolden(const std::vector<uint8_t>& encoded, const std::string& path,
                 const std::function<std::vector<uint8_t>(
                     const std::vector<uint8_t>&)>& reencode) {
  if (std::getenv("QLOVE_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << ToHex(encoded) << "\n";
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden fixture " << path
                         << " (QLOVE_REGEN_GOLDEN=1 to create)";
  std::string hex;
  in >> hex;
  const std::vector<uint8_t> golden = FromHex(hex);
  EXPECT_EQ(ToHex(encoded), hex)
      << "wire layout changed: if intentional, bump the wire version and "
         "regenerate tests/golden/";
  EXPECT_EQ(reencode(golden), golden);
}

/// Re-encodes a decoded frame as the kind of frame it arrived as.
std::vector<uint8_t> Reencode(const WireFrame& frame) {
  return frame.is_delta ? EncodeDelta(frame.delta)
                        : EncodeSnapshot(frame.snapshot);
}

class WireV2RoundTripTest : public ::testing::TestWithParam<BackendKind> {};

// ---------------------------------------------------------------------------
// encode -> decode -> re-encode is byte-identical (engine-driven state)
// ---------------------------------------------------------------------------

TEST_P(WireV2RoundTripTest, ReencodeIsByteIdentical) {
  const WireSnapshot original = AgentSnapshot(GetParam(), 42);
  ASSERT_FALSE(original.metrics.empty());
  const std::vector<uint8_t> encoded = EncodeSnapshot(original);

  auto frame = DecodeFrame(encoded);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_FALSE(frame.ValueOrDie().is_delta);
  const WireSnapshot& snapshot = frame.ValueOrDie().snapshot;
  EXPECT_EQ(snapshot.source, original.source);
  EXPECT_EQ(snapshot.epoch, original.epoch);
  ASSERT_EQ(snapshot.metrics.size(), original.metrics.size());
  for (size_t m = 0; m < snapshot.metrics.size(); ++m) {
    EXPECT_EQ(snapshot.metrics[m].key, original.metrics[m].key);
    EXPECT_EQ(snapshot.metrics[m].options.phis,
              original.metrics[m].options.phis);
    ASSERT_EQ(snapshot.metrics[m].shards.size(),
              original.metrics[m].shards.size());
    for (size_t shard = 0; shard < snapshot.metrics[m].shards.size();
         ++shard) {
      EXPECT_EQ(snapshot.metrics[m].shards[shard],
                original.metrics[m].shards[shard])
          << "shard " << shard << " summary diverged across the round trip";
    }
  }
  EXPECT_EQ(EncodeSnapshot(snapshot), encoded);
}

// ---------------------------------------------------------------------------
// Golden fixtures: the layout is pinned byte for byte
// ---------------------------------------------------------------------------

TEST_P(WireV2RoundTripTest, GoldenBytesMatchCheckedInFixture) {
  const WireSnapshot fixture = LiteralSnapshot(GetParam());
  CheckGolden(EncodeSnapshot(fixture),
              GoldenPath(BackendKindName(GetParam())),
              [](const std::vector<uint8_t>& golden) {
                auto frame = DecodeFrame(golden);
                EXPECT_TRUE(frame.ok()) << frame.status().ToString();
                EXPECT_FALSE(frame.ValueOrDie().is_delta);
                return EncodeSnapshot(frame.ValueOrDie().snapshot);
              });
}

// ---------------------------------------------------------------------------
// Truncation and corruption: error Status, never UB
// ---------------------------------------------------------------------------

TEST_P(WireV2RoundTripTest, EveryTruncationReturnsErrorStatus) {
  const std::vector<uint8_t> encoded =
      EncodeSnapshot(AgentSnapshot(GetParam(), 7));
  ASSERT_GT(encoded.size(), 8u);
  for (size_t length = 0; length < encoded.size(); ++length) {
    auto frame = DecodeFrame(encoded.data(), length);
    EXPECT_FALSE(frame.ok()) << "prefix of " << length << " bytes decoded";
  }
}

/// Flipping any single byte must yield either a clean error Status or a
/// decodable (possibly semantically different) frame that re-encodes
/// without reading out of bounds — never UB. Runs under the ASan/UBSan
/// job, where an out-of-bounds read would abort.
void FlipEveryByte(std::vector<uint8_t> encoded) {
  for (size_t i = 0; i < encoded.size(); ++i) {
    const uint8_t saved = encoded[i];
    encoded[i] = static_cast<uint8_t>(~saved);
    auto frame = DecodeFrame(encoded);
    if (frame.ok()) Reencode(frame.ValueOrDie());
    encoded[i] = saved;
  }
}

TEST_P(WireV2RoundTripTest, ByteFlipsNeverCrashAndUsuallyFailCleanly) {
  FlipEveryByte(EncodeSnapshot(AgentSnapshot(GetParam(), 9)));
}

TEST(WireFormatTest, RejectsBadMagicVersionAndHostileLengths) {
  const std::vector<uint8_t> encoded =
      EncodeSnapshot(AgentSnapshot(BackendKind::kExact, 3));

  std::vector<uint8_t> bad_magic = encoded;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeFrame(bad_magic).ok());

  std::vector<uint8_t> bad_version = encoded;
  bad_version[4] = 99;
  auto version_result = DecodeFrame(bad_version);
  ASSERT_FALSE(version_result.ok());
  EXPECT_NE(version_result.status().message().find("version"),
            std::string::npos);

  // Hostile length: replace the one-byte source-string length varint
  // (offset 7, after magic, version and flags) with a minimal 9-byte varint
  // of 2^63 - 1. The decoder must fail on the bounds check, not attempt
  // the allocation.
  ASSERT_LT(encoded[7], 0x80);
  std::vector<uint8_t> hostile(encoded.begin(), encoded.begin() + 7);
  hostile.insert(hostile.end(), 8, 0xFF);
  hostile.push_back(0x7F);
  hostile.insert(hostile.end(), encoded.begin() + 8, encoded.end());
  auto hostile_result = DecodeFrame(hostile);
  ASSERT_FALSE(hostile_result.ok());
  EXPECT_NE(hostile_result.status().message().find("string count"),
            std::string::npos)
      << hostile_result.status().message();

  EXPECT_FALSE(DecodeFrame(nullptr, 8).ok());
  EXPECT_FALSE(DecodeFrame(std::vector<uint8_t>{}).ok());

  // Trailing garbage after a valid frame is corruption, not padding.
  std::vector<uint8_t> trailing = encoded;
  trailing.push_back(0);
  EXPECT_FALSE(DecodeFrame(trailing).ok());
}

// Regression: an encoded key carrying the same tag name twice must be
// rejected at decode. MetricKey canonicalization dedupes tag names
// (last-wins), so such a key would silently collapse to fewer tags than
// the frame declared — and its re-encode would no longer be
// byte-identical, breaking the replay/dedup invariant this whole suite
// pins. (No API path produces such a frame; this is a hostile/corrupt
// input check, exercised by byte-patching one tag name into another.)
TEST(WireFormatTest, RejectsDuplicateTagNameInEncodedKey) {
  EngineOptions options;
  options.num_shards = 1;
  TelemetryEngine engine(options);
  // Tag names "qq"/"qz" are the only places the bytes 'q','z' can appear:
  // patching "qz" -> "qq" forges a duplicate without resizing the frame.
  const MetricKey key("dup_metric", {{"qq", "aa"}, {"qz", "bb"}});
  ASSERT_TRUE(engine.RecordBatch(key, {1.0, 2.0, 3.0}).ok());
  engine.Tick();
  std::vector<uint8_t> encoded =
      EncodeSnapshot(engine.ExportSnapshot("agent-dup"));
  size_t patched = 0;
  for (size_t i = 0; i + 1 < encoded.size(); ++i) {
    if (encoded[i] == 'q' && encoded[i + 1] == 'z') {
      encoded[i + 1] = 'q';
      ++patched;
    }
  }
  ASSERT_EQ(patched, 1u);
  auto decoded = DecodeFrame(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("duplicate tag"),
            std::string::npos)
      << decoded.status().message();
}

// ---------------------------------------------------------------------------
// Frame transport over a pipe
// ---------------------------------------------------------------------------

TEST(WireFrameTest, FramesRoundTripOverAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::vector<uint8_t> payload =
      EncodeSnapshot(AgentSnapshot(BackendKind::kGk, 11));
  ASSERT_TRUE(WriteFrame(fds[1], payload).ok());
  ASSERT_TRUE(WriteFrame(fds[1], payload).ok());
  ::close(fds[1]);

  for (int i = 0; i < 2; ++i) {
    auto frame = ReadFrame(fds[0]);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame.ValueOrDie(), payload);
  }
  // Clean peer shutdown at a frame boundary is OutOfRange, not an error.
  auto eof = ReadFrame(fds[0]);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), Status::Code::kOutOfRange);
  ::close(fds[0]);
}

TEST(WireFrameTest, HostileFrameLengthIsRejected) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};  // ~4GB frame
  ASSERT_EQ(::write(fds[1], huge, sizeof(huge)), 4);
  ::close(fds[1]);
  auto frame = ReadFrame(fds[0]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), Status::Code::kInvalidArgument);
  ::close(fds[0]);
}

TEST(WireFrameTest, MidFrameEofIsAnError) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const uint8_t header[4] = {16, 0, 0, 0};  // promises 16 payload bytes
  ASSERT_EQ(::write(fds[1], header, sizeof(header)), 4);
  ASSERT_EQ(::write(fds[1], header, 2), 2);  // ships only 2
  ::close(fds[1]);
  auto frame = ReadFrame(fds[0]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), Status::Code::kInternal);
  ::close(fds[0]);
}

// ---------------------------------------------------------------------------
// Delta frames
// ---------------------------------------------------------------------------

/// One hand-built metric as a delta frame carries it for \p kind: a qlove
/// sub-window patch, or the full-mode payload of every other backend.
/// Literal values only (same reasoning as LiteralSnapshot).
WireMetricDelta LiteralMetricDelta(BackendKind kind) {
  WireMetricDelta patch;
  patch.key = MetricKey("rtt_us", {{"dc", "eu-1"}, {"host", "h3"}});
  if (kind != BackendKind::kQlove) {
    const WireSnapshot donor = LiteralSnapshot(kind);
    patch.mode = WireDeltaMode::kFull;
    patch.options = donor.metrics[0].options;
    patch.shards = donor.metrics[0].shards;
    return patch;
  }
  patch.mode = WireDeltaMode::kQloveDelta;
  patch.first_live_epoch = 6;
  patch.count = 512;
  patch.inflight = 2;
  patch.burst_active = true;
  patch.rank_error = 0.0;
  core::SubWindowSummary sub;
  sub.quantiles = {120.0, 470.5, 900.25};
  core::TailCapture tail;
  tail.topk = {{995.0, 1}};
  tail.samples = {995.0};
  sub.tails = {tail};
  sub.bursty = false;
  sub.count = 256;
  sub.epoch = 8;
  patch.new_subwindows.push_back(sub);
  sub.epoch = 9;
  sub.bursty = true;
  patch.new_subwindows.push_back(sub);
  return patch;
}

/// A hand-built delta frame carrying \p metrics.
WireDelta LiteralDelta(std::vector<WireMetricDelta> metrics) {
  WireDelta delta;
  delta.source = "golden-agent";
  delta.epoch = 9;
  delta.base_epoch = 7;
  delta.sync_token = 0x0123456789ABCDEFull;
  delta.metrics = std::move(metrics);
  return delta;
}

/// A mixed delta: one qlove patch and one full-mode metric.
WireDelta LiteralDelta() {
  WireMetricDelta full = LiteralMetricDelta(BackendKind::kGk);
  full.key = MetricKey("tx_bytes");
  return LiteralDelta({LiteralMetricDelta(BackendKind::kQlove),
                       std::move(full)});
}

TEST(WireDeltaTest, ReencodeIsByteIdentical) {
  const WireDelta original = LiteralDelta();
  const std::vector<uint8_t> encoded = EncodeDelta(original);

  auto frame = DecodeFrame(encoded);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_TRUE(frame.ValueOrDie().is_delta);
  const WireDelta& delta = frame.ValueOrDie().delta;
  EXPECT_EQ(delta.source, original.source);
  EXPECT_EQ(delta.epoch, original.epoch);
  EXPECT_EQ(delta.base_epoch, original.base_epoch);
  ASSERT_EQ(delta.metrics.size(), original.metrics.size());
  EXPECT_EQ(delta.metrics[0].mode, WireDeltaMode::kQloveDelta);
  EXPECT_EQ(delta.metrics[0].first_live_epoch, 6);
  EXPECT_EQ(delta.metrics[0].count, 512);
  ASSERT_EQ(delta.metrics[0].new_subwindows.size(), 2u);
  EXPECT_EQ(delta.metrics[0].new_subwindows[0],
            original.metrics[0].new_subwindows[0]);
  EXPECT_EQ(delta.metrics[1].mode, WireDeltaMode::kFull);
  ASSERT_EQ(delta.metrics[1].shards.size(), 2u);
  EXPECT_EQ(delta.metrics[1].shards[0], original.metrics[1].shards[0]);

  EXPECT_EQ(EncodeDelta(delta), encoded);
}

TEST(WireDeltaTest, GoldenBytesMatchCheckedInFixture) {
  CheckGolden(EncodeDelta(LiteralDelta()),
              GoldenPath("delta"),
              [](const std::vector<uint8_t>& golden) {
                auto frame = DecodeFrame(golden);
                EXPECT_TRUE(frame.ok()) << frame.status().ToString();
                EXPECT_TRUE(frame.ValueOrDie().is_delta);
                return EncodeDelta(frame.ValueOrDie().delta);
              });
}

TEST(WireDeltaTest, EveryTruncationReturnsErrorStatus) {
  const std::vector<uint8_t> encoded = EncodeDelta(LiteralDelta());
  for (size_t length = 0; length < encoded.size(); ++length) {
    EXPECT_FALSE(DecodeFrame(encoded.data(), length).ok())
        << "prefix of " << length << " bytes decoded";
  }
}

TEST(WireDeltaTest, ByteFlipsNeverCrashAndUsuallyFailCleanly) {
  FlipEveryByte(EncodeDelta(LiteralDelta()));
}

TEST(WireDeltaTest, NonQloveDeltaIsNoLargerThanFullFramePlusHeader) {
  // Non-qlove summaries are window-scoped, so a delta carries them whole:
  // at one window state, the delta frame is the full frame plus the delta
  // header (the base-epoch varint, at most 10 bytes, and one mode byte per
  // metric) and never more.
  for (BackendKind kind :
       {BackendKind::kGk, BackendKind::kCmqs, BackendKind::kExact}) {
    SCOPED_TRACE(BackendKindName(kind));
    EngineOptions options;
    options.num_shards = 2;
    options.shard_window = WindowSpec(512, 128);
    options.default_backend = MakeBackendOptions(kind);
    TelemetryEngine engine(options);
    const MetricKey key("rtt_us", {{"host", "h0"}});
    workload::NetMonGenerator gen(31);
    ExportCursor cursor;
    std::vector<uint8_t> delta;
    for (int tick = 0; tick < 6; ++tick) {
      ASSERT_TRUE(
          engine.RecordBatch(key, workload::Materialize(&gen, 256)).ok());
      engine.Tick();
      ASSERT_TRUE(engine.ExportDeltaEncoded("agent", &cursor, &delta).ok());
    }
    ASSERT_NE(delta[6] & kWireFlagDelta, 0) << "steady state is a delta";

    ExportCursor fresh;
    std::vector<uint8_t> full;
    ASSERT_TRUE(engine.ExportDeltaEncoded("agent", &fresh, &full).ok());
    ASSERT_EQ(full[6] & kWireFlagDelta, 0) << "a fresh cursor ships full";
    constexpr size_t kMetrics = 1;
    EXPECT_LE(delta.size(), full.size() + 10 + kMetrics);
  }
}

// ---------------------------------------------------------------------------
// The export path: the full frame, then steady-state deltas, per backend
// ---------------------------------------------------------------------------

/// The frames an agent ships for \p kind through one ExportCursor over six
/// ticks: a full frame first, a delta after every later tick.
std::vector<std::vector<uint8_t>> ExportedFrames(BackendKind kind,
                                                 uint64_t seed) {
  EngineOptions options;
  options.num_shards = 2;
  options.shard_window = WindowSpec(512, 128);
  options.default_backend = MakeBackendOptions(kind);
  TelemetryEngine engine(options);
  const MetricKey key("rtt_us", {{"host", "h0"}, {"service", "netmon"}});
  workload::NetMonGenerator gen(seed);
  ExportCursor cursor;
  std::vector<std::vector<uint8_t>> frames;
  for (int tick = 0; tick < 6; ++tick) {
    EXPECT_TRUE(
        engine.RecordBatch(key, workload::Materialize(&gen, 256)).ok());
    engine.Tick();
    std::vector<uint8_t> frame;
    EXPECT_TRUE(engine
                    .ExportDeltaEncoded(
                        "agent-" + std::string(BackendKindName(kind)),
                        &cursor, &frame)
                    .ok());
    frames.push_back(std::move(frame));
  }
  return frames;
}

class WireRoundTripTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(WireRoundTripTest, ReencodeIsByteIdentical) {
  const std::vector<std::vector<uint8_t>> frames =
      ExportedFrames(GetParam(), 42);
  // Qlove summaries are epoch-addressable and ship as sub-window patches;
  // every other backend's summary is window-scoped and ships whole.
  const WireDeltaMode steady_mode = GetParam() == BackendKind::kQlove
                                        ? WireDeltaMode::kQloveDelta
                                        : WireDeltaMode::kFull;
  for (size_t i = 0; i < frames.size(); ++i) {
    SCOPED_TRACE("frame " + std::to_string(i));
    auto frame = DecodeFrame(frames[i]);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    const WireFrame& value = frame.ValueOrDie();
    EXPECT_EQ(value.is_delta, i > 0) << "a full frame, then deltas";
    if (value.is_delta) {
      ASSERT_EQ(value.delta.metrics.size(), 1u);
      EXPECT_EQ(value.delta.metrics[0].mode, steady_mode);
      EXPECT_EQ(value.delta.epoch, value.delta.base_epoch + 1);
    }
    EXPECT_EQ(Reencode(value), frames[i]);
  }
}

TEST_P(WireRoundTripTest, CallerBufferEncodeIsExactSizedAndReusable) {
  std::vector<WireFrame> decoded;
  const std::vector<std::vector<uint8_t>> frames =
      ExportedFrames(GetParam(), 43);
  for (const std::vector<uint8_t>& bytes : frames) {
    auto frame = DecodeFrame(bytes);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    decoded.push_back(std::move(frame.ValueOrDie()));
  }
  auto encode_into = [](const WireFrame& frame, std::vector<uint8_t>* out) {
    if (frame.is_delta) {
      EncodeDelta(frame.delta, out);
    } else {
      EncodeSnapshot(frame.snapshot, out);
    }
  };

  std::vector<uint8_t> buffer;
  for (size_t i = 0; i < decoded.size(); ++i) {
    encode_into(decoded[i], &buffer);
    EXPECT_EQ(buffer, frames[i]) << "frame " << i;
  }

  // Steady-state agent loop: once the buffer has held the largest frame,
  // re-encoding full and delta frames into it replaces its contents with
  // exactly each frame's bytes, without reallocating (same capacity, same
  // storage).
  const size_t capacity = buffer.capacity();
  const uint8_t* storage = buffer.data();
  for (int pass = 0; pass < 5; ++pass) {
    for (size_t i = 0; i < decoded.size(); ++i) {
      encode_into(decoded[i], &buffer);
      EXPECT_EQ(buffer, frames[i]) << "frame " << i;
    }
  }
  EXPECT_EQ(buffer.capacity(), capacity);
  EXPECT_EQ(buffer.data(), storage);
}

TEST_P(WireRoundTripTest, GoldenBytesMatchCheckedInFixture) {
  const WireDelta fixture = LiteralDelta({LiteralMetricDelta(GetParam())});
  CheckGolden(EncodeDelta(fixture),
              GoldenPath("delta_" + std::string(BackendKindName(GetParam()))),
              [](const std::vector<uint8_t>& golden) {
                auto frame = DecodeFrame(golden);
                EXPECT_TRUE(frame.ok()) << frame.status().ToString();
                EXPECT_TRUE(frame.ValueOrDie().is_delta);
                return EncodeDelta(frame.ValueOrDie().delta);
              });
}

TEST_P(WireRoundTripTest, EveryTruncationReturnsErrorStatus) {
  const std::vector<uint8_t> encoded = ExportedFrames(GetParam(), 7).back();
  ASSERT_NE(encoded[6] & kWireFlagDelta, 0);
  for (size_t length = 0; length < encoded.size(); ++length) {
    auto frame = DecodeFrame(encoded.data(), length);
    EXPECT_FALSE(frame.ok()) << "prefix of " << length << " bytes decoded";
  }
}

TEST_P(WireRoundTripTest, ByteFlipsNeverCrashAndUsuallyFailCleanly) {
  FlipEveryByte(ExportedFrames(GetParam(), 9).back());
}

// ---------------------------------------------------------------------------
// Versions: only kWireVersion decodes
// ---------------------------------------------------------------------------

TEST(WireInteropTest, UnknownVersionsAndFlagsAreRejected) {
  const std::vector<uint8_t> encoded =
      EncodeSnapshot(AgentSnapshot(BackendKind::kExact, 19));
  // Version 1 is the retired fixed-width layout: its frames fail like any
  // other version this build does not speak.
  for (uint8_t version : {0, 1, 3, 99}) {
    std::vector<uint8_t> bad = encoded;
    bad[4] = version;
    bad[5] = 0;
    auto frame = DecodeFrame(bad);
    ASSERT_FALSE(frame.ok()) << "version " << int(version) << " decoded";
    EXPECT_EQ(frame.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(frame.status().message().find("version"), std::string::npos);
  }
  // Unknown flag bits are a forward-compat fence, not padding.
  std::vector<uint8_t> bad_flags = encoded;
  bad_flags[6] |= 0x80;
  EXPECT_FALSE(DecodeFrame(bad_flags).ok());
}

// ---------------------------------------------------------------------------
// Shard coalescing on export
// ---------------------------------------------------------------------------

TEST(WireCoalesceTest, CoalescedExportShedsTheShardMultiplier) {
  // An 8-shard engine's coalesced export ships one summary per metric:
  // the per-shard framing and quantile multiplier disappears. (The tail
  // caches cannot shrink — an 8-shard window legitimately holds 8x the
  // samples — so the bound is against the uncoalesced export, not the
  // 1-shard engine.)
  EngineOptions options;
  options.num_shards = 8;
  options.shard_window = WindowSpec(512, 128);
  options.default_backend = MakeBackendOptions(BackendKind::kQlove);
  TelemetryEngine engine(options);
  const MetricKey key("rtt_us", {{"host", "h0"}});
  workload::NetMonGenerator gen(21);
  for (int tick = 0; tick < 6; ++tick) {
    ASSERT_TRUE(
        engine.RecordBatch(key, workload::Materialize(&gen, 512)).ok());
    engine.Tick();
  }

  ExportOptions uncoalesced_opts;
  uncoalesced_opts.coalesce_shards = false;
  const WireSnapshot raw = engine.ExportSnapshot("a", uncoalesced_opts);
  const WireSnapshot coalesced = engine.ExportSnapshot("a");
  const size_t bytes_raw = EncodeSnapshot(raw).size();
  const size_t bytes_coalesced = EncodeSnapshot(coalesced).size();

  ASSERT_EQ(coalesced.metrics.size(), 1u);
  EXPECT_EQ(coalesced.metrics[0].shards.size(), 1u);
  ASSERT_EQ(raw.metrics.size(), 1u);
  EXPECT_EQ(raw.metrics[0].shards.size(), 8u);
  // The framing/quantile multiplier is gone; the concatenated tail caches
  // remain (they carry irreducible few-k state for 8 shards' samples), so
  // the guaranteed floor here is a constant-fraction shed; the bench gate
  // pins the end-to-end byte reduction.
  EXPECT_LT(4 * bytes_coalesced, 3 * bytes_raw);

  // Coalescing must preserve the window population and remain a valid,
  // ingestible full frame.
  auto population = [](const WireMetricSummary& metric) {
    int64_t total = 0;
    for (const BackendSummary& shard : metric.shards) {
      for (const core::SubWindowSummary& sub : shard.subwindows) {
        total += sub.count;
      }
    }
    return total;
  };
  EXPECT_EQ(population(coalesced.metrics[0]), population(raw.metrics[0]));
  AggregatorEngine aggregator;
  auto ack = aggregator.IngestFrame(EncodeSnapshot(coalesced));
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_TRUE(ack.ValueOrDie().applied);
}

auto AllBackendKinds() {
  return ::testing::Values(BackendKind::kQlove, BackendKind::kGk,
                           BackendKind::kCmqs, BackendKind::kExact);
}

std::string BackendParamName(
    const ::testing::TestParamInfo<BackendKind>& info) {
  return std::string(BackendKindName(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, WireV2RoundTripTest, AllBackendKinds(),
                         BackendParamName);
INSTANTIATE_TEST_SUITE_P(AllBackends, WireRoundTripTest, AllBackendKinds(),
                         BackendParamName);

}  // namespace
}  // namespace engine
}  // namespace qlove
