// Tests for the common substrate: Status/Result, RNG, timer, the
// deadline / cooperative-cancellation primitives (common/cancel.h), and
// CRC32C (common/crc32c.h, common/serde.h's CrcStreambuf).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"
#include "common/timer.h"

namespace spine {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::NotFound("missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.message(), "missing thing");
  EXPECT_EQ(status.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kIoError, StatusCode::kCorruption,
        StatusCode::kResourceExhausted, StatusCode::kFailedPrecondition,
        StatusCode::kOverloaded, StatusCode::kProtocolError,
        StatusCode::kDeadlineExceeded, StatusCode::kCancelled}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

Status FailsAtSecondStep() {
  SPINE_RETURN_IF_ERROR(Status::OK());
  SPINE_RETURN_IF_ERROR(Status::IoError("boom"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  Status status = FailsAtSecondStep();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok_result(42);
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);
  EXPECT_TRUE(ok_result.status().ok());

  Result<int> err_result(Status::OutOfRange("too big"));
  ASSERT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> result(std::make_unique<int>(5));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 5);
}

TEST(RngTest, DeterministicAndRoughlyUniform) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.Next(), b.Next());

  Rng rng(7);
  int buckets[10] = {0};
  for (int i = 0; i < 100000; ++i) ++buckets[rng.Below(10)];
  for (int bucket : buckets) {
    EXPECT_GT(bucket, 8500);
    EXPECT_LT(bucket, 11500);
  }
}

TEST(RngTest, BetweenAndChance) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Between(5, 8);
    ASSERT_GE(v, 5u);
    ASSERT_LE(v, 8u);
  }
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Chance(0.25) ? 1 : 0;
  EXPECT_GT(heads, 2000);
  EXPECT_LT(heads, 3000);
  for (int i = 0; i < 100; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline deadline;
  EXPECT_TRUE(deadline.IsInfinite());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_EQ(deadline.RemainingMicros(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(deadline.RemainingMs(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(deadline, Deadline::Infinite());
}

TEST(DeadlineTest, AfterMsExpires) {
  Deadline deadline = Deadline::AfterMs(0);
  EXPECT_FALSE(deadline.IsInfinite());
  EXPECT_TRUE(deadline.Expired());
  EXPECT_EQ(deadline.RemainingMicros(), 0);

  Deadline future = Deadline::AfterMs(60'000);
  EXPECT_FALSE(future.Expired());
  EXPECT_GT(future.RemainingMicros(), 0);
  EXPECT_LE(future.RemainingMs(), 60'000);
}

TEST(DeadlineTest, HugeBudgetSaturatesInsteadOfOverflowing) {
  // uint32 max milliseconds (the largest wire value) and beyond must
  // read as "effectively never", not wrap into the past.
  Deadline huge = Deadline::AfterMs(std::numeric_limits<uint32_t>::max());
  EXPECT_FALSE(huge.Expired());
  Deadline max = Deadline::AfterMicros(std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(max.Expired());
  EXPECT_TRUE(max.IsInfinite());
}

TEST(DeadlineTest, SoonerPicksTheEarlier) {
  Deadline early = Deadline::AfterMs(1);
  Deadline late = Deadline::AfterMs(60'000);
  EXPECT_EQ(Deadline::Sooner(early, late), early);
  EXPECT_EQ(Deadline::Sooner(late, early), early);
  EXPECT_EQ(Deadline::Sooner(late, Deadline::Infinite()), late);
}

TEST(CancelTokenTest, FiresOnCancelAndOnDeadline) {
  CancelToken token;
  EXPECT_FALSE(token.Fired());
  EXPECT_EQ(token.FiredCode(), StatusCode::kOk);
  EXPECT_TRUE(token.ToStatus().ok());
  token.Cancel();
  EXPECT_TRUE(token.Fired());
  EXPECT_EQ(token.FiredCode(), StatusCode::kCancelled);
  EXPECT_EQ(token.ToStatus().code(), StatusCode::kCancelled);

  CancelToken expired(Deadline::AfterMs(0));
  EXPECT_TRUE(expired.Fired());
  EXPECT_EQ(expired.FiredCode(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.ToStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, ExplicitCancelWinsOverExpiredDeadline) {
  CancelToken token(Deadline::AfterMs(0));
  token.Cancel();
  EXPECT_EQ(token.FiredCode(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, ChainsToParent) {
  CancelToken parent;
  CancelToken child(Deadline::Infinite(), &parent);
  EXPECT_FALSE(child.Fired());
  parent.Cancel();
  EXPECT_TRUE(child.Fired());
  EXPECT_EQ(child.FiredCode(), StatusCode::kCancelled);

  CancelToken expired_parent(Deadline::AfterMs(0));
  CancelToken child2(Deadline::Infinite(), &expired_parent);
  EXPECT_TRUE(child2.Fired());
  EXPECT_EQ(child2.FiredCode(), StatusCode::kDeadlineExceeded);
}

TEST(CancelCheckpointTest, NullTokenNeverStops) {
  CancelCheckpoint checkpoint(nullptr, 2);
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(checkpoint.ShouldStop());
}

TEST(CancelCheckpointTest, PollsAtIntervalAndSticks) {
  CancelToken token;
  CancelCheckpoint checkpoint(&token, 4);
  // Not fired: never stops, no matter how often it is asked.
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(checkpoint.ShouldStop());
  token.Cancel();
  // The poll happens every 4th call; until then the stale "not fired"
  // answer is allowed...
  bool stopped = false;
  for (int i = 0; i < 4 && !stopped; ++i) stopped = checkpoint.ShouldStop();
  EXPECT_TRUE(stopped);
  // ...and once fired, the answer is sticky on every later call.
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(checkpoint.ShouldStop());
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  uint64_t sink = 0;
  for (int i = 0; i < 2000000; ++i) sink += static_cast<uint64_t>(i);
  ASSERT_GT(sink, 0u);  // keep the loop observable
  double elapsed = timer.ElapsedSeconds();
  EXPECT_GT(elapsed, 0.0);
  EXPECT_EQ(timer.ElapsedMillis() > 0.0, true);
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), elapsed + 1.0);
}

// Known answers pin the polynomial, reflection and xor-out: a wrong but
// self-consistent CRC would pass every round-trip test and still make
// every existing artifact unreadable.
TEST(Crc32cTest, MatchesKnownAnswers) {
  std::vector<uint8_t> zeros(32, 0x00);
  std::vector<uint8_t> ones(32, 0xff);
  std::vector<uint8_t> ascending(32);
  std::iota(ascending.begin(), ascending.end(), uint8_t{0});
  std::vector<uint8_t> descending(ascending.rbegin(), ascending.rend());
  const std::string check = "123456789";
  // RFC 3720 (iSCSI) §B.4 vectors, then the catalogued check value.
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(ascending.data(), ascending.size()), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(descending.data(), descending.size()), 0x113FDB5Cu);
  EXPECT_EQ(Crc32c(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);

  // The same answers from the table loop, whatever Crc32c dispatched to.
  const auto table = [](const std::vector<uint8_t>& bytes) {
    return Crc32cFinish(
        Crc32cExtendTable(kCrc32cInit, bytes.data(), bytes.size()));
  };
  EXPECT_EQ(table(zeros), 0x8A9136AAu);
  EXPECT_EQ(table(ones), 0x62A8AB43u);
  EXPECT_EQ(table(ascending), 0x46DD794Eu);
  EXPECT_EQ(table(descending), 0x113FDB5Cu);
}

// The hardware loop against the table loop at every length 0–1024 and
// every start offset 0–7, each on its own exact-sized heap buffer so
// an 8-byte load past the last byte trips ASan.
TEST(Crc32cTest, HardwareEqualsTableAtEveryLengthAndOffset) {
  if (!Crc32cHardwareSupported()) {
    GTEST_SKIP() << "no SSE4.2 crc32 instruction on this CPU";
  }
  Rng rng(0xC5C32C);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 1024; ++length) {
      const size_t size = offset + length;
      std::unique_ptr<uint8_t[]> buffer(new uint8_t[size]);
      for (size_t i = 0; i < size; ++i) {
        buffer[i] = static_cast<uint8_t>(rng.Next());
      }
      const uint8_t* data = buffer.get() + offset;
      const uint32_t seed = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(Crc32cExtendHardware(seed, data, length),
                Crc32cExtendTable(seed, data, length))
          << "length " << length << ", offset " << offset;
    }
  }
}

// Extending over random split points equals the one-shot checksum.
TEST(Crc32cTest, ChainedExtendEqualsOneShot) {
  Rng rng(17);
  std::vector<uint8_t> bytes(4099);
  for (uint8_t& byte : bytes) byte = static_cast<uint8_t>(rng.Next());
  const uint32_t whole = Crc32c(bytes.data(), bytes.size());
  for (int trial = 0; trial < 64; ++trial) {
    uint32_t state = kCrc32cInit;
    size_t at = 0;
    while (at < bytes.size()) {
      const size_t take = static_cast<size_t>(
          rng.Between(0, std::min<uint64_t>(97, bytes.size() - at)));
      state = Crc32cExtend(state, bytes.data() + at, take);
      at += take;
    }
    ASSERT_EQ(Crc32cFinish(state), whole) << "trial " << trial;
  }
}

// CrcStreambuf reports the size and CRC32C of exactly the bytes that
// reached its sink, however they were handed over.
TEST(Crc32cTest, StreambufChecksumsWhatItPasses) {
  std::ostringstream sink;
  serde::CrcStreambuf counted(sink.rdbuf());
  std::ostream out(&counted);
  serde::Writer writer(out);
  writer.Pod<uint32_t>(0x53504e45);
  writer.Align8();
  writer.Vec(std::vector<uint64_t>{1, 2, 3});
  writer.WriteCrcFooter();
  out.put('!');
  out << "tail";
  out.flush();
  ASSERT_TRUE(out.good());
  const std::string bytes = sink.str();
  const FileChecksum checksum = counted.checksum();
  EXPECT_EQ(checksum.size, bytes.size());
  EXPECT_EQ(checksum.crc, Crc32c(bytes.data(), bytes.size()));
}

}  // namespace
}  // namespace spine
