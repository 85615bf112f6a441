// Tests of the layered benchmark's own arithmetic and answer checker.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "check.h"
#include "stats.h"

namespace layerbench {
namespace {

using monkeydb::Status;

bool CheckStored(uint64_t id, const std::string& value, VersionRange range,
                 std::string* why) {
  return CheckValue(id, Status::OK(), value, range, why);
}

TEST(TailQuantile, TakesP99WhenTenSamplesLieBeyondIt) {
  EXPECT_DOUBLE_EQ(TailQuantile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(TailQuantile(4000000, 0.99), 0.99);
}

TEST(TailQuantile, FallsBackToTheHighestQuantileWithTenBeyond) {
  // 999 samples: p99 leaves 9 beyond it, p98 leaves 19.
  EXPECT_DOUBLE_EQ(TailQuantile(999, 0.99), 0.98);
  EXPECT_DOUBLE_EQ(TailQuantile(200, 0.99), 0.95);
  EXPECT_DOUBLE_EQ(TailQuantile(100, 0.99), 0.9);
  EXPECT_DOUBLE_EQ(TailQuantile(20, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(TailQuantile(19, 0.99), 0.0);
  EXPECT_DOUBLE_EQ(TailQuantile(0, 0.99), 0.0);
}

TEST(TailQuantile, NeverExceedsTheTarget) {
  EXPECT_DOUBLE_EQ(TailQuantile(1000000, 0.9), 0.9);
}

TEST(LowQuantile, HasFloorQnValuesBelowIt) {
  std::vector<double> windows;
  for (int i = 20; i >= 1; i--) windows.push_back(i * 10.0);
  EXPECT_DOUBLE_EQ(LowQuantile(windows, 0.1), 30.0);  // Third-lowest of 20.
  EXPECT_DOUBLE_EQ(LowQuantile({5, 1, 3}, 0.1), 1.0);
  EXPECT_DOUBLE_EQ(LowQuantile({5, 1, 3}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(LowQuantile({5, 1, 3}, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(LowQuantile({}, 0.1), 0.0);
}

TEST(LatencyHistogram, NearestRankIsExactForSmallValues) {
  LatencyHistogram h;
  for (uint64_t i = 100; i >= 1; i--) h.Record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.Quantile(0.5), 50);
  EXPECT_EQ(h.Quantile(0.99), 99);
  EXPECT_EQ(h.Quantile(1.0), 100);
  EXPECT_EQ(LatencyHistogram().Quantile(0.5), 0);
}

TEST(LatencyHistogram, LargeValuesStayWithinOneBucket) {
  LatencyHistogram a, b;
  for (uint64_t v = 1000; v < 2000000; v = v * 11 / 10) a.Record(v);
  b.Record(123456789);
  a.Merge(b);
  EXPECT_NEAR(a.Quantile(1.0), 123456789.0, 123456789.0 / 64);
  const double mid = a.Quantile(0.5);
  EXPECT_GT(mid, 1000);
  EXPECT_LT(mid, 2000000);
}

TEST(SelfTime, NoChildren) { EXPECT_EQ(SelfTime({10, 50}, {}), 40); }

TEST(SelfTime, SubtractsDisjointChildren) {
  EXPECT_EQ(SelfTime({0, 100}, {{10, 20}, {50, 80}}), 60);
}

TEST(SelfTime, CountsOverlappingChildrenOnce) {
  // Children from other threads may overlap: [10,40) and [30,60) cover 50.
  EXPECT_EQ(SelfTime({0, 100}, {{30, 60}, {10, 40}}), 50);
  EXPECT_EQ(SelfTime({0, 100}, {{10, 90}, {20, 30}}), 20);
}

TEST(SelfTime, ClipsChildrenToTheSpan) {
  EXPECT_EQ(SelfTime({10, 20}, {{0, 15}, {18, 40}}), 3);
  EXPECT_EQ(SelfTime({10, 20}, {{30, 40}}), 10);
  EXPECT_EQ(SelfTime({10, 20}, {{0, 100}}), 0);
}

TEST(Check, ValueRoundTrips) {
  const std::string v = EncodeValue(42, '1', 7);
  EXPECT_EQ(v.size(), kValueSize);
  ParsedValue p;
  ASSERT_TRUE(ParseValue(v, &p));
  EXPECT_EQ(p.id, 42u);
  EXPECT_EQ(p.writer, '1');
  EXPECT_EQ(p.version, 7u);
  std::string why;
  EXPECT_TRUE(CheckValue(42, Status::OK(), v, {7, 9}, &why)) << why;
  EXPECT_TRUE(CheckStored(3, EncodeValue(3, kLoadWriter, 0), {0, 0}, &why))
      << why;
}

TEST(Check, RejectsWrongValue) {
  std::string why;
  // Another key's value.
  EXPECT_FALSE(CheckStored(42, EncodeValue(43, '1', 7), {0, 9},
                          &why));
  EXPECT_NE(why.find("value of key 43"), std::string::npos) << why;
  // A version older than one already acknowledged, or never issued.
  EXPECT_FALSE(CheckStored(42, EncodeValue(42, '1', 3), {4, 9},
                          &why));
  EXPECT_FALSE(CheckStored(42, EncodeValue(42, '1', 10), {4, 9},
                          &why));
  // A corrupted byte.
  std::string v = EncodeValue(42, '1', 7);
  v[80] = v[80] == 'a' ? 'b' : 'a';
  EXPECT_FALSE(CheckValue(42, Status::OK(), v, {0, 9}, &why));
  // A miss on an existing key.
  EXPECT_FALSE(CheckValue(42, Status::NotFound(), "", {0, 9}, &why));
}

TEST(Check, RejectsFoundZeroResultKey) {
  std::string why;
  EXPECT_TRUE(CheckZeroResult(Status::NotFound(), &why));
  EXPECT_FALSE(CheckZeroResult(Status::OK(), &why));
  EXPECT_EQ(why, "zero-result key was found");
  EXPECT_FALSE(CheckZeroResult(Status::IoError("disk"), &why));
}

std::vector<std::pair<std::string, std::string>> Rows(
    const std::vector<uint64_t>& ids) {
  std::vector<std::pair<std::string, std::string>> rows;
  for (uint64_t id : ids) {
    rows.emplace_back(ExistingKey(id), EncodeValue(id, kLoadWriter, 0));
  }
  return rows;
}

TEST(Check, AcceptsConsecutiveScan) {
  std::string why;
  const std::vector<VersionRange> ranges(4, VersionRange{0, 0});
  EXPECT_TRUE(CheckScan(5, 100, Rows({5, 6, 7, 8}), ranges, &why)) << why;
  // Truncated at the end of the key range.
  EXPECT_TRUE(CheckScan(98, 100, Rows({98, 99}), ranges, &why)) << why;
}

TEST(Check, RejectsOutOfOrderScan) {
  std::string why;
  const std::vector<VersionRange> ranges(4, VersionRange{0, 0});
  EXPECT_FALSE(CheckScan(5, 100, Rows({5, 7, 6, 8}), ranges, &why));
  EXPECT_NE(why.find("not strictly increasing"), std::string::npos) << why;
  EXPECT_FALSE(CheckScan(5, 100, Rows({5, 6, 6, 7}), ranges, &why));
}

TEST(Check, RejectsScanThatSkipsOrLeavesTheRange) {
  std::string why;
  const std::vector<VersionRange> ranges(4, VersionRange{0, 0});
  EXPECT_FALSE(CheckScan(5, 100, Rows({5, 6, 8, 9}), ranges, &why));
  EXPECT_FALSE(CheckScan(5, 100, Rows({5, 6, 7}), ranges, &why));
  EXPECT_FALSE(CheckScan(98, 100, Rows({98, 99, 100}), ranges, &why));
  // A zero-result key showing up in a scan.
  auto rows = Rows({5, 6, 7, 8});
  rows[1].first = AbsentKey(5);
  EXPECT_FALSE(CheckScan(5, 100, rows, ranges, &why));
}

}  // namespace
}  // namespace layerbench
