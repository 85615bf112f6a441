#include "stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace layerbench {

double TailQuantile(uint64_t n, double target) {
  static constexpr double kLadder[] = {0.99, 0.98, 0.95, 0.9,
                                       0.8,  0.75, 0.5};
  for (double q : kLadder) {
    if (q > target) continue;
    // Samples strictly beyond the nearest-rank position of q.
    const uint64_t rank =
        static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
    if (n - std::min(rank, n) >= kMinTailSamples) return q;
  }
  return 0.0;
}

double LowQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto below =
      static_cast<size_t>(q * static_cast<double>(values.size()));
  return values[std::min(below, values.size() - 1)];
}

namespace {

constexpr int kSub = LatencyHistogram::kSubBits;
constexpr size_t kNumBuckets = size_t{64 - kSub + 1} << kSub;

size_t BucketOf(uint64_t v) {
  if (v < (uint64_t{1} << kSub)) return static_cast<size_t>(v);
  const int shift = std::bit_width(v) - 1 - kSub;
  const uint64_t sub = (v >> shift) - (uint64_t{1} << kSub);
  return (static_cast<size_t>(shift + 1) << kSub) + static_cast<size_t>(sub);
}

// Smallest value of bucket b; the bucket holds 2^BucketShift(b) values.
uint64_t BucketLower(size_t b) {
  if (b < (size_t{1} << kSub)) return b;
  const int shift = static_cast<int>(b >> kSub) - 1;
  const uint64_t sub = b & ((size_t{1} << kSub) - 1);
  return ((uint64_t{1} << kSub) + sub) << shift;
}

int BucketShift(size_t b) {
  return b < (size_t{1} << kSub) ? 0 : static_cast<int>(b >> kSub) - 1;
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kNumBuckets, 0) {}

void LatencyHistogram::Record(uint64_t value) {
  buckets_[BucketOf(value)]++;
  count_++;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < kNumBuckets; i++) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  uint64_t rank =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t seen = 0;
  for (size_t b = 0; b < kNumBuckets; b++) {
    if (seen + buckets_[b] >= rank) {
      const double lower = static_cast<double>(BucketLower(b));
      const int shift = BucketShift(b);
      if (shift == 0) return lower;
      const double within = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(buckets_[b]);
      return lower + within * static_cast<double>(uint64_t{1} << shift);
    }
    seen += buckets_[b];
  }
  return 0;  // Unreachable: the buckets hold count_ samples.
}

int64_t SelfTime(Interval span, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  int64_t covered = 0;
  int64_t reach = span.begin;  // Everything before reach is accounted for.
  for (const Interval& c : children) {
    const int64_t b = std::max(c.begin, reach);
    const int64_t e = std::min(c.end, span.end);
    if (e > b) {
      covered += e - b;
      reach = e;
    }
  }
  return (span.end - span.begin) - covered;
}

}  // namespace layerbench
