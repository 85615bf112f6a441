// Arithmetic the layered benchmark reports with: tail-percentile
// selection over latency samples and the self time of a span.

#ifndef LAYERBENCH_STATS_H_
#define LAYERBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace layerbench {

// A tail percentile is only reported with at least this many samples
// beyond it.
constexpr uint64_t kMinTailSamples = 10;

// The quantile reported as the tail of `n` samples: `target` when at least
// kMinTailSamples samples lie beyond it, else the highest quantile of the
// ladder 0.99, 0.98, 0.95, 0.9, 0.8, 0.75, 0.5 below `target` that has
// them. Returns 0 when not even the median qualifies.
double TailQuantile(uint64_t n, double target);

// The value of `values` that has floor(q * n) of the n values below it
// (0 <= q < 1), e.g. the third-lowest of 20 for q = 0.1. Returns 0 when
// `values` is empty.
double LowQuantile(std::vector<double> values, double q);

// Log-linear histogram of latencies: values below 2^kSubBits are counted
// exactly; above that each power of two is split into 2^kSubBits buckets,
// so a reported quantile is within 1/2^kSubBits of the true sample. Its
// memory does not grow with the sample count.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;

  LatencyHistogram();
  void Record(uint64_t value);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  // Nearest-rank quantile q (0 < q <= 1). Inside a bucket wider than one
  // the value is interpolated by rank. Returns 0 when empty.
  double Quantile(double q) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

struct Interval {
  int64_t begin = 0;
  int64_t end = 0;
};

// A span's self time: its duration minus the part of it that the child
// intervals cover. Children may overlap each other or stick out of the
// span; only their union inside the span is subtracted.
int64_t SelfTime(Interval span, std::vector<Interval> children);

}  // namespace layerbench

#endif  // LAYERBENCH_STATS_H_
