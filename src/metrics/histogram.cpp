#include "cbps/metrics/histogram.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

namespace cbps::metrics {

std::size_t Histogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;  // zero, negative, NaN
  int exp = 0;
  double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  if (exp < kMinExp) {
    exp = kMinExp;
    m = 0.5;
  } else if (exp > kMaxExp) {
    exp = kMaxExp;
    m = 1.0 - 1.0 / (2 * kSubBuckets);  // top sub-bucket
  }
  auto sub = static_cast<int>((m - 0.5) * (2 * kSubBuckets));
  if (sub < 0) sub = 0;
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return static_cast<std::size_t>(exp - kMinExp) * kSubBuckets +
         static_cast<std::size_t>(sub) + 1;
}

double Histogram::bucket_mid(std::size_t i) {
  if (i == 0) return 0.0;
  const std::size_t k = i - 1;
  const int exp = kMinExp + static_cast<int>(k / kSubBuckets);
  const auto sub = static_cast<int>(k % kSubBuckets);
  const double base = std::ldexp(1.0, exp - 1);  // 2^(exp-1)
  const double width = base / kSubBuckets;
  return base + width * (static_cast<double>(sub) + 0.5);
}

void Histogram::add(double v, std::uint64_t weight) {
  if (weight == 0) return;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
  buckets_[bucket_index(v)] += weight;
  count_ += weight;
  sum_ += v * static_cast<double>(weight);
}

double Histogram::percentile(double p) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  if (p <= 0.0) return min();
  if (p >= 100.0) return max();
  // Rank of the requested observation, 1-based.
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    seen += bucket(i);
    if (seen >= rank) {
      double v = bucket_mid(i);
      if (v < min()) v = min();
      if (v > max()) v = max();
      return v;
    }
  }
  return max();
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Histogram::reset() { *this = Histogram{}; }

void Histogram::print(std::ostream& os) const {
  os << "count=" << count() << " mean=" << mean() << " p50=" << p50()
     << " p90=" << p90() << " p99=" << p99() << " max=" << max();
}

}  // namespace cbps::metrics
