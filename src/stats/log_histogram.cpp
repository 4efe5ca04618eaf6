#include "stats/log_histogram.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace clb::stats {

namespace {

/// Bucket b is 2^shift wide (the inverse of bucket_of).
unsigned shift_of(std::size_t b) {
  constexpr std::size_t kSub = LogHistogram::kSub;
  return b < 2 * kSub ? 0 : static_cast<unsigned>(b / kSub - 1);
}

}  // namespace

std::uint64_t LogHistogram::bucket_low(std::size_t b) {
  const unsigned shift = shift_of(b);
  return static_cast<std::uint64_t>(b - shift * kSub) << shift;
}

std::uint64_t LogHistogram::representative(std::size_t b) const {
  const std::uint64_t half = ((std::uint64_t{1} << shift_of(b)) - 1) / 2;
  return std::min(bucket_low(b) + half, max_);
}

std::uint64_t LogHistogram::quantile(double q) const {
  CLB_CHECK(q >= 0.0 && q <= 1.0, "quantile q in [0,1]");
  if (count_ == 0) return 0;
  const auto target =
      static_cast<std::uint64_t>(q * static_cast<double>(count_));
  std::uint64_t acc = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    acc += buckets_[b];
    if (acc >= target && acc > 0) return representative(b);
  }
  return max_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

IntHistogram LogHistogram::to_dense() const {
  IntHistogram h;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    h.add(representative(b), buckets_[b]);
  }
  return h;
}

}  // namespace clb::stats
