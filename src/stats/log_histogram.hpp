// Fixed-size log-linear histogram for wide-range values (wall-clock time,
// telemetry distributions), in HdrHistogram's bucket layout.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "stats/histogram.hpp"

namespace clb::stats {

/// Histogram over uint64 values in kBuckets fixed counts. Values below
/// 2 * kSub are exact; above that, each power of two [2^e, 2^(e+1)) splits
/// into kSub equal buckets, so a bucket is at most 1/kSub of its lowest
/// value wide (3.1%). add() never allocates, merge() adds buckets, and
/// count, sum and max are exact: only quantile() carries the bucket error.
/// Step- and count-valued data stays in the exact IntHistogram.
class LogHistogram {
 public:
  static constexpr unsigned kSubBits = 5;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (65 - kSubBits) * kSub;  // 1,920

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) {
    const auto width = static_cast<unsigned>(std::bit_width(v));
    const unsigned shift = width > kSubBits + 1 ? width - kSubBits - 1 : 0;
    return shift * kSub + static_cast<std::size_t>(v >> shift);
  }
  /// The smallest value of bucket b.
  [[nodiscard]] static std::uint64_t bucket_low(std::size_t b);

  void add(std::uint64_t v, std::uint64_t n = 1) {
    buckets_[bucket_of(v)] += n;
    count_ += n;
    sum_ += v * n;
    if (n > 0 && v > max_) max_ = v;
  }
  /// A decoder's rebuild: add(bucket_low(b), n) for every bucket, then this
  /// sets the exact sum and max the encoding carried.
  void restore(std::uint64_t exact_sum, std::uint64_t exact_max) {
    sum_ = exact_sum;
    max_ = exact_max;
  }

  [[nodiscard]] std::span<const std::uint64_t> buckets() const {
    return buckets_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) /
                                   static_cast<double>(count_);
  }
  /// IntHistogram::quantile's rank rule over the buckets, reporting the
  /// matched bucket's midpoint capped at max(): within 1/(2 * kSub) of the
  /// exact quantile, and exact below 2 * kSub.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  void merge(const LogHistogram& other);
  void clear() { *this = LogHistogram(); }

  /// A dense copy with each bucket's samples at quantile()'s value for it,
  /// so its quantiles equal this one's. Only the benchmark's sojourn_us()
  /// forwards use it, and it goes with them (ROADMAP item 9).
  [[nodiscard]] IntHistogram to_dense() const;

 private:
  [[nodiscard]] std::uint64_t representative(std::size_t b) const;

  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace clb::stats
