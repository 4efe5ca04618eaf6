// Integer-valued histogram for load / waiting-time distributions.
#pragma once

#include <cstdint>
#include <vector>

namespace clb::stats {

/// Histogram over non-negative integers with dynamic range growth.
/// Used for per-processor load distributions (Lemma 2) and task sojourn
/// times (Corollary 1).
class IntHistogram {
 public:
  /// Adds `count` observations of `value`. Inline: the runtime books one
  /// per consumed task (sojourn steps), so the common case is a bounds check
  /// and two adds in the caller's loop.
  void add(std::uint64_t value, std::uint64_t count = 1) {
    if (count == 0) return;
    if (value >= counts_.size()) counts_.resize(value + 1, 0);
    counts_[value] += count;
    total_ += count;
  }

  /// Merges another histogram into this one.
  void merge(const IntHistogram& other);

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t count_at(std::uint64_t value) const;

  /// Largest observed value (0 when empty).
  [[nodiscard]] std::uint64_t max_value() const;

  [[nodiscard]] double mean() const;

  /// Empirical P[X >= k].
  [[nodiscard]] double tail_at_least(std::uint64_t k) const;

  /// Smallest v with P[X <= v] >= q, for q in [0,1].
  [[nodiscard]] std::uint64_t quantile(double q) const;

  /// Direct access to per-value counts (index = value).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }

  void clear();

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace clb::stats
