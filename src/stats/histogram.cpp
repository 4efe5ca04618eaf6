#include "stats/histogram.hpp"

#include "util/check.hpp"

namespace clb::stats {

void IntHistogram::merge(const IntHistogram& other) {
  if (other.counts_.size() > counts_.size()) {
    counts_.resize(other.counts_.size(), 0);
  }
  for (std::size_t v = 0; v < other.counts_.size(); ++v) {
    counts_[v] += other.counts_[v];
  }
  total_ += other.total_;
}

std::uint64_t IntHistogram::count_at(std::uint64_t value) const {
  return value < counts_.size() ? counts_[value] : 0;
}

std::uint64_t IntHistogram::max_value() const {
  for (std::size_t v = counts_.size(); v-- > 0;) {
    if (counts_[v] > 0) return v;
  }
  return 0;
}

double IntHistogram::mean() const {
  if (total_ == 0) return 0.0;
  double sum = 0;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    sum += static_cast<double>(v) * static_cast<double>(counts_[v]);
  }
  return sum / static_cast<double>(total_);
}

double IntHistogram::tail_at_least(std::uint64_t k) const {
  if (total_ == 0) return 0.0;
  std::uint64_t tail = 0;
  for (std::size_t v = k; v < counts_.size(); ++v) tail += counts_[v];
  return static_cast<double>(tail) / static_cast<double>(total_);
}

std::uint64_t IntHistogram::quantile(double q) const {
  CLB_CHECK(q >= 0.0 && q <= 1.0, "quantile q in [0,1]");
  if (total_ == 0) return 0;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total_));
  std::uint64_t acc = 0;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    acc += counts_[v];
    if (acc >= target && acc > 0) return v;
  }
  return max_value();
}

void IntHistogram::clear() {
  counts_.clear();
  total_ = 0;
}

}  // namespace clb::stats
