// Distribution helpers over UniformRandomBitGenerator-style engines.
//
// All of these are branch-light and allocation-free; they are the only
// randomness primitives used inside simulator hot loops.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace clb::rng {

/// Unbiased uniform integer in [0, n) — Lemire's multiply-shift rejection.
template <typename Rng>
std::uint64_t bounded(Rng& rng, std::uint64_t n) {
  CLB_DCHECK(n > 0, "bounded(n) requires n > 0");
  __extension__ using u128 = unsigned __int128;
  std::uint64_t x = rng();
  u128 m = static_cast<u128>(x) * static_cast<u128>(n);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = rng();
      m = static_cast<u128>(x) * static_cast<u128>(n);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

/// Uniform double in [0, 1) with 53 random bits.
template <typename Rng>
double uniform01(Rng& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Precomputed Bernoulli(p) draw: compares one u64 against a threshold.
class BernoulliDraw {
 public:
  explicit BernoulliDraw(double p) {
    CLB_CHECK(p >= 0.0 && p <= 1.0, "Bernoulli p must be in [0,1]");
    if (p >= 1.0) {
      threshold_ = ~0ULL;
      always_ = true;
    } else {
      threshold_ = static_cast<std::uint64_t>(p * 0x1.0p64);
    }
  }

  /// Draws one word from `rng`, unless p >= 1: then it draws none, so the
  /// next draw from `rng` sees the word this one skipped.
  template <typename Rng>
  bool operator()(Rng& rng) const {
    return always_ || hit(rng());
  }

  /// The draw for a word already taken from the stream (a batched caller
  /// must still pick its words the way operator() consumes them).
  [[nodiscard]] bool hit(std::uint64_t word) const {
    return always_ || word < threshold_;
  }
  /// True iff p >= 1: operator() draws no word.
  [[nodiscard]] bool always() const { return always_; }

 private:
  std::uint64_t threshold_ = 0;
  bool always_ = false;
};

/// Samples the paper's Geometric generation model: returns i in {1..k} with
/// probability 2^-(i+1), else 0 (probability > 1/2).
///
/// Implementation: for a uniform u64 draw x, u = x/2^64 lies in
/// [2^-(j+1), 2^-j) iff countl_zero(x) == j; so the number of leading zero
/// bits *is* the geometric index.
template <typename Rng>
std::uint32_t truncated_geometric(Rng& rng, std::uint32_t k) {
  const std::uint64_t x = rng();
  const auto j = static_cast<std::uint32_t>(std::countl_zero(x));
  return (j >= 1 && j <= k) ? j : 0;
}

/// Geometric(p) number of failures before first success, capped at `cap`.
template <typename Rng>
std::uint64_t geometric(Rng& rng, double p, std::uint64_t cap = ~0ULL) {
  CLB_DCHECK(p > 0.0 && p <= 1.0, "geometric p in (0,1]");
  const double u = uniform01(rng);
  const double g = std::floor(std::log1p(-u) / std::log1p(-p));
  if (!(g >= 0)) return 0;
  return g > static_cast<double>(cap) ? cap : static_cast<std::uint64_t>(g);
}

/// Small discrete distribution over {0..m-1} given a pmf; sampling is a
/// linear cumulative scan (intended for m <= ~16, e.g. the Multi model).
class DiscreteDraw {
 public:
  explicit DiscreteDraw(const std::vector<double>& pmf) {
    CLB_CHECK(!pmf.empty(), "pmf must be non-empty");
    double total = 0;
    for (double p : pmf) {
      CLB_CHECK(p >= 0.0, "pmf entries must be non-negative");
      total += p;
    }
    CLB_CHECK(total > 0.0, "pmf must have positive mass");
    cumulative_.reserve(pmf.size());
    double acc = 0;
    for (double p : pmf) {
      acc += p / total;
      cumulative_.push_back(acc);
    }
    cumulative_.back() = 1.0;  // guard against rounding
  }

  template <typename Rng>
  std::uint32_t operator()(Rng& rng) const {
    const double u = uniform01(rng);
    for (std::uint32_t i = 0; i < cumulative_.size(); ++i) {
      if (u < cumulative_[i]) return i;
    }
    return static_cast<std::uint32_t>(cumulative_.size() - 1);
  }

  [[nodiscard]] double mean() const {
    double m = 0, prev = 0;
    for (std::size_t i = 0; i < cumulative_.size(); ++i) {
      m += static_cast<double>(i) * (cumulative_[i] - prev);
      prev = cumulative_[i];
    }
    return m;
  }

 private:
  std::vector<double> cumulative_;
};

/// Exponential(rate) variate.
template <typename Rng>
double exponential(Rng& rng, double rate) {
  CLB_DCHECK(rate > 0, "exponential rate must be > 0");
  return -std::log1p(-uniform01(rng)) / rate;
}

}  // namespace clb::rng
