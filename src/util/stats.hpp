// Streaming statistics accumulators used by the benchmark probes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace mpiv::util {

/// Count / sum / min / max / mean / variance over a stream of doubles
/// (Welford's online algorithm for numerical stability).
class Accumulator {
 public:
  void add(double x) {
    ++n_;
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }

  void merge(const Accumulator& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double total = static_cast<double>(n_ + o.n_);
    const double delta = o.mean_ - mean_;
    m2_ += o.m2_ + delta * delta * static_cast<double>(n_) *
                       static_cast<double>(o.n_) / total;
    mean_ = (mean_ * static_cast<double>(n_) + o.mean_ * static_cast<double>(o.n_)) / total;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    n_ += o.n_;
  }

  void reset() { *this = Accumulator{}; }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace mpiv::util
