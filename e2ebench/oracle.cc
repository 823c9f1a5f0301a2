// Copyright 2026 The QLOVE Reproduction Authors

#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace e2ebench {

namespace {

int64_t TargetRank(double phi, int64_t n) {
  return std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(phi * static_cast<double>(n) - 1e-9)), 1,
      n);
}

}  // namespace

int64_t WindowOracle::Count() const {
  int64_t n = 0;
  for (const auto& run : runs_) n += static_cast<int64_t>(run.size());
  return n;
}

double WindowOracle::Min() const {
  double lo = std::numeric_limits<double>::infinity();
  for (const auto& run : runs_) lo = std::min(lo, run.front());
  return lo;
}

double WindowOracle::Max() const {
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& run : runs_) hi = std::max(hi, run.back());
  return hi;
}

int64_t WindowOracle::Below(double value) const {
  int64_t n = 0;
  for (const auto& run : runs_) {
    n += std::lower_bound(run.begin(), run.end(), value) - run.begin();
  }
  return n;
}

int64_t WindowOracle::AtOrBelow(double value) const {
  int64_t n = 0;
  for (const auto& run : runs_) {
    n += std::upper_bound(run.begin(), run.end(), value) - run.begin();
  }
  return n;
}

double WindowOracle::Quantile(double phi) const {
  const int64_t k = TargetRank(phi, Count());
  // The answer is a window value: bisect over the candidate values of one
  // run at a time. Each run is searched for its smallest element whose
  // global AtOrBelow reaches k; the minimum over runs is the k-th value.
  double best = std::numeric_limits<double>::infinity();
  for (const auto& run : runs_) {
    size_t lo = 0;
    size_t hi = run.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (AtOrBelow(run[mid]) >= k) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    if (lo < run.size()) best = std::min(best, run[lo]);
  }
  return best;
}

double WindowOracle::RankError(double estimate, double phi) const {
  const int64_t n = Count();
  const int64_t target = TargetRank(phi, n);
  const int64_t lo = Below(estimate);
  const int64_t hi = AtOrBelow(estimate);
  const int64_t nearest =
      hi > lo ? std::clamp(target, lo + 1, hi) : std::min(lo + 1, n);
  return std::abs(static_cast<double>(target - nearest)) /
         static_cast<double>(n);
}

double WindowOracle::RankSpan(double lo, double hi, double phi) const {
  const double n = static_cast<double>(Count());
  const double below = static_cast<double>(Below(lo)) / n;
  const double at_or_below = static_cast<double>(AtOrBelow(hi)) / n;
  return std::max({0.0, phi - below, at_or_below - phi});
}

double WindowOracle::Cdf(double value) const {
  return static_cast<double>(AtOrBelow(value)) /
         static_cast<double>(Count());
}

double RunQuantile(std::span<const double> sorted_run, double phi) {
  const auto n = static_cast<int64_t>(sorted_run.size());
  return sorted_run[static_cast<size_t>(TargetRank(phi, n) - 1)];
}

}  // namespace e2ebench
