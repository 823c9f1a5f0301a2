// Copyright 2026 The QLOVE Reproduction Authors
// The benchmark's ground truth, computed apart from the program under test.
//
// A window is the union of a few per-tick runs of raw values, each sorted
// ascending (the benchmark keeps one run per checked target and input
// tick). Nothing is merged: every question is answered by binary searches
// over the runs, so a check costs O(runs x log n) and the oracle holds no
// copy of the window.
//
// Rank error follows the paper's §5.1 definition with ties handled: an
// estimate v occupies the rank interval (below(v), at_or_below(v)] of the
// sorted window, and its rank error at phi is the distance from phi * N to
// the nearest rank in that interval, over N. A value absent from the window
// sits between two ranks and costs at most one rank.

#ifndef QLOVE_E2EBENCH_ORACLE_H_
#define QLOVE_E2EBENCH_ORACLE_H_

#include <cstdint>
#include <span>
#include <vector>

namespace e2ebench {

/// One window: non-owning views of sorted runs of raw values. The runs
/// must outlive the window.
class WindowOracle {
 public:
  void Clear() { runs_.clear(); }
  void AddRun(std::span<const double> sorted_run) {
    if (!sorted_run.empty()) runs_.push_back(sorted_run);
  }

  int64_t Count() const;
  double Min() const;  ///< Requires Count() > 0.
  double Max() const;  ///< Requires Count() > 0.

  /// Values strictly below \p value.
  int64_t Below(double value) const;
  /// Values at or below \p value.
  int64_t AtOrBelow(double value) const;

  /// The exact phi-quantile: the value of rank ceil(phi * N) (1-based,
  /// clamped to [1, N]). Requires Count() > 0.
  double Quantile(double phi) const;

  /// Rank error of \p estimate at \p phi (see the file comment), as a
  /// fraction of N. Requires Count() > 0.
  double RankError(double estimate, double phi) const;

  /// Distance from \p phi to the rank interval the value interval
  /// [lo, hi] occupies: max(phi - Below(lo) / N, AtOrBelow(hi) / N - phi),
  /// floored at 0. The rank error any estimate inside [lo, hi] can have.
  double RankSpan(double lo, double hi, double phi) const;

  /// The exact CDF at \p value: AtOrBelow(value) / N.
  double Cdf(double value) const;

  const std::vector<std::span<const double>>& runs() const { return runs_; }

 private:
  std::vector<std::span<const double>> runs_;
};

/// The exact phi-quantile of one sorted run (rank ceil(phi * n)).
double RunQuantile(std::span<const double> sorted_run, double phi);

}  // namespace e2ebench

#endif  // QLOVE_E2EBENCH_ORACLE_H_
