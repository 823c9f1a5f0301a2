// Copyright 2026 The QLOVE Reproduction Authors
// Self-test of the benchmark's oracle on hand-built windows: ties, a single
// value, tiny windows, and runs of uneven length. Exits non-zero on the
// first mismatch; run.py runs it before every measurement.

#include <cmath>
#include <cstdio>
#include <vector>

#include "oracle.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, double got, double want) {
  if (!ok) {
    std::fprintf(stderr, "oracle_test: %s: got %.17g, want %.17g\n", what,
                 got, want);
    ++failures;
  }
}

void ExpectEq(double got, double want, const char* what) {
  Expect(std::fabs(got - want) <= 1e-12, what, got, want);
}

}  // namespace

int main() {
  using e2ebench::RunQuantile;
  using e2ebench::WindowOracle;

  // A single value: every phi answers it with zero rank error.
  const std::vector<double> one = {7.0};
  WindowOracle single;
  single.AddRun(one);
  ExpectEq(static_cast<double>(single.Count()), 1, "single count");
  ExpectEq(single.Quantile(0.001), 7.0, "single q0.001");
  ExpectEq(single.Quantile(1.0), 7.0, "single q1");
  ExpectEq(single.RankError(7.0, 0.5), 0.0, "single exact");
  // An absent value between neighbours costs at most one rank: here the
  // estimate sits above the only value, nearest rank 1 = target.
  ExpectEq(single.RankError(8.0, 0.999), 0.0, "single above");
  ExpectEq(single.Cdf(6.0), 0.0, "single cdf below");
  ExpectEq(single.Cdf(7.0), 1.0, "single cdf at");

  // Ties spanning the target: any tied value has zero error; the run is
  // split across two windows' worth of runs to exercise the union.
  const std::vector<double> a = {1, 2, 2, 2, 9};
  const std::vector<double> b = {2, 2, 3};
  WindowOracle ties;
  ties.AddRun(a);
  ties.AddRun(b);
  ties.AddRun({});  // empty runs are ignored
  ExpectEq(static_cast<double>(ties.Count()), 8, "ties count");
  ExpectEq(ties.Min(), 1, "ties min");
  ExpectEq(ties.Max(), 9, "ties max");
  // Sorted union: 1 2 2 2 2 2 3 9. Ranks of 2 are 2..6.
  ExpectEq(static_cast<double>(ties.Below(2)), 1, "below 2");
  ExpectEq(static_cast<double>(ties.AtOrBelow(2)), 6, "at or below 2");
  ExpectEq(ties.Quantile(0.25), 2, "q0.25");  // rank 2
  ExpectEq(ties.Quantile(0.75), 2, "q0.75");  // rank 6
  ExpectEq(ties.Quantile(0.8), 3, "q0.8");    // rank ceil(6.4) = 7
  ExpectEq(ties.Quantile(1.0), 9, "q1");
  ExpectEq(ties.Quantile(0.1), 1, "q0.1");    // rank 1
  ExpectEq(ties.RankError(2, 0.5), 0.0, "tie inside interval");
  // phi 1.0 targets rank 8; value 2 occupies ranks 2..6: 2 ranks off.
  ExpectEq(ties.RankError(2, 1.0), 2.0 / 8, "tie below target");
  // phi 0.1 targets rank 1; value 2's nearest rank is 2.
  ExpectEq(ties.RankError(2, 0.1), 1.0 / 8, "tie above target");
  // Absent 5 sits between ranks 7 and 8: nearest is rank 8.
  ExpectEq(ties.RankError(5, 1.0), 0.0, "absent, rounds up");
  ExpectEq(ties.RankError(5, 0.5), 4.0 / 8, "absent, far");
  // The rank span of [2, 3] around phi 0.5: below(2)/8 = 1/8 and
  // at_or_below(3)/8 = 7/8, so the span is max(0.5 - 0.125, 0.875 - 0.5).
  ExpectEq(ties.RankSpan(2, 3, 0.5), 0.375, "span");
  ExpectEq(ties.Cdf(2.5), 6.0 / 8, "cdf between");

  // Tiny windows of two values.
  const std::vector<double> lo = {10};
  const std::vector<double> hi = {20};
  WindowOracle two;
  two.AddRun(hi);
  two.AddRun(lo);
  ExpectEq(two.Quantile(0.5), 10, "two q0.5");
  ExpectEq(two.Quantile(0.51), 20, "two q0.51");
  ExpectEq(two.RankError(20, 0.5), 0.5, "two off by one rank");
  ExpectEq(two.RankError(15, 0.5), 0.5, "two absent midpoint");

  // Per-run quantiles use the same rank rule.
  ExpectEq(RunQuantile(a, 0.5), 2, "run q0.5");
  ExpectEq(RunQuantile(a, 0.99), 9, "run q0.99");
  ExpectEq(RunQuantile(one, 0.5), 7, "run single");

  if (failures == 0) std::fprintf(stderr, "oracle_test: ok\n");
  return failures == 0 ? 0 : 1;
}
