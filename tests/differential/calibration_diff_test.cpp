// Differential suite for the §2.3.2 ordered-matching threshold search.
//
// search_order_thresholds walks the 12^4 threshold grid over bitsets of
// the calibration trials.  The oracle below is the per-trial scan it
// replaced, kept verbatim: for every threshold tuple it re-classifies
// every trial.  Both must pick the same accuracy and thresholds, bit
// for bit, for every one of the 24 matching orders, on randomized trial
// sets that probe the comparison edges (scores exactly on a grid value,
// NaN, ±inf), a protocol with no trials, and trial counts around the
// 64-bit word boundaries.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "diff_harness.h"
#include "sim/ident_experiment.h"

namespace ms {
namespace {

// ---- Oracle: the per-trial grid scan --------------------------------

constexpr std::array<double, 12> kThresholdGrid = {
    0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.60, 0.70, 0.80, 0.90};

using CalTrial = CalibrationTrial;

/// Scan (t1, t2, t3) for one fixed outer threshold t0 and matching order.
ThresholdSearch search_inner(const std::vector<CalTrial>& trials,
                             const std::array<Protocol, 4>& order,
                             double t0) {
  ThresholdSearch best;
  for (double t1 : kThresholdGrid)
    for (double t2 : kThresholdGrid)
      for (double t3 : kThresholdGrid) {
        std::array<double, 4> thr{};
        thr[protocol_index(order[0])] = t0;
        thr[protocol_index(order[1])] = t1;
        thr[protocol_index(order[2])] = t2;
        thr[protocol_index(order[3])] = t3;
        std::array<std::size_t, 4> correct{}, total{};
        for (const CalTrial& tr : trials) {
          std::size_t det = 4;
          for (Protocol p : order) {
            const std::size_t idx = protocol_index(p);
            if (tr.scores[idx] > thr[idx]) {
              det = idx;
              break;
            }
          }
          ++total[tr.truth];
          if (det == tr.truth) ++correct[tr.truth];
        }
        double acc = 0.0;
        for (std::size_t i = 0; i < 4; ++i)
          acc += total[i] ? static_cast<double>(correct[i]) /
                                static_cast<double>(total[i])
                          : 0.0;
        acc /= 4.0;
        if (acc > best.acc) {
          best.acc = acc;
          best.thr = thr;
        }
      }
  return best;
}

/// Full grid search for one matching order (serial; callers parallelize
/// one level up so the pool is never entered twice).
ThresholdSearch search_thresholds(const std::vector<CalTrial>& trials,
                                  const std::array<Protocol, 4>& order) {
  ThresholdSearch best;
  for (double t0 : kThresholdGrid) {
    const ThresholdSearch s = search_inner(trials, order, t0);
    if (s.acc > best.acc) best = s;
  }
  return best;
}

// ---- Corpus ---------------------------------------------------------

std::vector<std::array<Protocol, 4>> all_orders() {
  std::vector<std::array<Protocol, 4>> orders;
  std::array<std::size_t, 4> perm = {0, 1, 2, 3};
  do {
    orders.push_back({kAllProtocols[perm[0]], kAllProtocols[perm[1]],
                      kAllProtocols[perm[2]], kAllProtocols[perm[3]]});
  } while (std::next_permutation(perm.begin(), perm.end()));
  return orders;
}

/// A score that lands on every comparison edge the search has: exactly
/// on a grid value (must not count as above it), one ulp either side,
/// NaN, ±inf, ±0, or a plain uniform draw.  `signal` biases the true
/// protocol's score upward so the optimum is not always the first tuple.
double edge_score(Rng& rng, bool signal) {
  const double inf = std::numeric_limits<double>::infinity();
  const double grid = kThresholdGrid[rng.uniform_int(kThresholdGrid.size())];
  switch (rng.uniform_int(10)) {
    case 0: return grid;
    case 1: return std::nextafter(grid, inf);
    case 2: return std::nextafter(grid, -inf);
    case 3: return std::numeric_limits<double>::quiet_NaN();
    case 4: return rng.chance(0.5) ? inf : -inf;
    case 5: return rng.chance(0.5) ? 0.0 : -0.0;
    default:
      return signal ? rng.uniform(0.3, 1.0) : rng.uniform(0.0, 0.7);
  }
}

std::vector<CalTrial> random_trials(Rng& rng, std::size_t n,
                                    std::size_t missing_protocol) {
  std::vector<CalTrial> trials(n);
  for (CalTrial& tr : trials) {
    do {
      tr.truth = rng.uniform_int(4);
    } while (tr.truth == missing_protocol);
    for (std::size_t i = 0; i < 4; ++i)
      tr.scores[i] = edge_score(rng, i == tr.truth);
  }
  return trials;
}

std::string bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  char buf[80];
  std::snprintf(buf, sizeof buf, "%a (0x%016llx)", v,
                static_cast<unsigned long long>(u));
  return buf;
}

void expect_same_search(const ThresholdSearch& fast,
                        const ThresholdSearch& ref, const std::string& ctx) {
  EXPECT_EQ(std::memcmp(&fast.acc, &ref.acc, sizeof(double)), 0)
      << ctx << ": acc fast=" << bits_of(fast.acc)
      << " ref=" << bits_of(ref.acc);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(std::memcmp(&fast.thr[i], &ref.thr[i], sizeof(double)), 0)
        << ctx << ": thr[" << i << "] fast=" << bits_of(fast.thr[i])
        << " ref=" << bits_of(ref.thr[i]);
}

void check_all_orders(const std::vector<CalTrial>& trials,
                      const std::string& ctx) {
  for (const auto& order : all_orders()) {
    const std::string c =
        ctx + difftest::ctx(" order=%zu%zu%zu%zu", protocol_index(order[0]),
                            protocol_index(order[1]),
                            protocol_index(order[2]),
                            protocol_index(order[3]));
    expect_same_search(search_order_thresholds(trials, order),
                       search_thresholds(trials, order), c);
  }
}

// ---- Tests ----------------------------------------------------------

TEST(CalibrationDiff, RandomTrialSetsAcrossWordBoundaries) {
  Rng rng(difftest::kSeed);
  const std::size_t counts[] = {0, 1, 63, 64, 65, 128, 240, 241};
  for (std::size_t c = 0; c < std::size(counts); ++c) {
    // Cycle the protocol with no trials; 4 = every protocol appears.
    const std::size_t missing = (c + 4) % 5;
    check_all_orders(random_trials(rng, counts[c], missing),
                     difftest::ctx("n=%zu missing=%zu", counts[c], missing));
  }
}

TEST(CalibrationDiff, ScoresOnGridValuesAreNotAbove) {
  // Every score sits exactly on a grid value or on an IEEE special, so
  // each strict `>` decision is an edge case.
  Rng rng(difftest::kSeed ^ 0x9e1d);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  std::vector<CalTrial> trials(97);
  for (CalTrial& tr : trials) {
    tr.truth = rng.uniform_int(4);
    for (double& s : tr.scores)
      s = rng.chance(0.15) ? specials[rng.uniform_int(3)]
                           : kThresholdGrid[rng.uniform_int(12)];
  }
  check_all_orders(trials, "grid-valued scores");
}

TEST(CalibrationDiff, AllScoresTiedPicksFirstTuple) {
  // No threshold changes any decision: every tuple ties and the strict
  // `>` must keep the first one, (0.15, 0.15, 0.15, 0.15).
  std::vector<CalTrial> trials(70);
  for (std::size_t t = 0; t < trials.size(); ++t) {
    trials[t].truth = t % 4;
    trials[t].scores = {0.05, 0.05, 0.05, 0.05};
  }
  check_all_orders(trials, "tied");
  const ThresholdSearch s =
      search_order_thresholds(trials, {Protocol::Zigbee, Protocol::Ble,
                                       Protocol::WifiB, Protocol::WifiN});
  EXPECT_EQ(s.acc, 0.0);
  for (double t : s.thr) EXPECT_EQ(t, 0.15);
}

TEST(CalibrationDiff, RejectsMalformedInput) {
  std::vector<CalTrial> trials(1);
  EXPECT_THROW(search_order_thresholds(trials, {Protocol::Ble, Protocol::Ble,
                                                Protocol::WifiB,
                                                Protocol::WifiN}),
               Error);
  trials[0].truth = 4;
  EXPECT_THROW(search_order_thresholds(trials, all_orders().front()), Error);
}

}  // namespace
}  // namespace ms
