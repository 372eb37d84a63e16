// Differential suite for the sparse contention walk:
// Rng::chance_normal_hits vs the loop it replaces in the fleet trial,
// `hit = chance(p); z = normal();` per round (the oracle).
//
// The walk must return exactly the oracle's hit rounds and their z,
// bit for bit, and leave the generator exactly where the oracle's is:
// a carried spare consumed on entry, a pending spare left on exit.
// After every walk both generators must agree on their next 16
// normal() and then their next 16 raw draws.
#include "diff_harness.h"

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.h"

namespace ms {
namespace {

struct Walk {
  std::vector<std::uint32_t> rounds;
  std::vector<double> z;
};

Walk oracle_walk(Rng& rng, std::size_t n, double p) {
  Walk w;
  for (std::size_t r = 0; r < n; ++r) {
    const bool hit = rng.chance(p);
    const double z = rng.normal();
    if (hit) {
      w.rounds.push_back(static_cast<std::uint32_t>(r));
      w.z.push_back(z);
    }
  }
  return w;
}

Walk fast_walk(Rng& rng, std::size_t n, double p) {
  Walk w;
  w.rounds.resize(n);  // exactly n: ASan flags any write past the end
  w.z.resize(n);
  const std::size_t hits = rng.chance_normal_hits(n, p, w.rounds, w.z);
  w.rounds.resize(hits);
  w.z.resize(hits);
  return w;
}

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_walk(const Walk& fast, const Walk& ref,
                      const std::string& ctx) {
  ASSERT_EQ(fast.rounds, ref.rounds) << "hit rounds (" << ctx << ")";
  ASSERT_EQ(fast.z.size(), ref.z.size()) << ctx;
  for (std::size_t k = 0; k < fast.z.size(); ++k)
    ASSERT_TRUE(same_double(fast.z[k], ref.z[k]))
        << "z of hit " << k << " (" << ctx << "): " << fast.z[k] << " vs "
        << ref.z[k];
}

/// The generators agree on their next 16 normal() (the first may be a
/// carried spare) and then their next 16 raw draws.
void expect_same_state(Rng& fast, Rng& ref, const std::string& ctx) {
  for (int k = 0; k < 16; ++k) {
    const double nf = fast.normal();
    const double nr = ref.normal();
    ASSERT_TRUE(same_double(nf, nr))
        << "normal() " << k << " after the walk (" << ctx << ")";
  }
  for (int k = 0; k < 16; ++k)
    ASSERT_EQ(fast(), ref()) << "raw draw " << k << " after the walk ("
                             << ctx << ")";
}

const double kProbabilities[] = {0.0,
                                 1e-300,
                                 2.0 / 1024.0,
                                 0.5,
                                 1.0,
                                 1.5,
                                 std::numeric_limits<double>::quiet_NaN()};

TEST(ContentionWalkDiff, MatchesChanceThenNormalLoop) {
  Rng master(difftest::kSeed);
  for (double p : kProbabilities)
    for (std::size_t n = 0; n <= 130; ++n)
      for (bool carry : {false, true}) {
        const Rng seed_rng = master.fork(n, carry ? 1 : 0);
        Rng fast = seed_rng;
        Rng ref = seed_rng;
        const std::string ctx = "p=" + std::to_string(p) +
                                " n=" + std::to_string(n) +
                                (carry ? " with carried spare" : "");
        if (carry) {
          // One normal() first leaves a spare for the walk to consume.
          ASSERT_TRUE(same_double(fast.normal(), ref.normal())) << ctx;
        }
        const Walk want = oracle_walk(ref, n, p);
        const Walk got = fast_walk(fast, n, p);
        expect_same_walk(got, want, ctx);
        expect_same_state(fast, ref, ctx);
      }
}

TEST(ContentionWalkDiff, BackToBackWalksCarryTheSpareBetweenThem) {
  // Odd walks leave a pending spare for the next; the second walk must
  // open on it exactly as the oracle's next normal() would.
  for (std::size_t n1 : {1u, 2u, 63u, 64u, 65u})
    for (std::size_t n2 : {0u, 1u, 3u, 64u})
      for (double p : {0.0, 0.3, 1.0}) {
        Rng fast(difftest::kSeed ^ (n1 * 977 + n2));
        Rng ref = fast;
        const std::string ctx = "n1=" + std::to_string(n1) +
                                " n2=" + std::to_string(n2) +
                                " p=" + std::to_string(p);
        expect_same_walk(fast_walk(fast, n1, p), oracle_walk(ref, n1, p),
                         ctx + " first");
        expect_same_walk(fast_walk(fast, n2, p), oracle_walk(ref, n2, p),
                         ctx + " second");
        expect_same_state(fast, ref, ctx);
      }
}

TEST(ContentionWalkDiff, LongWalkAtFleetLoad) {
  // 1024 tags x 64 slots worth of rounds at the sweep's p = 2/1024, and
  // a dense p for many polar rejections on the hit path.
  for (double p : {2.0 / 1024.0, 0.3}) {
    Rng fast(difftest::kSeed + 17);
    Rng ref = fast;
    const std::string ctx = "long walk p=" + std::to_string(p);
    expect_same_walk(fast_walk(fast, 65536, p), oracle_walk(ref, 65536, p),
                     ctx);
    expect_same_state(fast, ref, ctx);
  }
}

TEST(ContentionWalkDiff, RejectsShortOutputSpans) {
  Rng rng(difftest::kSeed);
  std::vector<std::uint32_t> rounds(7);
  std::vector<double> z(8);
  EXPECT_THROW(rng.chance_normal_hits(8, 0.5, rounds, z), Error);
  rounds.resize(8);
  z.resize(7);
  EXPECT_THROW(rng.chance_normal_hits(8, 0.5, rounds, z), Error);
}

}  // namespace
}  // namespace ms
