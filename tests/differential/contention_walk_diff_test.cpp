// Differential suite for the sparse contention walk:
// Rng::chance_normal_hits vs the loop it replaces in the fleet trial,
// `hit = chance(p); z = normal();` per round (the oracle).
//
// The walk must return exactly the oracle's hit rounds and their z,
// bit for bit, and leave the generator exactly where the oracle's is:
// a carried spare consumed on entry, a pending spare left on exit.
// After every walk both generators must agree on their next 16
// normal() and then their next 16 raw draws.
//
// The lane walk, Rng::chance_normal_hits_group, must give each stream
// of a group exactly the oracle's hits, in every build the CPU runs:
// ragged groups, mixed per-stream p, block tails and the scalar
// continuation a lane takes when it runs out of its block.
#include "diff_harness.h"

#include <cmath>
#include <iterator>
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

// ---- The lane walk --------------------------------------------------

const double kLaneProbabilities[] = {0.0,
                                     -0.0,
                                     std::numeric_limits<double>::denorm_min(),
                                     1e-300,
                                     2.0 / 1024.0,
                                     0.5,
                                     1.0,
                                     1.5,
                                     std::numeric_limits<double>::quiet_NaN()};

std::size_t walk_lanes(Rng::WalkIsa isa) {
  return isa == Rng::WalkIsa::Avx512 ? 8 : 4;
}

/// Runs one group through chance_normal_hits_group and checks every
/// stream's hits against the two-call oracle on a copy of it.
void expect_group_matches_oracle(std::span<const Rng> streams,
                                 std::span<const double> p, std::size_t n,
                                 Rng::WalkIsa isa, const std::string& ctx) {
  const std::size_t g = streams.size();
  // Exactly g * n: ASan flags any write past the end.
  std::vector<std::uint32_t> rounds(g * n);
  std::vector<double> z(g * n);
  std::vector<std::size_t> counts(g);
  Rng::chance_normal_hits_group(streams, n, p, rounds, z, counts, isa);
  std::size_t at = 0;
  for (std::size_t l = 0; l < g; ++l) {
    Rng ref = streams[l];
    const Walk want = oracle_walk(ref, n, p[l]);
    Walk got;
    got.rounds.assign(rounds.begin() + at, rounds.begin() + at + counts[l]);
    got.z.assign(z.begin() + at, z.begin() + at + counts[l]);
    at += counts[l];
    expect_same_walk(got, want, ctx + " stream " + std::to_string(l));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

class LaneWalkDiff : public ::testing::TestWithParam<Rng::WalkIsa> {
 protected:
  void SetUp() override {
    if (!Rng::walk_isa_supported(GetParam()))
      GTEST_SKIP() << Rng::walk_isa_name(GetParam())
                   << " is not supported on this CPU";
  }
};

TEST_P(LaneWalkDiff, RaggedGroupsMixedProbabilities) {
  const Rng::WalkIsa isa = GetParam();
  const std::size_t lanes = walk_lanes(isa);
  Rng master(difftest::kSeed ^ 0x1a4e);
  for (std::size_t g = 1; g <= 2 * lanes + 1; ++g)
    for (std::size_t n = 0; n <= 130; ++n) {
      std::vector<Rng> streams;
      std::vector<double> p;
      for (std::size_t l = 0; l < g; ++l) {
        streams.push_back(master.fork(g * 1000 + n, l));
        // One pick past the list is a tie: p equal to the stream's
        // first coin draw, which must not hit.
        const std::size_t pick =
            (l * 7 + n * 3 + g) % (std::size(kLaneProbabilities) + 1);
        p.push_back(pick < std::size(kLaneProbabilities)
                        ? kLaneProbabilities[pick]
                        : Rng(streams.back()).uniform());
      }
      expect_group_matches_oracle(
          streams, p, n, isa,
          std::string(Rng::walk_isa_name(isa)) + " g=" + std::to_string(g) +
              " n=" + std::to_string(n));
      if (HasFatalFailure()) return;
    }
}

TEST_P(LaneWalkDiff, LongWalksFinishOnTheScalarContinuation) {
  // Far more rounds than a lane block holds: every lane leaves its
  // block, at an even or an odd round, and finishes on the scalar walk.
  const Rng::WalkIsa isa = GetParam();
  const std::size_t lanes = walk_lanes(isa);
  Rng master(difftest::kSeed ^ 0x10c9);
  for (std::size_t n : {255u, 256u, 1000u, 1001u})
    for (double p0 : {2.0 / 1024.0, 0.5, 1.0}) {
      std::vector<Rng> streams;
      std::vector<double> p;
      for (std::size_t l = 0; l < 2 * lanes + 1; ++l) {
        streams.push_back(master.fork(n, l));
        p.push_back(l % 3 == 2 ? 0.0 : p0);
      }
      expect_group_matches_oracle(
          streams, p, n, isa,
          std::string(Rng::walk_isa_name(isa)) + " long n=" +
              std::to_string(n) + " p=" + std::to_string(p0));
      if (HasFatalFailure()) return;
    }
}

TEST_P(LaneWalkDiff, StreamsCarryingASpare) {
  // A stream that carries a spare opens on it, as chance_normal_hits
  // does; its neighbours in the group are unaffected.
  const Rng::WalkIsa isa = GetParam();
  Rng master(difftest::kSeed ^ 0x59a7);
  for (std::size_t n : {0u, 1u, 2u, 63u, 64u, 65u}) {
    std::vector<Rng> streams;
    std::vector<double> p;
    for (std::size_t l = 0; l < walk_lanes(isa) + 1; ++l) {
      streams.push_back(master.fork(n, l));
      if (l % 2 == 1) (void)streams.back().normal();
      p.push_back(l % 4 == 3 ? 1.0 : 0.5);
    }
    expect_group_matches_oracle(streams, p, n, isa,
                                std::string(Rng::walk_isa_name(isa)) +
                                    " carried spare n=" + std::to_string(n));
    if (HasFatalFailure()) return;
  }
}

TEST_P(LaneWalkDiff, RejectsShortSpans) {
  const Rng::WalkIsa isa = GetParam();
  const std::vector<Rng> streams = {Rng(1), Rng(2), Rng(3)};
  const std::vector<double> p(3, 0.5);
  std::vector<std::uint32_t> rounds(3 * 8);
  std::vector<double> z(3 * 8);
  std::vector<std::size_t> counts(3);
  EXPECT_NO_THROW(Rng::chance_normal_hits_group(streams, 8, p, rounds, z,
                                                counts, isa));
  std::vector<std::uint32_t> short_rounds(3 * 8 - 1);
  EXPECT_THROW(Rng::chance_normal_hits_group(streams, 8, p, short_rounds, z,
                                             counts, isa),
               Error);
  std::vector<std::size_t> short_counts(2);
  EXPECT_THROW(Rng::chance_normal_hits_group(streams, 8, p, rounds, z,
                                             short_counts, isa),
               Error);
}

INSTANTIATE_TEST_SUITE_P(
    Builds, LaneWalkDiff,
    ::testing::Values(Rng::WalkIsa::Scalar, Rng::WalkIsa::Avx2,
                      Rng::WalkIsa::Avx512),
    [](const ::testing::TestParamInfo<Rng::WalkIsa>& info) {
      return std::string(Rng::walk_isa_name(info.param));
    });

TEST(LaneWalkIsa, DefaultBuildIsSupported) {
  EXPECT_TRUE(Rng::walk_isa_supported(Rng::default_walk_isa()));
}

}  // namespace
}  // namespace ms
