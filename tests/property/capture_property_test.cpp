// Property sweeps for the fleet capture/superposition engine
// (ISSUE 10): the determinism contracts the many-tag world model is
// built on, each checked over hundreds of randomized fleets.
//
//  - arbitrate() is a pure function of the contender SET: any
//    permutation of the input span produces a bit-identical verdict.
//  - Power ties break toward the lowest tag id, never insertion order.
//  - strongest_contender() over an id-sorted set names arbitrate()'s
//    winner at any noise floor, so the fleet trial can find the winner
//    first and arbitrate once, against the winner's own floor.
//  - The winner is monotone in the received-power ratio: raising the
//    winner's power (others fixed) never downgrades the outcome.
//  - N-tag superposition is bit-identical to the element-wise sum of
//    the N single-tag reference buffers, at any chunk size.
//  - A tag's Rng sub-stream depends only on (cell stream, salt, tag
//    id) — not on fleet size or sibling draws.
#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "channel/superposition.h"
#include "common/rng.h"
#include "sim/fleet/capture.h"
#include "sim/fleet/tag_fleet.h"

namespace ms {
namespace {

using fleet::Arbitration;
using fleet::CaptureConfig;
using fleet::Contender;
using fleet::SlotOutcome;

std::vector<Contender> random_contenders(Rng& rng, std::size_t max_n) {
  const std::size_t n = 1 + rng.uniform_int(max_n);
  std::vector<Contender> c(n);
  for (std::size_t i = 0; i < n; ++i) {
    c[i].tag_id = static_cast<std::uint32_t>(i * 3 + rng.uniform_int(3));
    c[i].rx_power_dbm = rng.uniform(-95.0, -40.0);
  }
  // Ids must be unique; the stride-3 + jitter construction above can
  // still collide across neighbours, so deduplicate deterministically.
  std::sort(c.begin(), c.end(), [](const Contender& a, const Contender& b) {
    return a.tag_id < b.tag_id;
  });
  for (std::size_t i = 1; i < c.size(); ++i)
    if (c[i].tag_id <= c[i - 1].tag_id) c[i].tag_id = c[i - 1].tag_id + 1;
  return c;
}

bool bit_identical(const Arbitration& a, const Arbitration& b) {
  return a.outcome == b.outcome && a.winner_id == b.winner_id &&
         std::memcmp(&a.winner_power_dbm, &b.winner_power_dbm,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.interference_dbm, &b.interference_dbm,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.sinr_db, &b.sinr_db, sizeof(double)) == 0;
}

TEST(CaptureProperty, VerdictIsPermutationInvariant) {
  Rng rng(4001);
  const CaptureConfig cfg;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<Contender> c = random_contenders(rng, 12);
    const double noise = rng.uniform(-110.0, -90.0);
    const Arbitration ref = fleet::arbitrate(c, cfg, noise);
    for (int perm = 0; perm < 4; ++perm) {
      std::shuffle(c.begin(), c.end(), rng);
      const Arbitration got = fleet::arbitrate(c, cfg, noise);
      ASSERT_TRUE(bit_identical(ref, got))
          << "trial " << trial << " permutation " << perm;
    }
  }
}

TEST(CaptureProperty, PowerTiesBreakTowardLowestTagId) {
  Rng rng(4002);
  const CaptureConfig cfg;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 2 + rng.uniform_int(8);
    const double power = rng.uniform(-80.0, -50.0);
    std::vector<Contender> c(n);
    std::uint32_t lowest = ~0u;
    for (std::size_t i = 0; i < n; ++i) {
      c[i].tag_id = static_cast<std::uint32_t>(rng.uniform_int(1000) * n + i);
      c[i].rx_power_dbm = power;  // exact tie across the board
      lowest = std::min(lowest, c[i].tag_id);
    }
    std::shuffle(c.begin(), c.end(), rng);
    const Arbitration a = fleet::arbitrate(c, cfg, -100.0);
    EXPECT_EQ(a.winner_id, lowest) << "trial " << trial;
  }
}

TEST(CaptureProperty, StrongestContenderIsTheWinnerAtAnyNoiseFloor) {
  Rng rng(4005);
  const CaptureConfig cfg;
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Contender> c = random_contenders(rng, 12);
    // Every other set ties some contenders with the first one's power.
    if (trial % 2)
      for (std::size_t i = 1; i < c.size(); i += 2)
        c[i].rx_power_dbm = c[0].rx_power_dbm;
    const std::uint32_t want = c[fleet::strongest_contender(c)].tag_id;
    for (double noise_dbm : {-174.0, -100.0, -60.0})
      EXPECT_EQ(fleet::arbitrate(c, cfg, noise_dbm).winner_id, want)
          << "trial " << trial << " noise " << noise_dbm;
  }
}

TEST(CaptureProperty, WinnerMonotoneInPowerRatio) {
  Rng rng(4003);
  const CaptureConfig cfg;
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<Contender> c = random_contenders(rng, 10);
    const Arbitration before = fleet::arbitrate(c, cfg, -100.0);
    // Raise the current winner's power by a random positive delta:
    // the winner must not change and the outcome must not downgrade.
    for (Contender& x : c)
      if (x.tag_id == before.winner_id)
        x.rx_power_dbm += rng.uniform(0.1, 30.0);
    const Arbitration after = fleet::arbitrate(c, cfg, -100.0);
    EXPECT_EQ(after.winner_id, before.winner_id) << "trial " << trial;
    if (before.outcome == SlotOutcome::Captured ||
        before.outcome == SlotOutcome::Clean) {
      EXPECT_NE(after.outcome, SlotOutcome::Collision) << "trial " << trial;
    }
    if (c.size() > 1) {
      // Push far past any interference sum: must capture outright.
      for (Contender& x : c)
        if (x.tag_id == before.winner_id) x.rx_power_dbm = 0.0;
      const Arbitration captured = fleet::arbitrate(c, cfg, -100.0);
      EXPECT_EQ(captured.outcome, SlotOutcome::Captured) << "trial " << trial;
      EXPECT_EQ(captured.winner_id, before.winner_id) << "trial " << trial;
    }
  }
}

TEST(CaptureProperty, ThresholdZeroAlwaysCapturesTheStrongest) {
  Rng rng(4004);
  CaptureConfig cfg;
  cfg.threshold_db = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Contender> c = random_contenders(rng, 8);
    if (c.size() < 2) continue;
    // With a 0 dB margin the strongest captures iff it at least matches
    // the interference sum; make it dominate by construction.
    double strongest = -1e9;
    std::uint32_t strongest_id = 0;
    for (const Contender& x : c)
      if (x.rx_power_dbm > strongest) {
        strongest = x.rx_power_dbm;
        strongest_id = x.tag_id;
      }
    for (Contender& x : c)
      if (x.tag_id == strongest_id)
        x.rx_power_dbm = -30.0;  // > sum of <= 7 others at <= -40 dBm
    const Arbitration a = fleet::arbitrate(c, cfg, -100.0);
    EXPECT_EQ(a.outcome, SlotOutcome::Captured) << "trial " << trial;
    EXPECT_EQ(a.winner_id, strongest_id) << "trial " << trial;
  }
}

Iq random_wave(Rng& rng, std::size_t n) {
  Iq w(n);
  for (Cf& v : w)
    v = Cf(static_cast<float>(rng.uniform(-1.0, 1.0)),
           static_cast<float>(rng.uniform(-1.0, 1.0)));
  return w;
}

TEST(CaptureProperty, SuperpositionMatchesSummedReferencesBitwise) {
  Rng rng(4005);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(6);
    std::vector<Iq> waves(n);
    std::vector<SuperposedSource> sources(n);
    for (std::size_t s = 0; s < n; ++s) {
      waves[s] = random_wave(rng, 1 + rng.uniform_int(256));
      sources[s].wave = waves[s];
      sources[s].channel.gain_db = rng.uniform(-30.0, 6.0);
      sources[s].channel.phase_rad = rng.uniform(0.0, 6.283185307179586);
      sources[s].channel.delay_samples = rng.uniform_int(64);
    }
    const std::size_t len = superposed_length(sources);
    const Iq composite = superpose_tags(sources);
    ASSERT_EQ(composite.size(), len);

    // Oracle: each tag through its own channel into its own zeroed
    // buffer, then an element-wise sum in the same ascending order.
    Iq acc(len, Cf(0.0f, 0.0f));
    for (std::size_t s = 0; s < n; ++s) {
      const Iq ref = apply_tag_channel(sources[s].wave, sources[s].channel,
                                       len);
      for (std::size_t i = 0; i < len; ++i) acc[i] += ref[i];
    }
    ASSERT_EQ(std::memcmp(composite.data(), acc.data(),
                          len * sizeof(Cf)),
              0)
        << "trial " << trial;
  }
}

TEST(CaptureProperty, SuperpositionIsChunkSizeInvariant) {
  Rng rng(4006);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.uniform_int(5);
    std::vector<Iq> waves(n);
    std::vector<SuperposedSource> sources(n);
    for (std::size_t s = 0; s < n; ++s) {
      waves[s] = random_wave(rng, 1 + rng.uniform_int(300));
      sources[s].wave = waves[s];
      sources[s].channel.gain_db = rng.uniform(-20.0, 3.0);
      sources[s].channel.phase_rad = rng.uniform(0.0, 6.283185307179586);
      sources[s].channel.delay_samples = rng.uniform_int(40);
    }
    const std::size_t len = superposed_length(sources);
    Iq a(len, Cf(0.0f, 0.0f)), b(len, Cf(0.0f, 0.0f)),
        c(len, Cf(0.0f, 0.0f));
    superpose_tags_into(sources, a, 1);
    superpose_tags_into(sources, b, 7);
    superpose_tags_into(sources, c, 4096);
    ASSERT_EQ(std::memcmp(a.data(), b.data(), len * sizeof(Cf)), 0)
        << "trial " << trial;
    ASSERT_EQ(std::memcmp(a.data(), c.data(), len * sizeof(Cf)), 0)
        << "trial " << trial;
  }
}

TEST(CaptureProperty, TagStreamsDependOnlyOnSaltAndTagId) {
  // The same tag id in fleets of different sizes — and at different
  // indices — derives the same sub-stream from the same cell Rng, and
  // draws from one tag's stream never perturb a sibling's.
  fleet::FleetConfig fc;
  const fleet::TagFleet small(fc, fleet::default_fleet_specs(4, 0.5, 4.0));
  const fleet::TagFleet big(fc, fleet::default_fleet_specs(64, 0.5, 4.0));
  for (std::uint64_t seed : {1ull, 77ull, 91234ull}) {
    const Rng cell(seed);
    for (std::size_t i = 0; i < small.size(); ++i) {
      Rng a = small.tag_stream(cell, fleet::kContentionStream, i);
      Rng b = big.tag_stream(cell, fleet::kContentionStream, i);
      for (int k = 0; k < 16; ++k) ASSERT_EQ(a(), b()) << "seed " << seed;
      // Distinct salts give uncorrelated streams for the same tag.
      Rng c = small.tag_stream(cell, fleet::kPlacementStream, i);
      Rng d = small.tag_stream(cell, fleet::kContentionStream, i);
      bool differs = false;
      for (int k = 0; k < 16; ++k) differs |= (c() != d());
      EXPECT_TRUE(differs) << "salt collision for tag " << i;
    }
  }
}

}  // namespace
}  // namespace ms
