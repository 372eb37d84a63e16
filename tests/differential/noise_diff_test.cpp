// Differential suite for batched Gaussian noise: Rng::fill_normal vs
// successive Rng::normal() calls (the oracle), and the chunked AWGN
// helpers in channel/awgn.h vs the per-draw loops they replaced, kept
// here verbatim apart from the pinned imaginary-first draw order.
//
// Comparison is bitwise, and after every call the generator itself must
// match the oracle's: the next normal() (which may return a carried
// spare) and the next raw 64-bit draw.
#include "diff_harness.h"

#include <cmath>
#include <vector>

#include "common/units.h"
#include "dsp/ops.h"

namespace ms {
namespace {

constexpr std::size_t kBatch = Rng::kNormalBatch;

/// Lengths around fill_normal's candidate block (a block of candidates
/// yields up to 2·kBatch draws) and the helpers' draw chunk.
std::vector<std::size_t> edge_lengths() {
  return {0,
          1,
          2,
          3,
          kBatch - 1,
          kBatch,
          kBatch + 1,
          2 * kBatch - 1,
          2 * kBatch,
          2 * kBatch + 1,
          kNoiseChunk - 1,
          kNoiseChunk,
          kNoiseChunk + 1,
          40000};
}

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The generators agree on their next normal() and next raw draw.
void expect_same_state(Rng& fast, Rng& ref, const std::string& ctx) {
  const double nf = fast.normal();
  const double nr = ref.normal();
  EXPECT_TRUE(same_double(nf, nr))
      << "next normal() (" << ctx << "): " << nf << " vs " << nr;
  EXPECT_EQ(fast(), ref()) << "next raw draw (" << ctx << ")";
}

// ---- per-draw oracles of the channel/awgn.h helpers ----

Iq ref_complex_noise(std::size_t n, double noise_power, Rng& rng) {
  Iq out(n);
  const double sigma = std::sqrt(noise_power / 2.0);
  for (Cf& v : out) {
    const double im = rng.normal(0.0, sigma);
    const double re = rng.normal(0.0, sigma);
    v = Cf(static_cast<float>(re), static_cast<float>(im));
  }
  return out;
}

Iq ref_add_noise_power(std::span<const Cf> x, double noise_power, Rng& rng) {
  Iq out(x.begin(), x.end());
  const double sigma = std::sqrt(noise_power / 2.0);
  for (Cf& v : out) {
    const double im = rng.normal(0.0, sigma);
    const double re = rng.normal(0.0, sigma);
    v += Cf(static_cast<float>(re), static_cast<float>(im));
  }
  return out;
}

Samples ref_add_awgn(std::span<const float> x, double snr_db, Rng& rng) {
  const double p = mean_power(x);
  Samples out(x.begin(), x.end());
  if (p <= 0.0) return out;
  const double sigma = std::sqrt(p / db_to_linear(snr_db));
  for (float& v : out) v += static_cast<float>(rng.normal(0.0, sigma));
  return out;
}

Iq random_iq(std::size_t n, Rng& rng) {
  Iq x(n);
  for (Cf& v : x)
    v = Cf(static_cast<float>(rng.uniform(-1.0, 1.0)),
           static_cast<float>(rng.uniform(-1.0, 1.0)));
  return x;
}

TEST(NoiseDiff, FillNormalMatchesSuccessiveNormalCalls) {
  for (std::size_t n : edge_lengths()) {
    for (int pre : {0, 1}) {  // 1 leaves a spare carried into the call
      const std::uint64_t seed = difftest::kSeed + 31 * n + pre;
      Rng fast(seed), ref(seed);
      for (int i = 0; i < pre; ++i) {
        fast.normal();
        ref.normal();
      }
      std::vector<double> got(n);
      fast.fill_normal(got);
      const std::string ctx = difftest::ctx("n=%zu pre=%d", n, pre);
      for (std::size_t k = 0; k < n; ++k) {
        const double want = ref.normal();
        if (!same_double(got[k], want)) {
          ADD_FAILURE() << "fill_normal diverges at draw " << k << " ("
                        << ctx << "): " << got[k] << " vs " << want;
          break;
        }
      }
      expect_same_state(fast, ref, ctx);
    }
  }
}

TEST(NoiseDiff, FillNormalBackToBackCalls) {
  // Odd lengths hand the spare from one call to the next; the stream of
  // calls must still be the stream of normal() draws.
  Rng fast(difftest::kSeed ^ 1), ref(difftest::kSeed ^ 1);
  Rng lengths(difftest::kSeed ^ 2);
  for (int call = 0; call < 200; ++call) {
    std::vector<double> got(lengths.uniform_int(3 * kBatch));
    fast.fill_normal(got);
    for (std::size_t k = 0; k < got.size(); ++k)
      ASSERT_TRUE(same_double(got[k], ref.normal()))
          << "call " << call << " draw " << k;
  }
  expect_same_state(fast, ref, "after 200 calls");
}

TEST(NoiseDiff, ComplexNoiseMatchesPerDrawLoop) {
  // Power 0 gives +0.0 samples only through the oracle's 0.0 + σ·z.
  for (std::size_t n : edge_lengths()) {
    for (int pre : {0, 1}) {
      for (double power : {0.0, 1e-90, 2.0, 1e9}) {
        const std::uint64_t seed = difftest::kSeed + 7 * n + pre;
        Rng fast(seed), ref(seed);
        for (int i = 0; i < pre; ++i) {
          fast.normal();
          ref.normal();
        }
        const std::string ctx =
            difftest::ctx("n=%zu pre=%d power=%g", n, pre, power);
        difftest::expect_same_samples(complex_noise(n, power, fast),
                                      ref_complex_noise(n, power, ref),
                                      "complex_noise", ctx);
        expect_same_state(fast, ref, ctx);
      }
    }
  }
}

TEST(NoiseDiff, AddNoisePowerMatchesPerDrawLoop) {
  // 1e-90 makes most noise samples round to ±0 in float, so the sum
  // with the signal meets signed zeros on both sides.
  Rng gen(difftest::kSeed ^ 3);
  for (std::size_t n : edge_lengths()) {
    for (int pre : {0, 1}) {
      for (double power : {1e-90, 0.01, 3.0}) {
        const Iq x = random_iq(n, gen);
        const std::uint64_t seed = gen();
        Rng fast(seed), ref(seed);
        for (int i = 0; i < pre; ++i) {
          fast.normal();
          ref.normal();
        }
        const std::string ctx =
            difftest::ctx("n=%zu pre=%d power=%g", n, pre, power);
        difftest::expect_same_samples(add_noise_power(x, power, fast),
                                      ref_add_noise_power(x, power, ref),
                                      "add_noise_power", ctx);
        expect_same_state(fast, ref, ctx);
      }
    }
  }
}

TEST(NoiseDiff, ComplexAddAwgnMatchesPerDrawLoop) {
  Rng gen(difftest::kSeed ^ 4);
  for (std::size_t n : edge_lengths()) {
    const Iq x = random_iq(n, gen);
    const double snr_db = gen.uniform(-10.0, 30.0);
    const std::uint64_t seed = gen();
    Rng fast(seed), ref(seed);
    const double p = mean_power(std::span<const Cf>(x));
    const Iq want =
        p > 0.0 ? ref_add_noise_power(x, p / db_to_linear(snr_db), ref) : x;
    const std::string ctx = difftest::ctx("n=%zu snr=%.2f", n, snr_db);
    difftest::expect_same_samples(add_awgn(x, snr_db, fast), want,
                                  "add_awgn(Cf)", ctx);
    expect_same_state(fast, ref, ctx);
  }
}

TEST(NoiseDiff, RealAddAwgnMatchesPerDrawLoop) {
  Rng gen(difftest::kSeed ^ 5);
  for (std::size_t n : edge_lengths()) {
    for (int pre : {0, 1}) {
      Samples x(n);
      for (float& v : x) v = static_cast<float>(gen.uniform(0.0, 2.0));
      const double snr_db = gen.uniform(-10.0, 30.0);
      const std::uint64_t seed = gen();
      Rng fast(seed), ref(seed);
      for (int i = 0; i < pre; ++i) {
        fast.normal();
        ref.normal();
      }
      const std::string ctx =
          difftest::ctx("n=%zu pre=%d snr=%.2f", n, pre, snr_db);
      difftest::expect_same_floats(add_awgn(x, snr_db, fast),
                                   ref_add_awgn(x, snr_db, ref),
                                   "add_awgn(float)", ctx);
      expect_same_state(fast, ref, ctx);
    }
  }
}

}  // namespace
}  // namespace ms
