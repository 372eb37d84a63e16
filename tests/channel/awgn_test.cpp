#include "channel/awgn.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "dsp/ops.h"

namespace ms {
namespace {

TEST(Awgn, AchievesRequestedSnr) {
  Rng rng(1);
  const Iq x(20000, Cf(1.0f, 0.0f));
  for (double snr : {0.0, 10.0, 20.0}) {
    const Iq y = add_awgn(x, snr, rng);
    double noise_power = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      noise_power += std::norm(y[i] - x[i]);
    noise_power /= static_cast<double>(x.size());
    EXPECT_NEAR(linear_to_db(1.0 / noise_power), snr, 0.3) << snr;
  }
}

TEST(Awgn, SilencePassesThrough) {
  Rng rng(2);
  const Iq x(100, Cf(0.0f, 0.0f));
  const Iq y = add_awgn(x, 10.0, rng);
  for (const Cf& v : y) EXPECT_EQ(v, Cf(0.0f, 0.0f));
}

TEST(Awgn, ComplexNoisePower) {
  Rng rng(3);
  const Iq n = complex_noise(50000, 2.0, rng);
  EXPECT_NEAR(mean_power(std::span<const Cf>(n)), 2.0, 0.05);
}

TEST(Awgn, NoiseSplitsEvenlyAcrossIq) {
  Rng rng(4);
  const Iq n = complex_noise(50000, 1.0, rng);
  double pi = 0.0, pq = 0.0;
  for (const Cf& v : n) {
    pi += v.real() * v.real();
    pq += v.imag() * v.imag();
  }
  EXPECT_NEAR(pi / pq, 1.0, 0.05);
}

TEST(Awgn, RealVariant) {
  Rng rng(5);
  const Samples x(20000, 1.0f);
  const Samples y = add_awgn(x, 10.0, rng);
  double noise = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    noise += (y[i] - x[i]) * (y[i] - x[i]);
  noise /= static_cast<double>(x.size());
  EXPECT_NEAR(linear_to_db(1.0 / noise), 10.0, 0.4);
}

TEST(Awgn, ComplexNoiseTakesImaginaryDrawFirst) {
  // Sample i is Cf(second draw, first draw): the order the committed
  // outputs were generated with, pinned so it no longer rests on the
  // compiler's argument evaluation order.
  Rng rng(11), draws(11);
  const Iq n = complex_noise(3, 2.0, rng);  // sigma = 1
  for (const Cf& v : n) {
    const float first = static_cast<float>(draws.normal(0.0, 1.0));
    const float second = static_cast<float>(draws.normal(0.0, 1.0));
    EXPECT_EQ(v.imag(), first);
    EXPECT_EQ(v.real(), second);
  }
}

TEST(Awgn, DeterministicGivenSeed) {
  Rng a(7), b(7);
  const Iq x(100, Cf(1.0f, 1.0f));
  EXPECT_EQ(add_awgn(x, 5.0, a), add_awgn(x, 5.0, b));
}

}  // namespace
}  // namespace ms
