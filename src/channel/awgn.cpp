#include "channel/awgn.h"

#include <algorithm>
#include <cmath>

#include "common/units.h"
#include "dsp/ops.h"

namespace ms {

namespace {

static_assert(kNoiseChunk % 2 == 0);

// The value rng.normal(0.0, sigma) would return for the standard draw z,
// narrowed to the sample type.
inline float scaled(double sigma, double z) {
  return static_cast<float>(0.0 + sigma * z);
}

// Runs apply(first, z) over the n_draws successive standard normal
// draws of rng, kNoiseChunk at a time: z holds draws first ..
// first + z.size() − 1.
template <class Apply>
void for_each_noise_chunk(std::size_t n_draws, Rng& rng, Apply&& apply) {
  double buf[kNoiseChunk];
  for (std::size_t first = 0; first < n_draws; first += kNoiseChunk) {
    const std::span<double> z(buf, std::min(kNoiseChunk, n_draws - first));
    rng.fill_normal(z);
    apply(first, std::span<const double>(z));
  }
}

// Calls f(sample, re, im) for each of n complex noise samples.  Sample i
// takes draws 2i (imaginary part) and 2i + 1 (real part): the order the
// per-draw `Cf(normal(), normal())` loops had under GCC's right-to-left
// argument evaluation, which the committed outputs were made with.
template <class F>
void for_each_complex_noise(std::size_t n, double sigma, Rng& rng, F&& f) {
  for_each_noise_chunk(2 * n, rng, [&](std::size_t first,
                                       std::span<const double> z) {
    const std::size_t base = first / 2;
    for (std::size_t j = 0; j < z.size() / 2; ++j)
      f(base + j, scaled(sigma, z[2 * j + 1]), scaled(sigma, z[2 * j]));
  });
}

}  // namespace

Iq complex_noise(std::size_t n, double noise_power, Rng& rng) {
  Iq out(n);
  for_each_complex_noise(n, std::sqrt(noise_power / 2.0), rng,
                         [&](std::size_t i, float re, float im) {
                           out[i] = Cf(re, im);
                         });
  return out;
}

Iq add_noise_power(std::span<const Cf> x, double noise_power, Rng& rng) {
  Iq out(x.begin(), x.end());
  for_each_complex_noise(out.size(), std::sqrt(noise_power / 2.0), rng,
                         [&](std::size_t i, float re, float im) {
                           out[i] += Cf(re, im);
                         });
  return out;
}

Iq add_awgn(std::span<const Cf> x, double snr_db, Rng& rng) {
  const double p = mean_power(x);
  if (p <= 0.0) return Iq(x.begin(), x.end());
  return add_noise_power(x, p / db_to_linear(snr_db), rng);
}

Samples add_awgn(std::span<const float> x, double snr_db, Rng& rng) {
  const double p = mean_power(x);
  Samples out(x.begin(), x.end());
  if (p <= 0.0) return out;
  const double sigma = std::sqrt(p / db_to_linear(snr_db));
  for_each_noise_chunk(out.size(), rng, [&](std::size_t first,
                                            std::span<const double> z) {
    for (std::size_t j = 0; j < z.size(); ++j)
      out[first + j] += scaled(sigma, z[j]);
  });
  return out;
}

}  // namespace ms
