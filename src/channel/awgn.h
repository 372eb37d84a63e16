// Additive white Gaussian noise.
#pragma once

#include <span>

#include "common/rng.h"
#include "dsp/iq.h"

namespace ms {

/// Standard normal draws the noise helpers below take per
/// Rng::fill_normal call.  Even, so a complex sample's two draws never
/// straddle chunks; small, so the scratch stays on the stack whatever
/// the trace length.  Complex sample i takes draws 2i (imaginary part)
/// and 2i + 1 (real part).
inline constexpr std::size_t kNoiseChunk = 512;

/// Add complex AWGN with the given noise power (variance split evenly
/// between I and Q).
Iq add_noise_power(std::span<const Cf> x, double noise_power, Rng& rng);

/// Add complex AWGN so the resulting SNR (signal mean power over noise
/// power) equals `snr_db`.  Silence passes through unchanged.
Iq add_awgn(std::span<const Cf> x, double snr_db, Rng& rng);

/// Real-valued variant for envelope-domain traces.
Samples add_awgn(std::span<const float> x, double snr_db, Rng& rng);

/// Pure complex noise of length n and total power `noise_power`.
Iq complex_noise(std::size_t n, double noise_power, Rng& rng);

}  // namespace ms
