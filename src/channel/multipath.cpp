#include "channel/multipath.h"

#include <cmath>
#include <complex>

#include "channel/timevarying.h"
#include "common/error.h"
#include "common/units.h"

namespace ms {

namespace {

/// Exponential power-delay profile over the scattered taps: per-tap
/// powers summing to the total scatter power 1/(1+K).
std::vector<double> scatter_tap_powers(const MultipathConfig& cfg) {
  const double k = db_to_linear(cfg.k_factor_db);
  const double scatter_power = 1.0 / (1.0 + k);
  std::vector<double> powers;
  if (cfg.n_taps <= 1) return powers;
  powers.resize(cfg.n_taps - 1);
  double wsum = 0.0;
  for (unsigned t = 0; t < cfg.n_taps - 1; ++t) {
    powers[t] = std::exp(-static_cast<double>(t + 1) / 2.0);
    wsum += powers[t];
  }
  for (double& p : powers) p = scatter_power * p / wsum;
  return powers;
}

}  // namespace

MultipathChannel sample_multipath(const MultipathConfig& cfg,
                                  double sample_rate_hz, Rng& rng) {
  MS_CHECK(cfg.n_taps >= 1);
  MS_CHECK(sample_rate_hz > 0.0);
  MultipathChannel ch;
  ch.taps.reserve(cfg.n_taps);
  ch.delays.reserve(cfg.n_taps);

  const double k = db_to_linear(cfg.k_factor_db);
  const double los_power = k / (1.0 + k);

  // LoS tap: fixed amplitude, random absolute phase.
  const double los_phase = rng.uniform(0.0, 2.0 * M_PI);
  ch.taps.push_back(Cf(static_cast<float>(std::sqrt(los_power) * std::cos(los_phase)),
                       static_cast<float>(std::sqrt(los_power) * std::sin(los_phase))));
  ch.delays.push_back(0);

  const std::vector<double> powers = scatter_tap_powers(cfg);
  for (unsigned t = 0; t < powers.size(); ++t) {
    const double sigma = std::sqrt(powers[t] / 2.0);
    // Imaginary part first: the draw order is pinned, not left to the
    // unspecified evaluation order of constructor arguments.
    const double im = rng.normal(0.0, sigma);
    const double re = rng.normal(0.0, sigma);
    ch.taps.push_back(Cf(static_cast<float>(re), static_cast<float>(im)));
    const double delay_s = cfg.delay_spread_s * static_cast<double>(t + 1);
    ch.delays.push_back(std::max<std::size_t>(
        1, static_cast<std::size_t>(delay_s * sample_rate_hz)));
  }
  return ch;
}

MultipathFader::MultipathFader(const MultipathFadingConfig& cfg,
                               double sample_rate_hz, Rng& rng)
    : cfg_(cfg),
      ch_(sample_multipath(cfg.profile, sample_rate_hz, rng)),
      rho_(clarke_rho(cfg.doppler_hz, cfg.step_time_s)) {
  const std::vector<double> powers = scatter_tap_powers(cfg_.profile);
  scatter_sigma_.reserve(powers.size());
  for (double p : powers) scatter_sigma_.push_back(std::sqrt(p / 2.0));

  const double k = db_to_linear(cfg_.profile.k_factor_db);
  los_amp_ = std::sqrt(k / (1.0 + k));
  los_phase_ = std::atan2(ch_.taps[0].imag(), ch_.taps[0].real());
  // LoS Doppler depends on the arrival angle relative to motion.
  const double angle = rng.uniform(0.0, 2.0 * M_PI);
  los_rate_rad_ =
      2.0 * M_PI * cfg_.doppler_hz * std::cos(angle) * cfg_.step_time_s;
}

void MultipathFader::step(Rng& rng) {
  if (cfg_.doppler_hz == 0.0) return;  // frozen channel
  los_phase_ = std::fmod(los_phase_ + los_rate_rad_, 2.0 * M_PI);
  ch_.taps[0] = Cf(static_cast<float>(los_amp_ * std::cos(los_phase_)),
                   static_cast<float>(los_amp_ * std::sin(los_phase_)));
  const double mix = std::sqrt(1.0 - rho_ * rho_);
  for (std::size_t t = 0; t < scatter_sigma_.size(); ++t) {
    const double sigma = mix * scatter_sigma_[t];
    Cf& tap = ch_.taps[t + 1];
    const double im = rng.normal(0.0, sigma);  // imaginary draw first
    const double re = rng.normal(0.0, sigma);
    tap = Cf(static_cast<float>(rho_ * tap.real() + re),
             static_cast<float>(rho_ * tap.imag() + im));
  }
}

double MultipathFader::tap_energy() const {
  double e = 0.0;
  for (const Cf& t : ch_.taps) e += std::norm(t);
  return e;
}

Iq MultipathChannel::apply(std::span<const Cf> x) const {
  MS_CHECK(taps.size() == delays.size());
  MS_CHECK(!taps.empty());
  Iq out(x.size(), Cf(0.0f, 0.0f));
  for (std::size_t t = 0; t < taps.size(); ++t) {
    const std::size_t d = delays[t];
    for (std::size_t i = d; i < x.size(); ++i) out[i] += x[i - d] * taps[t];
  }
  return out;
}

}  // namespace ms
