#include "phy/ofdm/sync.h"

#include <gtest/gtest.h>

#include "channel/awgn.h"
#include "common/rng.h"
#include "common/units.h"
#include "dsp/mixer.h"
#include "dsp/ops.h"
#include "phy/ofdm/wifi_n.h"

namespace ms {
namespace {

Iq capture_with_frame(const Iq& frame, std::size_t lead, double snr_db,
                      Rng& rng) {
  const double noise_p =
      mean_power(std::span<const Cf>(frame)) / db_to_linear(snr_db);
  Iq cap = complex_noise(lead, noise_p, rng);
  const Iq noisy = add_noise_power(frame, noise_p, rng);
  cap.insert(cap.end(), noisy.begin(), noisy.end());
  return cap;
}

TEST(OfdmSync, FindsFrameStart) {
  Rng rng(1);
  const WifiNPhy phy;
  const Iq frame = phy.modulate_frame(rng.bytes(60));
  for (std::size_t lead : {0u, 137u, 500u}) {
    const Iq cap = capture_with_frame(frame, lead, 20.0, rng);
    const auto sync = ofdm_synchronize(cap);
    ASSERT_TRUE(sync.has_value()) << lead;
    // The plateau spans the STF; the estimate must land inside it.
    EXPECT_GE(sync->frame_start + 10, lead) << lead;
    EXPECT_LE(sync->frame_start, lead + 48) << lead;
    EXPECT_GT(sync->metric, 0.8);
  }
}

TEST(OfdmSync, EstimatesCfo) {
  Rng rng(2);
  const WifiNPhy phy;
  const Iq frame = phy.modulate_frame(rng.bytes(40));
  for (double cfo : {-120e3, -30e3, 50e3, 200e3}) {
    const Iq shifted = frequency_shift(frame, cfo, WifiNPhy::kSampleRate);
    const Iq cap = capture_with_frame(shifted, 200, 25.0, rng);
    const auto sync = ofdm_synchronize(cap);
    ASSERT_TRUE(sync.has_value()) << cfo;
    EXPECT_NEAR(sync->cfo_hz, cfo, 12e3) << cfo;
  }
}

TEST(OfdmSync, CfoCorrectionRestoresDecode) {
  Rng rng(3);
  const WifiNPhy phy;
  const Bytes payload = rng.bytes(50);
  const Iq frame = phy.modulate_frame(payload);
  const double cfo = 90e3;
  const Iq shifted = frequency_shift(frame, cfo, WifiNPhy::kSampleRate);
  const std::size_t lead = 300;
  const Iq cap = capture_with_frame(shifted, lead, 22.0, rng);

  const auto sync = ofdm_synchronize(cap);
  ASSERT_TRUE(sync.has_value());
  const Iq corrected =
      ofdm_correct_cfo(cap, sync->cfo_hz, WifiNPhy::kSampleRate);
  // Fine timing: the coarse plateau estimate can sit tens of samples into
  // the STF; scan back toward the true frame start (offsets landing in a
  // cyclic prefix are absorbed by the channel estimator).
  bool decoded = false;
  const std::size_t lo =
      sync->frame_start > 48 ? sync->frame_start - 48 : 0;
  for (std::size_t start = lo; start <= sync->frame_start + 8; ++start) {
    const auto rx = phy.demodulate_frame(
        std::span<const Cf>(corrected).subspan(start), payload.size());
    if (rx.ok && rx.payload == payload) {
      decoded = true;
      break;
    }
  }
  EXPECT_TRUE(decoded);
}

TEST(OfdmSync, NoiseOnlyRejected) {
  Rng rng(4);
  const Iq noise = complex_noise(4000, 1.0, rng);
  EXPECT_FALSE(ofdm_synchronize(noise).has_value());
}

TEST(OfdmSync, NonOfdmSignalRejected) {
  // A BLE-like constant-envelope random-phase signal has no lag-16
  // repetition structure.
  Rng rng(5);
  Iq x(4000);
  double phase = 0.0;
  for (Cf& v : x) {
    phase += rng.normal(0.0, 0.8);
    v = Cf(static_cast<float>(std::cos(phase)), static_cast<float>(std::sin(phase)));
  }
  const auto sync = ofdm_synchronize(x);
  if (sync) {
    EXPECT_LT(sync->metric, 0.75);
  }
}

TEST(OfdmSync, ShortInputRejected) {
  const Iq tiny(50, Cf(1.0f, 0.0f));
  EXPECT_FALSE(ofdm_synchronize(tiny).has_value());
}

}  // namespace
}  // namespace ms
