#include "core/overlay/receiver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "channel/awgn.h"
#include "common/rng.h"
#include "common/units.h"
#include "dsp/ops.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace ms {
namespace {

struct PacketFixture {
  Bits productive;
  Bits tag;
  Iq capture;           ///< noise + packet + noise
  std::size_t packet_at;
};

PacketFixture make_capture(const OverlayReceiver& rx_chain, std::size_t n_seq,
                           std::size_t lead, std::size_t tail, double snr_db,
                           Rng& rng) {
  PacketFixture f;
  const OverlayCodec& codec = rx_chain.codec();
  f.productive = rng.bits(n_seq * codec.productive_bits_per_sequence());
  f.tag = rng.bits(codec.tag_capacity(n_seq));
  const Iq payload =
      codec.tag_modulate(codec.make_carrier(f.productive), f.tag);
  const Iq packet = rx_chain.assemble_packet(payload);

  const double noise_power =
      mean_power(std::span<const Cf>(packet)) / db_to_linear(snr_db);
  f.capture = complex_noise(lead, noise_power, rng);
  f.packet_at = lead;
  f.capture.insert(f.capture.end(), packet.begin(), packet.end());
  const Iq tail_noise = complex_noise(tail, noise_power, rng);
  f.capture.insert(f.capture.end(), tail_noise.begin(), tail_noise.end());
  // Noise over the packet region too.
  Rng noise_rng = rng.fork();
  for (std::size_t i = f.packet_at; i < f.packet_at + packet.size(); ++i)
    f.capture[i] += Cf(
        static_cast<float>(noise_rng.normal(0.0, std::sqrt(noise_power / 2))),
        static_cast<float>(noise_rng.normal(0.0, std::sqrt(noise_power / 2))));
  return f;
}

class ReceiverSync : public ::testing::TestWithParam<Protocol> {};

TEST_P(ReceiverSync, FindsPacketInNoise) {
  Rng rng(7 + protocol_index(GetParam()));
  const OverlayReceiver rx(GetParam(),
                           mode_params(GetParam(), OverlayMode::Mode1));
  const PacketFixture f = make_capture(rx, 8, 500, 300, 15.0, rng);
  const auto sync = rx.synchronize(f.capture);
  ASSERT_TRUE(sync.has_value()) << protocol_name(GetParam());
  EXPECT_NEAR(static_cast<double>(sync->preamble_start),
              static_cast<double>(f.packet_at), 2.0);
  EXPECT_GT(sync->metric, 0.7);
}

TEST_P(ReceiverSync, DecodesBothStreamsAfterSync) {
  Rng rng(17 + protocol_index(GetParam()));
  const OverlayReceiver rx(GetParam(),
                           mode_params(GetParam(), OverlayMode::Mode1));
  const PacketFixture f = make_capture(rx, 10, 700, 200, 18.0, rng);
  const auto decoded = rx.receive(f.capture, 10);
  ASSERT_TRUE(decoded.has_value()) << protocol_name(GetParam());
  EXPECT_LT(bit_error_rate(f.productive, decoded->productive), 0.02);
  EXPECT_LT(bit_error_rate(f.tag, decoded->tag), 0.02);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ReceiverSync,
                         ::testing::Values(Protocol::WifiB, Protocol::WifiN,
                                           Protocol::Ble, Protocol::Zigbee));

TEST(Receiver, PureNoiseReturnsNothing) {
  Rng rng(30);
  const OverlayReceiver rx(Protocol::Ble,
                           mode_params(Protocol::Ble, OverlayMode::Mode1));
  const Iq noise = complex_noise(4000, 1.0, rng);
  EXPECT_FALSE(rx.synchronize(noise).has_value());
  EXPECT_FALSE(rx.receive(noise, 4).has_value());
}

TEST(Receiver, TruncatedPayloadReturnsNothing) {
  Rng rng(31);
  const OverlayReceiver rx(Protocol::Ble,
                           mode_params(Protocol::Ble, OverlayMode::Mode1));
  const PacketFixture f = make_capture(rx, 8, 100, 0, 25.0, rng);
  // Cut the capture mid-payload: sync succeeds, decode must not.
  const std::size_t cut = f.packet_at + rx.preamble_samples() + 100;
  const std::span<const Cf> cut_view(f.capture.data(), cut);
  EXPECT_FALSE(rx.receive(cut_view, 8).has_value());
}

TEST(Receiver, ShortCaptureRejected) {
  const OverlayReceiver rx(Protocol::Zigbee,
                           mode_params(Protocol::Zigbee, OverlayMode::Mode1));
  const Iq tiny(10, Cf(1.0f, 0.0f));
  EXPECT_FALSE(rx.synchronize(tiny).has_value());
}

// Oracle semantics of synchronize(), pinned on both sides of the
// kernels::SlidingSync pair.
using kernels::KernelPath;

class ReceiverSyncPath : public ::testing::TestWithParam<KernelPath> {};

/// Preamble sign-quantized to (±0.5, ±0.5): every window of such
/// samples has the exact dyadic energy 0.5·L, so the running window
/// energy carries no rounding and two equal windows score equal bits.
Iq quantized_preamble(const OverlayReceiver& rx) {
  Iq q = rx.assemble_packet({});
  for (Cf& v : q)
    v = Cf(v.real() >= 0.0f ? 0.5f : -0.5f, v.imag() >= 0.0f ? 0.5f : -0.5f);
  return q;
}

TEST_P(ReceiverSyncPath, TiedPeaksTakeTheEarliestOffset) {
  for (Protocol p : kAllProtocols) {
    const OverlayReceiver rx(p, mode_params(p, OverlayMode::Mode1));
    const std::size_t len = rx.preamble_samples();
    const Iq copy = quantized_preamble(rx);
    Iq cap = copy;
    cap.insert(cap.end(), copy.begin(), copy.end());
    const auto sync = rx.synchronize(cap, 0.0, GetParam());
    ASSERT_TRUE(sync.has_value()) << protocol_name(p);
    // The second copy alone scores the same bits: offsets 0 and len tie.
    const auto second =
        rx.synchronize(std::span<const Cf>(cap).subspan(len), 0.0, GetParam());
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->metric, sync->metric) << protocol_name(p);
    EXPECT_EQ(sync->preamble_start, 0u) << protocol_name(p);
    EXPECT_EQ(sync->payload_start, len) << protocol_name(p);
  }
}

/// Selects `path` for KernelPath::Auto callers (receive()) for one scope.
class GlobalPath {
 public:
  explicit GlobalPath(KernelPath path) : saved_(kernels::fast_path_enabled()) {
    kernels::set_fast_path_enabled(path == KernelPath::Fast);
  }
  ~GlobalPath() { kernels::set_fast_path_enabled(saved_); }

 private:
  bool saved_;
};

TEST_P(ReceiverSyncPath, PreambleOnlyCaptureIsASyncFailure) {
  const OverlayReceiver rx(Protocol::Ble,
                           mode_params(Protocol::Ble, OverlayMode::Mode1));
  const Iq cap = rx.assemble_packet({});
  ASSERT_EQ(cap.size(), rx.preamble_samples());
  const auto sync = rx.synchronize(cap, 0.5, GetParam());
  ASSERT_TRUE(sync.has_value());
  EXPECT_EQ(sync->preamble_start, 0u);
  EXPECT_EQ(sync->payload_start, cap.size());

  const GlobalPath global(GetParam());
  obs::TelemetryShard shard;
  {
    obs::ShardScope scope(&shard);
    EXPECT_FALSE(rx.receive(cap, 1).has_value());
  }
  EXPECT_EQ(shard.counter_value(obs::counter("overlay.sync_fail")), 1u);
  EXPECT_EQ(shard.counter_value(obs::counter("overlay.decode_fail")), 0u);
}

TEST_P(ReceiverSyncPath, PeakJustBelowMinMetricIsRejected) {
  Rng rng(40);
  const OverlayReceiver rx(Protocol::Zigbee,
                           mode_params(Protocol::Zigbee, OverlayMode::Mode1));
  const PacketFixture f = make_capture(rx, 4, 300, 100, 6.0, rng);
  const auto peak = rx.synchronize(f.capture, 0.0, GetParam());
  ASSERT_TRUE(peak.has_value());
  const double m = peak->metric;
  const double above = std::nextafter(m, std::numeric_limits<double>::max());
  EXPECT_FALSE(rx.synchronize(f.capture, above, GetParam()).has_value());
  const auto at = rx.synchronize(f.capture, m, GetParam());
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(at->preamble_start, peak->preamble_start);
}

INSTANTIATE_TEST_SUITE_P(BothPaths, ReceiverSyncPath,
                         ::testing::Values(KernelPath::Fast,
                                           KernelPath::Reference),
                         [](const auto& info) {
                           return info.param == KernelPath::Fast
                                      ? std::string("Fast")
                                      : std::string("Reference");
                         });

TEST(Receiver, AssembledPacketStartsWithPreamble) {
  const OverlayReceiver rx(Protocol::Ble,
                           mode_params(Protocol::Ble, OverlayMode::Mode1));
  const Iq payload(100, Cf(0.5f, 0.0f));
  const Iq pkt = rx.assemble_packet(payload);
  EXPECT_EQ(pkt.size(), rx.preamble_samples() + payload.size());
}

}  // namespace
}  // namespace ms
