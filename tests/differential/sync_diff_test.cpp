// Differential suite for the packet-sync pair: kernels::SlidingSync
// (offset-blocked planar correlator + exact-argmax prefilter) vs the
// scalar sliding correlator inside OverlayReceiver::synchronize.
//
// Results are compared with min_metric = 0, so every capture yields a
// SyncResult on both sides and the metric bits, preamble_start and
// payload_start are all checked — including noise-only and all-zero
// captures whose peaks a real min_metric would reject.
//
// Every capture also runs through each build of the correlation block
// the CPU supports (SSE, and AVX2 where present), called explicitly, so
// the block synchronize() does not pick by default is checked as well.
#include "diff_harness.h"

#include <optional>
#include <vector>

#include "core/ident/templates.h"
#include "core/overlay/receiver.h"

namespace ms {
namespace {

using kernels::KernelPath;
using kernels::SlidingSync;
using Isa = SlidingSync::Isa;

constexpr std::size_t kBlock = SlidingSync::kBlock;
constexpr std::size_t kChunk = SlidingSync::kChunk;

/// protocol_name() views a string literal, so data() is terminated.
const char* name(Protocol p) { return protocol_name(p).data(); }

OverlayReceiver make_rx(Protocol p) {
  return OverlayReceiver(p, mode_params(p, OverlayMode::Mode1));
}

void expect_same_sync(const std::optional<SyncResult>& fast,
                      const std::optional<SyncResult>& ref,
                      const std::string& ctx) {
  ASSERT_EQ(fast.has_value(), ref.has_value()) << "sync found (" << ctx << ")";
  if (!ref) return;
  EXPECT_EQ(fast->preamble_start, ref->preamble_start) << ctx;
  EXPECT_EQ(fast->payload_start, ref->payload_start) << ctx;
  EXPECT_EQ(std::memcmp(&fast->metric, &ref->metric, sizeof(double)), 0)
      << "metric (" << ctx << "): fast=" << fast->metric
      << " ref=" << ref->metric;
}

/// One block build's peak against the oracle's full (min_metric 0)
/// result: no window scored gives offset 0 and metric 0 on both sides.
void expect_same_peak(const SlidingSync::Peak& peak, const SyncResult& ref,
                      const std::string& ctx) {
  EXPECT_EQ(peak.offset, ref.preamble_start) << ctx;
  EXPECT_EQ(std::memcmp(&peak.metric, &ref.metric, sizeof(double)), 0)
      << "metric (" << ctx << "): block=" << peak.metric
      << " ref=" << ref.metric;
}

/// Both paths at min_metric 0 (full result) and at the default 0.5
/// (the nullopt decision callers see), then every supported block
/// build of protocol p's preamble correlator against the oracle.
void expect_same_both_thresholds(Protocol p, const OverlayReceiver& rx,
                                 std::span<const Cf> capture,
                                 const std::string& ctx) {
  const auto ref = rx.synchronize(capture, 0.0, KernelPath::Reference);
  expect_same_sync(rx.synchronize(capture, 0.0, KernelPath::Fast), ref, ctx);
  expect_same_sync(rx.synchronize(capture, 0.5, KernelPath::Fast),
                   rx.synchronize(capture, 0.5, KernelPath::Reference),
                   ctx + " min_metric=0.5");
  if (!ref) return;
  const SlidingSync sync(clean_preamble(p, /*extended=*/false));
  for (Isa isa : {Isa::Sse, Isa::Avx2}) {
    if (!SlidingSync::isa_supported(isa)) continue;
    expect_same_peak(sync.peak(capture, isa), *ref,
                     ctx + " block=" + SlidingSync::isa_name(isa));
  }
}

/// [lead noise][preamble + tag-modulated carrier][tail noise], AWGN over
/// the whole capture at `snr_db` relative to the packet's power.
Iq make_capture(const OverlayReceiver& rx, std::size_t n_seq,
                std::size_t lead, std::size_t tail, double snr_db, Rng& rng) {
  const OverlayCodec& codec = rx.codec();
  const Bits productive = rng.bits(n_seq * codec.productive_bits_per_sequence());
  const Bits tag = rng.bits(codec.tag_capacity(n_seq));
  const Iq packet = rx.assemble_packet(
      codec.tag_modulate(codec.make_carrier(productive), tag));
  Iq clean(lead, Cf(0.0f, 0.0f));
  clean.insert(clean.end(), packet.begin(), packet.end());
  clean.resize(clean.size() + tail, Cf(0.0f, 0.0f));
  Rng noise_rng(rng());
  return add_awgn(clean, snr_db, noise_rng);
}

Iq noise_only(std::size_t n, Rng& rng) {
  return complex_noise(n, rng.uniform(1e-3, 10.0), rng);
}

TEST(SyncDiff, PacketsAcrossProtocolsAndSnr) {
  Rng rng(difftest::kSeed);
  for (Protocol p : kAllProtocols) {
    const OverlayReceiver rx = make_rx(p);
    const std::size_t len = rx.preamble_samples();
    for (double snr_db : {-10.0, -5.0, 0.0, 3.0, 6.0, 10.0, 15.0, 20.0, 30.0}) {
      // Leading offset up to four preambles, so the packet lands at a
      // random lane of a random block.
      const std::size_t lead = rng.uniform_int(4 * len + 1);
      const std::size_t tail = rng.uniform_int(len + 1);
      const std::size_t n_seq = 1 + rng.uniform_int(4);
      const Iq cap = make_capture(rx, n_seq, lead, tail, snr_db, rng);
      expect_same_both_thresholds(
          p, rx, cap,
          difftest::ctx("%s snr=%.1f lead=%zu n=%zu", name(p),
                        snr_db, lead, cap.size()));
    }
  }
}

TEST(SyncDiff, RandomSnrAndOffsets) {
  Rng rng(difftest::kSeed ^ 1);
  for (Protocol p : kAllProtocols) {
    const OverlayReceiver rx = make_rx(p);
    const std::size_t len = rx.preamble_samples();
    for (int iter = 0; iter < 6; ++iter) {
      const double snr_db = rng.uniform(-10.0, 30.0);
      const std::size_t lead = rng.uniform_int(3 * kBlock + 2 * len);
      const Iq cap = make_capture(rx, 2, lead, rng.uniform_int(64), snr_db,
                                  rng);
      expect_same_both_thresholds(
          p, rx, cap,
          difftest::ctx("%s iter=%d snr=%.2f lead=%zu", name(p),
                        iter, snr_db, lead));
    }
  }
}

TEST(SyncDiff, NoiseOnlyCaptures) {
  Rng rng(difftest::kSeed ^ 2);
  for (Protocol p : kAllProtocols) {
    const OverlayReceiver rx = make_rx(p);
    for (int iter = 0; iter < 4; ++iter) {
      const std::size_t n = rx.preamble_samples() + rng.uniform_int(1500);
      const Iq cap = noise_only(n, rng);
      expect_same_both_thresholds(
          p, rx, cap,
          difftest::ctx("%s noise iter=%d n=%zu", name(p), iter, n));
    }
  }
}

TEST(SyncDiff, LengthsAroundBlockWidth) {
  // Window counts 1, 2 and kBlock − 1 .. kBlock + 1: the capture is
  // exactly one preamble long, one sample more, or ends one window
  // before / at / after a full offset block.
  Rng rng(difftest::kSeed ^ 3);
  for (Protocol p : kAllProtocols) {
    const OverlayReceiver rx = make_rx(p);
    const std::size_t len = rx.preamble_samples();
    const Iq cap = make_capture(rx, 1, 0, 0, 12.0, rng);
    const Iq noise = noise_only(len + 2 * kBlock, rng);
    for (std::size_t windows :
         {std::size_t{1}, std::size_t{2}, kBlock - 1, kBlock, kBlock + 1,
          2 * kBlock - 1, 2 * kBlock + 1}) {
      const std::size_t n = len + windows - 1;
      expect_same_both_thresholds(
          p, rx, std::span<const Cf>(cap).first(n),
          difftest::ctx("%s packet windows=%zu", name(p), windows));
      expect_same_both_thresholds(
          p, rx, std::span<const Cf>(noise).first(n),
          difftest::ctx("%s noise windows=%zu", name(p), windows));
    }
  }
}

TEST(SyncDiff, LengthsAroundChunkBoundary) {
  // Window counts straddling one and two planar chunks; the packet sits
  // across the first chunk boundary so the winning window's samples
  // come from two deinterleaved chunks.
  Rng rng(difftest::kSeed ^ 4);
  for (Protocol p : kAllProtocols) {
    const OverlayReceiver rx = make_rx(p);
    const std::size_t len = rx.preamble_samples();
    const std::size_t lead = kChunk - len / 2 - rng.uniform_int(kBlock);
    const Iq cap = make_capture(rx, 1, lead, 2 * kChunk, 8.0, rng);
    for (std::size_t windows : {kChunk - 1, kChunk, kChunk + 1, 2 * kChunk - 1,
                                2 * kChunk, 2 * kChunk + 1}) {
      const std::size_t n = len + windows - 1;
      ASSERT_LE(n, cap.size());
      expect_same_both_thresholds(
          p, rx, std::span<const Cf>(cap).first(n),
          difftest::ctx("%s windows=%zu lead=%zu", name(p), windows,
                        lead));
    }
  }
}

TEST(SyncDiff, LeadingZeroRegions) {
  // Exact zeros before the packet hold the running window energy at or
  // below the 1e-12 guard, so both sides must skip the same windows —
  // including the ones where the subtraction leaves a rounding residue
  // after the packet has slid out again.
  Rng rng(difftest::kSeed ^ 5);
  for (Protocol p : kAllProtocols) {
    const OverlayReceiver rx = make_rx(p);
    const std::size_t len = rx.preamble_samples();
    const Iq packet = make_capture(rx, 1, 0, 0, 15.0, rng);
    for (std::size_t zeros :
         {std::size_t{1}, len - 1, len, len + 1, kBlock * 3 + 5, kChunk + 7}) {
      Iq cap(zeros, Cf(0.0f, 0.0f));
      cap.insert(cap.end(), packet.begin(), packet.end());
      cap.resize(cap.size() + len + 9, Cf(0.0f, 0.0f));  // zero tail too
      expect_same_both_thresholds(
          p, rx, cap, difftest::ctx("%s zeros=%zu", name(p), zeros));
    }
    const Iq silent(len + kBlock + 3, Cf(0.0f, 0.0f));
    expect_same_both_thresholds(
        p, rx, silent, difftest::ctx("%s all-zero", name(p)));
  }
}

TEST(SyncDiff, AmplitudeScalesFromTinyToHuge) {
  // The metric is scale-free but its float/double intermediates are
  // not: the tiniest captures put the window energy near the 1e-12
  // guard, the largest push the products far from unit scale.
  Rng rng(difftest::kSeed ^ 6);
  for (Protocol p : kAllProtocols) {
    const OverlayReceiver rx = make_rx(p);
    Iq cap = make_capture(rx, 1, rng.uniform_int(200), 50, 5.0, rng);
    for (float scale : {1e-7f, 1e-6f, 1e-3f, 1e3f, 1e6f}) {
      Iq scaled = cap;
      for (Cf& v : scaled) v *= scale;
      expect_same_both_thresholds(
          p, rx, scaled,
          difftest::ctx("%s scale=%g", name(p),
                        static_cast<double>(scale)));
    }
  }
}

TEST(SyncDiff, LoudBurstLeavesEnergyResidue) {
  // Float norms are summed exactly in double until the window spans more
  // than ~29 binades.  A burst ~90 dB above the packet makes the running
  // window energy round as it enters and leaves, so the packet's metric
  // bits depend on the oracle's exact add-then-subtract update order.
  Rng rng(difftest::kSeed ^ 7);
  for (Protocol p : kAllProtocols) {
    const OverlayReceiver rx = make_rx(p);
    const std::size_t len = rx.preamble_samples();
    for (int iter = 0; iter < 3; ++iter) {
      const std::size_t burst = len / 2 + rng.uniform_int(2 * len);
      Iq cap = complex_noise(burst, 1e9, rng);
      const Iq packet =
          make_capture(rx, 1, rng.uniform_int(len), 20, 20.0, rng);
      cap.insert(cap.end(), packet.begin(), packet.end());
      expect_same_both_thresholds(
          p, rx, cap,
          difftest::ctx("%s burst=%zu iter=%d", name(p), burst, iter));
    }
  }
}

TEST(SyncDiff, Avx2BlockRunsWhereSupported) {
  // The suites above check each supported block build explicitly; this
  // test makes a CPU without AVX2, where the avx2 legs cannot run,
  // show up as a skip rather than a silent pass.
  if (!SlidingSync::isa_supported(Isa::Avx2))
    GTEST_SKIP() << "CPU has no AVX2: only the sse block was checked";
  EXPECT_EQ(SlidingSync::default_isa(), Isa::Avx2);
  EXPECT_STREQ(SlidingSync::isa_name(SlidingSync::default_isa()), "avx2");
}

}  // namespace
}  // namespace ms
