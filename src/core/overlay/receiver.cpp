#include "core/overlay/receiver.h"

#include <array>
#include <cmath>

#include "common/error.h"
#include "core/ident/templates.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace ms {

namespace {

// Telemetry ids (docs/OBSERVABILITY.md).  The sync metric is a
// normalized correlation in [0, 1].
constexpr std::array<double, 9> kMetricBounds = {0.1, 0.2, 0.3, 0.4, 0.5,
                                                 0.6, 0.7, 0.8, 0.9};

struct RxMetrics {
  obs::MetricId rx = obs::counter("overlay.rx");
  obs::MetricId sync_fail = obs::counter("overlay.sync_fail");
  obs::MetricId decode_fail = obs::counter("overlay.decode_fail");
  obs::MetricId decode_ok = obs::counter("overlay.decode_ok");
  obs::MetricId sync_metric = obs::histogram("overlay.sync_metric",
                                             kMetricBounds);
};

const RxMetrics& rx_metrics() {
  static const RxMetrics m;
  return m;
}

// Scalar oracle of the kernels::SlidingSync pair (dsp/kernels/
// sliding_sync.h explains the fast twin and why it is bit-exact):
// sliding normalized cross-correlation with a running window energy.
SyncResult reference_sync(std::span<const Cf> rx, std::span<const Cf> preamble,
                          double preamble_energy) {
  SyncResult best;
  double win_energy = 0.0;
  for (std::size_t i = 0; i < preamble.size(); ++i)
    win_energy += std::norm(rx[i]);
  for (std::size_t off = 0; off + preamble.size() <= rx.size(); ++off) {
    if (off > 0) {
      win_energy += std::norm(rx[off + preamble.size() - 1]);
      win_energy -= std::norm(rx[off - 1]);
    }
    if (win_energy > 1e-12) {
      Cf corr(0.0f, 0.0f);
      for (std::size_t i = 0; i < preamble.size(); ++i)
        corr += rx[off + i] * std::conj(preamble[i]);
      const double metric =
          std::abs(corr) / std::sqrt(win_energy * preamble_energy);
      if (metric > best.metric) {
        best.metric = metric;
        best.preamble_start = off;
        best.payload_start = off + preamble.size();
      }
    }
  }
  return best;
}

}  // namespace

OverlayReceiver::OverlayReceiver(Protocol protocol, OverlayParams params)
    : protocol_(protocol),
      codec_(make_overlay_codec(protocol, params)),
      preamble_(clean_preamble(protocol, /*extended=*/false)),
      sync_(preamble_) {
  MS_CHECK(sync_.ref_energy() > 0.0);
}

Iq OverlayReceiver::assemble_packet(std::span<const Cf> overlay_payload) const {
  Iq out = preamble_;
  out.insert(out.end(), overlay_payload.begin(), overlay_payload.end());
  return out;
}

std::optional<SyncResult> OverlayReceiver::synchronize(
    std::span<const Cf> rx, double min_metric,
    kernels::KernelPath path) const {
  if (rx.size() < preamble_.size()) return std::nullopt;
  SyncResult best;
  if (kernels::use_fast(path)) {
    const kernels::SlidingSync::Peak peak = sync_.peak(rx);
    if (peak.metric > 0.0)
      best = {peak.offset, peak.offset + preamble_.size(), peak.metric};
  } else {
    best = reference_sync(rx, preamble_, sync_.ref_energy());
  }
  if (best.metric < min_metric) return std::nullopt;
  return best;
}

std::optional<OverlayDecoded> OverlayReceiver::receive(
    std::span<const Cf> rx, std::size_t n_sequences, double min_metric) const {
  OBS_SCOPE("overlay.receive");
  const RxMetrics& rm = rx_metrics();
  obs::add(rm.rx);
  const auto sync = synchronize(rx, min_metric);
  if (!sync || sync->payload_start >= rx.size()) {
    obs::add(rm.sync_fail);
    obs::Event(obs::Subsystem::Overlay, obs::Severity::Info,
               "overlay.sync_fail")
        .f("metric", sync ? sync->metric : 0.0)
        .f("min_metric", min_metric)
        .emit();
    return std::nullopt;
  }
  obs::observe(rm.sync_metric, sync->metric);
  const auto payload = rx.subspan(sync->payload_start);
  // The codec checks it has enough samples; a truncated capture throws,
  // which we surface as "no packet".
  try {
    OverlayDecoded out = codec_->decode(payload, n_sequences);
    obs::add(rm.decode_ok);
    return out;
  } catch (const Error&) {
    obs::add(rm.decode_fail);
    obs::Event(obs::Subsystem::Overlay, obs::Severity::Warn,
               "overlay.decode_fail")
        .f("metric", sync->metric)
        .f("payload_len", payload.size())
        .f("n_sequences", n_sequences)
        .emit();
    return std::nullopt;
  }
}

}  // namespace ms
