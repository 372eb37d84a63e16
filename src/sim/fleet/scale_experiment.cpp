#include "sim/fleet/scale_experiment.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "channel/awgn.h"
#include "channel/ber.h"
#include "channel/superposition.h"
#include "common/error.h"
#include "common/units.h"
#include "dsp/kernels/arena.h"
#include "obs/metrics.h"
#include "sim/runner/waveform_cache.h"

namespace ms::fleet {

namespace {

obs::MetricId slot_idle_metric() {
  static const obs::MetricId id = obs::counter("fleet.slot_idle");
  return id;
}
obs::MetricId slot_clean_metric() {
  static const obs::MetricId id = obs::counter("fleet.slot_clean");
  return id;
}
obs::MetricId slot_captured_metric() {
  static const obs::MetricId id = obs::counter("fleet.slot_captured");
  return id;
}
obs::MetricId slot_collision_metric() {
  static const obs::MetricId id = obs::counter("fleet.slot_collision");
  return id;
}
obs::MetricId winner_sinr_metric() {
  static const double bounds[] = {-10.0, 0.0, 10.0, 20.0, 30.0, 40.0};
  static const obs::MetricId id =
      obs::histogram("fleet.winner_sinr_db", bounds);
  return id;
}
obs::MetricId tags_per_slot_metric() {
  static const double bounds[] = {0.0, 1.0, 2.0,   4.0,   8.0,  16.0,
                                  32.0, 64.0, 128.0, 256.0, 512.0, 1024.0};
  static const obs::MetricId id =
      obs::histogram("fleet.tags_per_slot", bounds);
  return id;
}
obs::MetricId tag_win_share_metric() {
  static const double bounds[] = {0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0};
  static const obs::MetricId id =
      obs::histogram("fleet.tag_win_share", bounds);
  return id;
}
obs::MetricId probe_slots_metric() {
  static const obs::MetricId id = obs::counter("fleet.waveform_probe_slots");
  return id;
}
obs::MetricId probe_ber_metric() {
  static const double bounds[] = {0.0, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5};
  static const obs::MetricId id =
      obs::histogram("fleet.waveform_probe_ber", bounds);
  return id;
}

/// Tag bits one excitation packet carries for this tag's overlay: the
/// packet's payload airtime sliced into the tag's own symbol clock.
std::size_t tag_bits_per_slot(const ExcitationSpec& exc, const TagSpec& tag) {
  const ProtocolInfo& exc_info = protocol_info(exc.protocol);
  const double payload_s =
      std::max(0.0, exc.packet_airtime_s() - exc_info.preamble_duration_s);
  const ProtocolInfo& tag_info = protocol_info(tag.protocol);
  const std::size_t symbols =
      static_cast<std::size_t>(payload_s / tag_info.symbol_duration_s);
  const std::size_t sequences =
      std::max<std::size_t>(1, symbols / tag.overlay.kappa);
  return sequences * tag.overlay.tag_bits_per_sequence();
}

/// Pack drawn air content into a waveform-cache key payload.
void append_bits(std::vector<std::uint8_t>& payload, const Bits& bits) {
  payload.push_back(static_cast<std::uint8_t>(bits.size() & 0xff));
  payload.push_back(static_cast<std::uint8_t>((bits.size() >> 8) & 0xff));
  payload.insert(payload.end(), bits.begin(), bits.end());
}

/// Waveform-level fidelity probe of one decoded slot: synthesize every
/// contender's backscatter (through the waveform cache, keyed per tag
/// on the drawn content), superpose through per-tag channels with the
/// winner at 0 dB, add receiver noise, and decode the winner's overlay.
/// `contenders` are the slot's fleet indices, `slot` their powers in
/// the same order.  Returns the winner's measured tag BER.
double waveform_probe(const ScaleConfig& cfg, const TagFleet& fleet,
                      Rng& cell_rng, std::span<const std::size_t> contenders,
                      std::span<const Contender> slot,
                      std::size_t winner_idx) {
  struct ProbeSource {
    std::shared_ptr<const Iq> wave;  ///< keeps the cache entry alive
    TagChannel channel;
  };
  std::vector<ProbeSource> sources(contenders.size());
  Bits winner_tag_bits;
  std::unique_ptr<OverlayCodec> winner_codec;

  for (std::size_t k = 0; k < contenders.size(); ++k) {
    const std::size_t i = contenders[k];
    const TagSpec& tag = fleet.tag(i);
    auto codec = make_overlay_codec(tag.protocol, tag.overlay);
    // Draws come first and become the cache key, so the Rng stream and
    // the result are identical with the cache on or off.
    Rng probe = fleet.tag_stream(cell_rng, kProbeStream, i);
    const Bits productive = probe.bits(
        cfg.n_sequences * codec->productive_bits_per_sequence());
    const Bits tag_bits = probe.bits(codec->tag_capacity(cfg.n_sequences));
    const double phase = probe.uniform(0.0, 2.0 * 3.14159265358979323846);

    WaveformKey key;
    key.kind = WaveformKind::FleetBackscatter;
    key.protocol = static_cast<std::uint8_t>(protocol_index(tag.protocol));
    const std::uint64_t shape[3] = {tag.overlay.kappa, tag.overlay.gamma,
                                    cfg.n_sequences};
    key.params = fnv1a(shape, sizeof shape);
    append_bits(key.payload, productive);
    append_bits(key.payload, tag_bits);

    const OverlayCodec* codec_ptr = codec.get();
    const Bits* productive_ptr = &productive;
    const Bits* tag_bits_ptr = &tag_bits;
    sources[k].wave = WaveformCache::instance().get_or_synthesize(
        key, [codec_ptr, productive_ptr, tag_bits_ptr] {
          return codec_ptr->tag_modulate(
              codec_ptr->make_carrier(*productive_ptr), *tag_bits_ptr);
        });

    TagChannel& ch = sources[k].channel;
    ch.gain_db = slot[k].rx_power_dbm - slot[winner_idx].rx_power_dbm;
    ch.phase_rad = i == contenders[winner_idx] ? 0.0 : phase;
    ch.delay_samples =
        i == contenders[winner_idx] ? 0 : (tag.id % 5) * 2 + 1;
    if (k == winner_idx) {
      winner_tag_bits = tag_bits;
      winner_codec = std::move(codec);
    }
  }

  std::vector<SuperposedSource> spans(sources.size());
  for (std::size_t k = 0; k < sources.size(); ++k)
    spans[k] = {std::span<const Cf>(*sources[k].wave), sources[k].channel};

  // Composite in arena scratch: recycled per trial cell like the PHY
  // fast-path buffers, streamed in chunks by superpose_tags_into.
  kernels::SampleArena::Scope scope(kernels::scratch_arena());
  auto out = kernels::scratch_arena().alloc<Cf>(superposed_length(spans));
  std::fill(out.begin(), out.end(), Cf(0.0f, 0.0f));
  superpose_tags_into(spans, out);

  // Receiver noise sized against the winner's own mean power (the
  // winner sits at 0 dB in the composite).
  const std::size_t wi = contenders[winner_idx];
  double p_sig = 0.0;
  for (Cf v : *sources[winner_idx].wave) p_sig += std::norm(v);
  p_sig /= static_cast<double>(std::max<std::size_t>(
      1, sources[winner_idx].wave->size()));
  const double snr_db = slot[winner_idx].rx_power_dbm - fleet.noise_dbm(wi);
  Rng noise_rng = cell_rng.fork(kProbeNoiseStream, fleet.tag(wi).id);
  const Iq noise = complex_noise(
      out.size(), p_sig * std::pow(10.0, -snr_db / 10.0), noise_rng);
  for (std::size_t n = 0; n < out.size(); ++n) out[n] += noise[n];

  const OverlayDecoded decoded =
      winner_codec->decode(out, cfg.n_sequences);
  obs::add(probe_slots_metric());
  const double ber = bit_error_rate(winner_tag_bits, decoded.tag);
  obs::observe(probe_ber_metric(), ber);
  return ber;
}

}  // namespace

std::vector<std::size_t> default_tag_counts(std::size_t max_tags) {
  MS_CHECK(max_tags >= 1);
  std::vector<std::size_t> counts;
  for (std::size_t n = 1; n < max_tags; n *= 2) counts.push_back(n);
  counts.push_back(max_tags);
  return counts;
}

ScaleTrial run_scale_trial(const ScaleConfig& cfg, const TagFleet& fleet,
                           Rng& cell_rng) {
  const std::size_t n = fleet.size();
  const std::size_t slots = cfg.slots_per_trial;
  ScaleTrial t;
  t.tags = static_cast<std::uint32_t>(n);
  t.slots = static_cast<std::uint32_t>(slots);

  kernels::SampleArena& arena = kernels::scratch_arena();
  kernels::SampleArena::Scope scope(arena);
  auto tag_end = arena.alloc<std::size_t>(n);
  auto slot_start = arena.alloc_zero<std::size_t>(slots + 1);
  auto wins = arena.alloc_zero<std::uint32_t>(n);

  // Contention, tag-major: each tag's stream draws its transmit coin
  // and then its fading for every slot, and only the slots it
  // transmits in come back, with their powers (docs/SCALE.md).  The
  // hit buffers double whenever a whole walk might not fit, so they
  // grow with the hits, not with n * slots.
  std::span<std::uint32_t> hit_slot;
  std::span<double> hit_power;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (hit_slot.size() - hits < slots) {
      const std::size_t cap = std::max(2 * hit_slot.size(), hits + slots);
      auto grown_slot = arena.alloc<std::uint32_t>(cap);
      auto grown_power = arena.alloc<double>(cap);
      std::copy_n(hit_slot.begin(), hits, grown_slot.begin());
      std::copy_n(hit_power.begin(), hits, grown_power.begin());
      hit_slot = grown_slot;
      hit_power = grown_power;
    }
    const TagSpec& tag = fleet.tag(i);
    Rng contention = fleet.tag_stream(cell_rng, kContentionStream, i);
    const std::size_t k = contention.chance_normal_hits(
        slots, tag.tx_probability, hit_slot.subspan(hits),
        hit_power.subspan(hits));
    if (k > 0) {
      // Placement is its own stream, so a tag that never transmits can
      // skip it without moving any other draw.
      Rng placement = fleet.tag_stream(cell_rng, kPlacementStream, i);
      const double radius =
          tag.tag_rx_distance_m *
          std::exp(cfg.placement_jitter * placement.normal());
      const double mean_dbm = fleet.link_for(i).rx_power_dbm(radius);
      // 0.0 + sd * z is normal(0.0, sd)'s own expression (-0.0 -> +0.0).
      for (std::size_t h = hits; h < hits + k; ++h) {
        hit_power[h] = mean_dbm + (0.0 + cfg.fading_stddev_db * hit_power[h]);
        ++slot_start[hit_slot[h] + 1];
      }
    }
    hits += k;
    tag_end[i] = hits;
  }

  // Stable counting pass: bucket the hits by slot, each slot's
  // contenders in ascending tag (and so tag-id) order.
  for (std::size_t s = 0; s < slots; ++s) slot_start[s + 1] += slot_start[s];
  auto by_slot = arena.alloc<Contender>(hits);
  auto by_slot_idx = arena.alloc<std::size_t>(hits);
  auto next = arena.alloc<std::size_t>(slots);
  std::copy(slot_start.begin(), slot_start.end() - 1, next.begin());
  for (std::size_t i = 0, h = 0; i < n; ++i)
    for (; h < tag_end[i]; ++h) {
      const std::size_t at = next[hit_slot[h]]++;
      by_slot[at] = {fleet.tag(i).id, hit_power[h]};
      by_slot_idx[at] = i;
    }

  bool probed = false;
  for (std::size_t s = 0; s < slots; ++s) {
    const std::size_t first = slot_start[s];
    const std::size_t count = slot_start[s + 1] - first;
    const std::span<const Contender> contenders =
        by_slot.subspan(first, count);
    const std::span<const std::size_t> contender_idx =
        by_slot_idx.subspan(first, count);
    obs::observe(tags_per_slot_metric(), static_cast<double>(count));
    if (count == 0) {
      ++t.idle;
      obs::add(slot_idle_metric());
      continue;
    }
    // The winner does not depend on the noise floor, so arbitrate once,
    // against the winner's own floor.
    const std::size_t winner_k = strongest_contender(contenders);
    const std::size_t winner_i = contender_idx[winner_k];
    const Arbitration arb = arbitrate(contenders, fleet.config().capture,
                                      fleet.noise_dbm(winner_i));

    switch (arb.outcome) {
      case SlotOutcome::Clean:
        ++t.clean;
        obs::add(slot_clean_metric());
        break;
      case SlotOutcome::Captured:
        ++t.captured;
        obs::add(slot_captured_metric());
        break;
      case SlotOutcome::Collision:
        ++t.collision;
        obs::add(slot_collision_metric());
        continue;
      case SlotOutcome::Idle:
        break;  // unreachable: contenders is non-empty
    }

    // Decoded slot: the winner delivers its per-packet tag bits scaled
    // by the analytic packet success probability at the slot SINR.
    ++wins[winner_i];
    const TagSpec& wtag = fleet.tag(winner_i);
    const double ber =
        backscatter_tag_ber(wtag.protocol, arb.sinr_db, wtag.overlay.gamma);
    const std::size_t bits = tag_bits_per_slot(cfg.excitation, wtag);
    t.sinr_sum_db += arb.sinr_db;
    t.ber_sum += ber;
    t.goodput_bits += static_cast<double>(bits) *
                      (1.0 - per_from_ber(ber, static_cast<double>(bits)));
    obs::observe(winner_sinr_metric(), arb.sinr_db);

    if (!probed && n <= cfg.waveform_probe_max_tags) {
      probed = true;
      t.waveform_tag_ber = waveform_probe(cfg, fleet, cell_rng,
                                          contender_idx, contenders,
                                          winner_k);
    }
  }

  const std::uint32_t decoded = t.clean + t.captured;
  if (decoded > 0)
    for (std::size_t i = 0; i < n; ++i)
      obs::observe(tag_win_share_metric(),
                   static_cast<double>(wins[i]) /
                       static_cast<double>(decoded));
  return t;
}

std::vector<ScalePoint> run_scale_experiment(const ScaleConfig& cfg) {
  MS_CHECK_MSG(!cfg.tag_counts.empty(), "tag_counts must be non-empty");
  MS_CHECK(cfg.trials >= 1);
  cfg.capture.validate();

  std::vector<TagFleet> fleets;
  fleets.reserve(cfg.tag_counts.size());
  for (std::size_t count : cfg.tag_counts) {
    FleetConfig fc;
    fc.link = cfg.link;
    fc.excitation = cfg.excitation;
    fc.capture = cfg.capture;
    fc.slots_per_trial = cfg.slots_per_trial;
    fc.fading_stddev_db = cfg.fading_stddev_db;
    std::vector<TagSpec> specs =
        default_fleet_specs(count, cfg.min_radius_m, cfg.max_radius_m);
    const double p =
        std::min(1.0, cfg.contention_load / static_cast<double>(count));
    for (TagSpec& s : specs) s.tx_probability = p;
    fleets.emplace_back(fc, std::move(specs));
  }

  TrialRunner runner(cfg.runner);
  const std::vector<ScaleTrial> trials = runner.run_grid(
      cfg.tag_counts.size(), cfg.trials,
      [&](std::size_t point, std::size_t /*trial*/, Rng& rng) {
        return run_scale_trial(cfg, fleets[point], rng);
      });

  const double slot_period_s =
      cfg.excitation.packet_airtime_s() /
      std::max(1e-12, cfg.excitation.airtime_duty());

  std::vector<ScalePoint> points(cfg.tag_counts.size());
  for (std::size_t p = 0; p < cfg.tag_counts.size(); ++p) {
    ScalePoint& pt = points[p];
    pt.tags = cfg.tag_counts[p];
    double slots = 0.0, decoded = 0.0, goodput_bits = 0.0;
    double sinr_sum = 0.0, ber_sum = 0.0;
    double probe_sum = 0.0;
    std::size_t probe_count = 0;
    for (std::size_t tr = 0; tr < cfg.trials; ++tr) {
      const ScaleTrial& t = trials[p * cfg.trials + tr];
      slots += t.slots;
      decoded += t.clean + t.captured;
      pt.clean_rate += t.clean;
      pt.capture_rate += t.captured;
      pt.collision_rate += t.collision;
      pt.idle_rate += t.idle;
      sinr_sum += t.sinr_sum_db;
      ber_sum += t.ber_sum;
      goodput_bits += t.goodput_bits;
      if (t.waveform_tag_ber >= 0.0) {
        probe_sum += t.waveform_tag_ber;
        ++probe_count;
      }
    }
    pt.clean_rate /= slots;
    pt.capture_rate /= slots;
    pt.collision_rate /= slots;
    pt.idle_rate /= slots;
    if (decoded > 0.0) {
      pt.mean_winner_sinr_db = sinr_sum / decoded;
      pt.tag_ber = ber_sum / decoded;
    }
    pt.aggregate_goodput_bps = goodput_bits / (slots * slot_period_s);
    pt.per_tag_goodput_bps =
        pt.aggregate_goodput_bps / static_cast<double>(pt.tags);
    if (probe_count > 0)
      pt.waveform_tag_ber = probe_sum / static_cast<double>(probe_count);
  }
  return points;
}

}  // namespace ms::fleet
