#include "golden_vectors.h"

#include <algorithm>
#include <cstdio>

#include "channel/awgn.h"
#include "channel/superposition.h"
#include "common/bits.h"
#include "common/rng.h"
#include "core/ident/frontend.h"
#include "core/ident/templates.h"
#include "core/overlay/frame.h"
#include "core/overlay/overlay.h"
#include "core/tag/link_session.h"
#include "dsp/iq.h"
#include "dsp/ops.h"
#include "phy/ble/ble.h"
#include "phy/dsss/barker.h"
#include "phy/dsss/cck.h"
#include "phy/interleaver.h"
#include "phy/whitening.h"
#include "phy/zigbee/zigbee.h"
#include "sim/excitation.h"
#include "sim/fleet/scale_experiment.h"
#include "sim/ident_experiment.h"
#include "sim/workload/scenarios.h"

namespace ms::golden {
namespace {

std::string fmt_cf(Cf v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%a %a", static_cast<double>(v.real()),
                static_cast<double>(v.imag()));
  return buf;
}

void append_iq(std::vector<std::string>& lines, const Iq& iq) {
  for (Cf v : iq) lines.push_back(fmt_cf(v));
}

std::string hex_double(double x) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::string bits_line(const Bits& bits) {
  std::string s;
  s.reserve(bits.size());
  for (uint8_t b : bits) s.push_back(b ? '1' : '0');
  return s;
}

// 802.11b 1/2 Mbps DSSS: the 11 Barker chips for each DBPSK/DQPSK
// constellation point.
Vector barker_vector() {
  Vector v{"wifi_b_barker_chips.txt", {}};
  const Cf symbols[] = {{1.f, 0.f}, {0.f, 1.f}, {-1.f, 0.f}, {0.f, -1.f}};
  for (Cf s : symbols) append_iq(v.lines, barker_spread(s));
  return v;
}

// 802.11b CCK: codewords for every 5.5 Mbps data pair (with the DQPSK
// phase walked through its increments) and four 11 Mbps 6-bit groups.
Vector cck_vector() {
  Vector v{"wifi_b_cck_chips.txt", {}};
  const uint8_t pairs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  double phi1 = 0.0;
  bool odd = false;
  for (const auto& p : pairs) {
    phi1 += dqpsk_increment(p[0], p[1], odd);
    odd = !odd;
    double phi2 = 0.0, phi3 = 0.0, phi4 = 0.0;
    cck_data_phases(p, false, phi2, phi3, phi4);
    append_iq(v.lines, cck_codeword(phi1, phi2, phi3, phi4));
  }
  const uint8_t groups[4][6] = {{0, 0, 0, 0, 0, 0},
                                {1, 0, 1, 0, 1, 0},
                                {1, 1, 0, 0, 1, 1},
                                {1, 1, 1, 1, 1, 1}};
  for (const auto& g : groups) {
    double phi2 = 0.0, phi3 = 0.0, phi4 = 0.0;
    cck_data_phases(g, true, phi2, phi3, phi4);
    append_iq(v.lines, cck_codeword(0.0, phi2, phi3, phi4));
  }
  return v;
}

// BLE whitening: a fixed payload whitened on the advertising channel 37
// and on data channel 8.  One line per channel.
Vector ble_vector() {
  Vector v{"ble_whitened_payload.txt", {}};
  const Bytes payload = {'m', 'u', 'l', 't', 'i', 's', 'c', 'a',
                         't', 't', 'e', 'r', 0x00, 0x55, 0xaa, 0xff};
  const Bits bits = bytes_to_bits_lsb(payload);
  v.lines.push_back(bits_line(ble_whiten(bits, 37)));
  v.lines.push_back(bits_line(ble_whiten(bits, 8)));
  return v;
}

// ZigBee: the 16-entry PN table, then the OQPSK waveform of the symbol
// sequence {0x0, 0x5, 0xA, 0xF} at 4 samples/chip.
Vector zigbee_vector() {
  Vector v{"zigbee_chip_waveform.txt", {}};
  for (std::uint32_t pn : zigbee_pn_table()) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "0x%08x", pn);
    v.lines.push_back(buf);
  }
  const ZigbeePhy phy;
  const uint8_t symbols[] = {0x0, 0x5, 0xA, 0xF};
  append_iq(v.lines, phy.modulate_symbols(symbols));
  return v;
}

// Overlay framing: the serialized bit stream of two representative tag
// frames (header + payload + CRC-8, LSB-first).
Vector overlay_vector() {
  Vector v{"overlay_frame_bits.txt", {}};
  const TagFrame a{5, 2, true, Bytes{'s', 'e', 'n', 's', 'o', 'r'}};
  const TagFrame b{15, 9, false, Bytes{0x00, 0x01, 0x7f, 0x80, 0xff}};
  v.lines.push_back(bits_line(a.to_bits()));
  v.lines.push_back(bits_line(b.to_bits()));
  return v;
}

// Packed 1-bit identification templates: for the Fig 7 operating point
// (10 Msps, L_p 20 / L_t 60) and the Fig 5b reference point (20 Msps,
// L_p 40 / L_t 120), the bit-packed template of each protocol as hex
// words.  One line per protocol per configuration:
//   <protocol> <lp> <lt> <nbits> <word0> <word1> ...
// Pins the entire template chain (PHY synthesis → front end → ADC →
// 1-bit quantization → bit packing): a drift in any stage flips bits.
Vector packed_template_vector() {
  Vector v{"ident_packed_templates.txt", {}};
  struct Config {
    double adc_rate_hz;
    std::size_t lp, lt;
  };
  const Config configs[] = {{10e6, 20, 60}, {20e6, 40, 120}};
  for (const Config& c : configs) {
    TemplateParams params;
    params.adc_rate_hz = c.adc_rate_hz;
    params.preprocess_len = c.lp;
    params.match_len = c.lt;
    const TemplateSet set = build_templates(params);
    for (Protocol p : kAllProtocols) {
      const bitpack::PackedVec& packed =
          set.one_bit_packed[protocol_index(p)];
      std::string line(protocol_name(p));
      char buf[32];
      std::snprintf(buf, sizeof buf, " %zu %zu %zu", c.lp, c.lt, packed.bits);
      line += buf;
      for (std::uint64_t w : packed.words) {
        std::snprintf(buf, sizeof buf, " 0x%016llx",
                      static_cast<unsigned long long>(w));
        line += buf;
      }
      v.lines.push_back(line);
    }
  }
  return v;
}

// BLE GFSK receiver: the per-symbol soft frequencies (Hz) recovered
// from a clean modulated waveform of a fixed bit pattern, at the
// default 8 samples/symbol and at the coarse 2 samples/symbol.  Pins
// the discriminator demod (conj-multiply → arg → middle-half average)
// that both the scalar oracle and the fused kernel must reproduce
// bit-for-bit.
Vector gfsk_softbits_vector() {
  Vector v{"ble_gfsk_softbits.txt", {}};
  const Bytes payload = {0xaa, 0x0f, 0x96, 'b', 'l', 'e', 0x00, 0xff};
  const Bits bits = bytes_to_bits_lsb(payload);
  for (unsigned sps : {8u, 2u}) {
    BleConfig cfg;
    cfg.samples_per_symbol = sps;
    const BlePhy phy(cfg);
    const Samples freqs =
        phy.symbol_frequencies(phy.modulate_bits(bits), bits.size());
    for (float f : freqs) v.lines.push_back(hex_double(f));
  }
  return v;
}

// 802.11n deinterleaver: the output permutation for each supported
// (N_CBPS, N_BPSC) shape on a fixed aperiodic bit pattern, one line per
// shape.  Pins the §18.3.5.7 two-step index math the cached-permutation
// kernel replays from its table.
Vector ofdm_deinterleave_vector() {
  Vector v{"ofdm_deinterleaved_bits.txt", {}};
  const std::pair<unsigned, unsigned> shapes[] = {{48, 1}, {96, 2}, {192, 4}};
  for (auto [n_cbps, n_bpsc] : shapes) {
    Bits in(2 * n_cbps);  // two symbols: catches cross-symbol mixing
    for (std::size_t k = 0; k < in.size(); ++k)
      in[k] = static_cast<uint8_t>((k % 3 == 0) ^ (k % 7 == 1));
    v.lines.push_back(bits_line(deinterleave_11n(in, n_cbps, n_bpsc)));
  }
  return v;
}

// Fleet superposition: the composite waveform the receiver sees when a
// ZigBee-overlay tag and one or two BLE-overlay tags backscatter the
// same slot (both PHYs run 8 Msps baseband, so they superpose
// sample-for-sample).  Payloads are fixed seeded draws; per-tag
// channels use the fleet convention (winner at 0 dB / zero delay,
// interferers attenuated, rotated, and delayed).  Pins the whole chain
// carrier → tag modulation → per-tag channel → ascending-order
// accumulation: any drift in the PHYs, the overlay codecs, or the
// superposition arithmetic flips hexfloat bits here.
Iq fleet_tag_wave(Protocol p, std::uint64_t seed, std::size_t n_sequences) {
  const auto codec = make_overlay_codec(p, mode_params(p, OverlayMode::Mode1));
  Rng rng(seed);
  const Bits productive =
      rng.bits(n_sequences * codec->productive_bits_per_sequence());
  const Bits tag_bits = rng.bits(codec->tag_capacity(n_sequences));
  return codec->tag_modulate(codec->make_carrier(productive), tag_bits);
}

Vector fleet_superposed_vector(const char* filename, std::size_t n_tags) {
  Vector v{filename, {}};
  const Iq zig = fleet_tag_wave(Protocol::Zigbee, 0xf1ee7001, 1);
  const Iq ble1 = fleet_tag_wave(Protocol::Ble, 0xf1ee7002, 1);
  const Iq ble2 = fleet_tag_wave(Protocol::Ble, 0xf1ee7003, 1);
  std::vector<SuperposedSource> sources;
  sources.push_back({zig, {0.0, 0.0, 0}});           // slot winner
  sources.push_back({ble1, {-9.0, 1.25, 3}});        // near interferer
  if (n_tags >= 3) sources.push_back({ble2, {-17.5, 4.0, 11}});
  append_iq(v.lines, superpose_tags(sources));
  return v;
}

// Identification acquisition: acquire_trace of each protocol's extended
// clean preamble plus seeded 20 dB AWGN, at the Fig 7 (10 Msps) and
// Fig 8b (2.5 Msps) ADC rates.  One header line per trace,
//   <protocol> <adc_rate_hz> <nsamples>
// then one ADC sample per line.  Pins the front-end FIR, envelope,
// FM-to-AM, rectifier ODE and 9-bit ADC chain every ident trial runs.
Vector ident_acquired_trace_vector() {
  Vector v{"ident_acquired_trace.txt", {}};
  for (double adc_rate_hz : {10e6, 2.5e6}) {
    for (Protocol p : kAllProtocols) {
      const Iq clean = clean_preamble(p, /*extended=*/true);
      Rng rng(0x1de7000 + protocol_index(p));
      const double noise_power =
          mean_power(std::span<const Cf>(clean)) / 100.0;
      const Iq noisy = add_noise_power(clean, noise_power, rng);
      const Samples trace =
          acquire_trace(noisy, native_sample_rate(p), adc_rate_hz);
      char buf[64];
      std::snprintf(buf, sizeof buf, " %.0f %zu", adc_rate_hz, trace.size());
      v.lines.push_back(std::string(protocol_name(p)) + buf);
      for (float s : trace) v.lines.push_back(hex_double(s));
    }
  }
  return v;
}

// §2.3.2 ordered-matching calibration at the two ident_mix points
// (Fig 7: 10 Msps, L_p 20 / L_t 60; Fig 8b: 2.5 Msps, L_p 20 / L_t 80),
// 1-bit compute, seed 1, 60 trials per protocol.  One line per point:
//   <adc_rate_hz> <lp> <lt> <order...> <thresholds...> <accuracy>
// with the doubles in hex.  Pins the winning order, its thresholds and
// the tie-break of the 24-order x 12^4 grid search.
Vector ident_calibration_vector() {
  Vector v{"ident_ordered_calibration.txt", {}};
  struct Point {
    double adc_rate_hz;
    std::size_t lp, lt;
  };
  const Point points[] = {{10e6, 20, 60}, {2.5e6, 20, 80}};
  for (const Point& pt : points) {
    IdentTrialConfig cfg;
    cfg.ident.templates.adc_rate_hz = pt.adc_rate_hz;
    cfg.ident.templates.preprocess_len = pt.lp;
    cfg.ident.templates.match_len = pt.lt;
    cfg.ident.compute = ComputeMode::OneBit;
    cfg.seed = 1;
    const OrderedCalibration cal = calibrate_ordered_matching(cfg, 60);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.0f %zu %zu", pt.adc_rate_hz, pt.lp,
                  pt.lt);
    std::string line = buf;
    for (Protocol p : cal.order) {
      line += ' ';
      line += protocol_name(p);
    }
    for (double t : cal.thresholds) line += " " + hex_double(t);
    line += " " + hex_double(cal.calibration_accuracy);
    v.lines.push_back(line);
  }
  return v;
}

// Fleet contention tallies: one analytic-tier trial cell
// (run_scale_trial) per fleet size, offered load and seed, with the
// default ScaleConfig on the fleet excitation.  Load 2 is the sweep's
// slotted-ALOHA point; load 5000 saturates p = 1, so every tag
// transmits in every slot.  Fleets of at most 8 tags also run the
// waveform probe.  One line per cell,
//   <tags> <load> <seed> <tags> <slots> <idle> <clean> <captured>
//   <collision> <sinr_sum_db> <ber_sum> <goodput_bits> <waveform_tag_ber>
// with every ScaleTrial field in hex.  Pins the contention walk, the
// placement draws, arbitration and the per-slot reduction.
Vector fleet_scale_trials_vector() {
  Vector v{"fleet_scale_trials.txt", {}};
  fleet::ScaleConfig cfg;
  cfg.excitation = fleet_excitation();
  for (std::uint64_t seed : {1ull, 7919ull}) {
    for (double load : {2.0, 5000.0}) {
      for (std::size_t n : {1, 2, 8, 9, 256, 1024}) {
        fleet::FleetConfig fc;
        fc.link = cfg.link;
        fc.excitation = cfg.excitation;
        fc.capture = cfg.capture;
        fc.slots_per_trial = cfg.slots_per_trial;
        fc.fading_stddev_db = cfg.fading_stddev_db;
        std::vector<fleet::TagSpec> specs =
            fleet::default_fleet_specs(n, cfg.min_radius_m, cfg.max_radius_m);
        for (fleet::TagSpec& s : specs)
          s.tx_probability = std::min(1.0, load / static_cast<double>(n));
        const fleet::TagFleet fleet(fc, std::move(specs));
        Rng rng = Rng(seed).fork(n, static_cast<std::uint64_t>(load));
        const fleet::ScaleTrial t = fleet::run_scale_trial(cfg, fleet, rng);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "%zu %.0f %llu 0x%x 0x%x 0x%x 0x%x 0x%x 0x%x", n, load,
                      static_cast<unsigned long long>(seed), t.tags, t.slots,
                      t.idle, t.clean, t.captured, t.collision);
        v.lines.push_back(buf + (" " + hex_double(t.sinr_sum_db)) + " " +
                          hex_double(t.ber_sum) + " " +
                          hex_double(t.goodput_bits) + " " +
                          hex_double(t.waveform_tag_ber));
      }
    }
  }
  return v;
}

std::string hex_size(std::size_t x) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%zx", x);
  return buf;
}

// One LinkSessionReport, every field in hex, then the session Rng's
// next raw draw (which pins the number of draws the session took).
std::string link_report_line(const std::string& label,
                             const LinkSessionReport& r, Rng& rng) {
  std::string s = label;
  for (std::size_t x :
       {r.slots, r.slots_deferred, r.readings_offered, r.readings_delivered,
        r.frames_corrupted, r.frames_recovered, r.acks_lost,
        r.duplicates_seen, r.sender.frames_loaded, r.sender.transmissions,
        r.sender.retransmissions, r.sender.frames_delivered,
        r.sender.frames_dropped, r.sender.readings_abandoned,
        r.level_switches, r.slots_dark, r.slots_undersized, r.brownouts,
        r.slots_browned_out, r.resyncs, r.retries_shed, r.energy_deferrals,
        r.energy_violations, r.recoveries})
    s += " " + hex_size(x);
  for (double x : {r.delivered_bytes, r.mean_gamma, r.mean_fec_repeats,
                   r.final_nack_rate, r.energy_harvested_j, r.energy_spent_j,
                   r.recover_slots_total})
    s += " " + hex_double(x);
  char buf[24];
  std::snprintf(buf, sizeof buf, " 0x%016llx",
                static_cast<unsigned long long>(rng()));
  return s + buf;
}

// The tag link layer's slot loops.  run_trace: each standard_scenarios()
// entry on traces 0-3 in bench_robustness_workloads' three variants
// ("full": governor, retry budget, holdoff jitter 3; "blind": none of
// them; "seed": no ARQ or adaptation either), at seeds 1 and 7919.
// run: the link_session_test configurations at the same seeds.  One
// line each, the label then the report:
//   run_trace <scenario> <variant> <seed> <trace> <fields…> <draw>
//   run <config> <seed> <fields…> <draw>
// Pins framing, FEC, ARQ, adaptation, the energy governor and every
// Rng draw of the channel step.
Vector link_session_vector() {
  Vector v{"link_session_reports.txt", {}};
  const std::vector<WorkloadScenario> scenarios = standard_scenarios();
  for (std::uint64_t seed : {1ull, 7919ull}) {
    for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
      for (const char* variant : {"full", "blind", "seed"}) {
        LinkSessionConfig cfg = scenarios[sc].link;
        const bool full = variant[0] == 'f';
        cfg.energy.governor = full;
        cfg.retry_budget.enabled = full;
        cfg.arq.holdoff_jitter_slots = full ? 3 : 0;
        if (variant[0] == 's') {
          cfg.arq_enabled = false;
          cfg.adaptation_enabled = false;
        }
        LinkSession session(cfg);
        for (std::uint64_t t = 0; t < 4; ++t) {
          Rng trace_rng = Rng(seed).fork(sc, t);
          const std::vector<SlotConditions> trace =
              build_workload(scenarios[sc].workload, trace_rng);
          Rng rng = Rng(seed).fork(sc, 1000 + t);
          const LinkSessionReport r =
              session.run_trace(scenarios[sc].n_readings, trace, rng);
          v.lines.push_back(link_report_line(
              "run_trace " + scenarios[sc].name + " " + variant + " " +
                  std::to_string(seed) + " " + std::to_string(t),
              r, rng));
        }
      }
    }
    struct RunCase {
      const char* name;
      std::size_t readings, max_slots;
      void (*tweak)(LinkSessionConfig&);
    };
    const RunCase cases[] = {
        {"arq_adapt_fade", 40, 2500,
         [](LinkSessionConfig& c) { c.base_snr_db = -12.0; }},
        {"blind", 160, 4000,
         [](LinkSessionConfig& c) {
           c.frame_corrupt_prob = 0.10;
           c.arq_enabled = false;
           c.adaptation_enabled = false;
         }},
        {"busy_sense", 80, 2500,
         [](LinkSessionConfig& c) { c.sense_busy_prob = 0.3; }},
        {"corrupt10", 160, 4000,
         [](LinkSessionConfig& c) { c.frame_corrupt_prob = 0.10; }},
        {"mixed", 80, 2500,
         [](LinkSessionConfig& c) {
           c.frame_corrupt_prob = 0.15;
           c.link_quality.p_good_to_bad = 0.05;
           c.ack_loss_prob = 0.02;
         }},
    };
    for (const RunCase& rc : cases) {
      LinkSessionConfig cfg;
      cfg.link_quality.p_good_to_bad = 0.0;
      rc.tweak(cfg);
      LinkSession session(cfg);
      Rng rng(seed);
      const LinkSessionReport r = session.run(rc.readings, rc.max_slots, rng);
      v.lines.push_back(link_report_line(
          std::string("run ") + rc.name + " " + std::to_string(seed), r, rng));
    }
  }
  return v;
}

}  // namespace

std::vector<Vector> build_all() {
  return {barker_vector(),   cck_vector(),
          ble_vector(),      zigbee_vector(),
          overlay_vector(),  packed_template_vector(),
          gfsk_softbits_vector(), ofdm_deinterleave_vector(),
          fleet_superposed_vector("fleet_superposed_2tag.txt", 2),
          fleet_superposed_vector("fleet_superposed_3tag.txt", 3),
          ident_acquired_trace_vector(), ident_calibration_vector(),
          fleet_scale_trials_vector(), link_session_vector()};
}

}  // namespace ms::golden
