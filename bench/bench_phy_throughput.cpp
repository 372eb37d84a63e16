// PHY fast-path throughput bench: the SIMD/streaming kernels in
// src/dsp/kernels/ vs their scalar oracles, end to end on four receive
// chains — ZigBee OQPSK despreading (CmacBank), 802.11b CCK demapping
// (planar codeword bank + arena chip collapse), BLE GFSK discrimination
// (fused middle-half kernel), and 802.11n OFDM demapping (planned FFT +
// cached interleaver) — plus overlay packet sync (SlidingSync vs the
// scalar sliding correlator in OverlayReceiver::synchronize) on full
// Table 4 captures of all four protocols, and channel noise (add_awgn's
// batched Rng::fill_normal draws vs one Rng::normal call per draw) over
// the same captures.
//
// The corpus of noisy waveforms is generated deterministically on the
// trial engine (so --metrics-out stays reproducible); the timing loops
// run in the main thread.  Before timing, every trace is demodulated by
// BOTH paths and the outputs are compared bitwise — a mismatch is a
// hard failure, making this bench double as a live equivalence check
// (the same contract tests/differential/ sweeps more broadly).
//
// Throughput is reported as baseband IQ samples demodulated (or, for
// overlay_sync, searched; for channel_noise, noised) per second.
// The fast path's target is ≥3× the oracle on at least two chains
// (ISSUE 7 acceptance).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "channel/awgn.h"
#include "common/units.h"
#include "core/overlay/receiver.h"
#include "dsp/kernels/config.h"
#include "dsp/kernels/sliding_sync.h"
#include "dsp/ops.h"
#include "phy/ble/ble.h"
#include "phy/dsss/wifi_b.h"
#include "phy/ofdm/wifi_n.h"
#include "phy/zigbee/zigbee.h"
#include "sim/excitation.h"
#include "sim/runner/cli.h"
#include "sim/runner/trial_runner.h"
#include "sim/trace_io.h"

using namespace ms;
using kernels::KernelPath;

namespace {

struct Trace {
  Iq iq;
  /// Symbols or bits, per the chain's demod call; overlay_sync's
  /// protocol index; channel_noise's noise seed.
  std::size_t n = 0;
};

/// One kernel pair under test.  Both runners serialize the demod output
/// to bytes so the equivalence gate and the timing checksum share code.
struct Chain {
  std::string name;
  std::vector<Trace> corpus;
  std::function<std::vector<std::uint8_t>(const Trace&)> fast;
  std::function<std::vector<std::uint8_t>(const Trace&)> ref;
};

struct Timing {
  double seconds = 0.0;
  std::size_t passes = 0;
  std::size_t samples = 0;  ///< IQ samples demodulated across all passes
  std::uint64_t checksum = 0;
  double samples_per_sec() const {
    return seconds > 0.0 ? static_cast<double>(samples) / seconds : 0.0;
  }
};

Timing time_chain(const Chain& chain, bool fast_path, double min_seconds) {
  const auto& run = fast_path ? chain.fast : chain.ref;
  std::size_t pass_samples = 0;
  for (const Trace& t : chain.corpus) pass_samples += t.iq.size();
  Timing out;
  const auto t0 = std::chrono::steady_clock::now();
  do {
    for (const Trace& t : chain.corpus)
      for (std::uint8_t b : run(t)) out.checksum += b;
    ++out.passes;
    out.samples += pass_samples;
    out.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  } while (out.seconds < min_seconds);
  return out;
}

std::vector<std::uint8_t> bits_bytes(const Bits& bits) {
  return std::vector<std::uint8_t>(bits.begin(), bits.end());
}

std::vector<std::uint8_t> detects_bytes(
    const std::vector<ZigbeePhy::SymbolDetect>& d) {
  std::vector<std::uint8_t> out(d.size() * (1 + sizeof(Cf)));
  std::uint8_t* p = out.data();
  for (const auto& s : d) {
    *p++ = s.symbol;
    std::memcpy(p, &s.corr, sizeof(Cf));
    p += sizeof(Cf);
  }
  return out;
}

/// The whole SyncResult, metric bits included; min_metric 0 makes every
/// capture yield one.
std::vector<std::uint8_t> sync_bytes(const std::optional<SyncResult>& r) {
  std::vector<std::uint8_t> out(1 + sizeof(SyncResult), 0);
  out[0] = r.has_value();
  if (r) {
    const std::size_t fields[2] = {r->preamble_start, r->payload_start};
    std::memcpy(out.data() + 1, fields, sizeof fields);
    std::memcpy(out.data() + 1 + sizeof fields, &r->metric, sizeof r->metric);
  }
  return out;
}

std::vector<std::uint8_t> iq_bytes(const Iq& iq) {
  std::vector<std::uint8_t> out(iq.size() * sizeof(Cf));
  if (!iq.empty()) std::memcpy(out.data(), iq.data(), out.size());
  return out;
}

/// add_awgn(Iq) with one Rng::normal call per draw, imaginary part
/// first: the per-draw loop that Rng::fill_normal's batches replaced.
Iq add_awgn_per_draw(std::span<const Cf> x, double snr_db, Rng& rng) {
  const double p = mean_power(x);
  Iq out(x.begin(), x.end());
  if (p <= 0.0) return out;
  const double sigma = std::sqrt(p / db_to_linear(snr_db) / 2.0);
  for (Cf& v : out) {
    const double im = rng.normal(0.0, sigma);
    const double re = rng.normal(0.0, sigma);
    v += Cf(static_cast<float>(re), static_cast<float>(im));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse_cli_or_exit(argc, argv);
  const std::size_t trials = opt.trials ? opt.trials : 24;
  const std::uint64_t seed = opt.seed ? opt.seed : 1;
  const double snr_db = 12.0;

  bench::title("phy throughput",
               "SIMD/streaming kernels vs scalar oracles, 4 receive chains "
               "+ overlay sync + channel noise");

  TrialRunner runner({opt.threads, seed});
  std::vector<Chain> chains;

  {  // ZigBee: 16-candidate coherent despreading.
    ZigbeeConfig fast_cfg, ref_cfg;
    fast_cfg.path = KernelPath::Fast;
    ref_cfg.path = KernelPath::Reference;
    // Shared-corpus synthesis uses its own phy so both paths see the
    // exact same waveform bytes.
    auto fast = std::make_shared<ZigbeePhy>(fast_cfg);
    auto ref = std::make_shared<ZigbeePhy>(ref_cfg);
    std::vector<Trace> corpus = runner.run_grid(
        1, trials, [&](std::size_t, std::size_t, Rng& rng) {
          std::vector<std::uint8_t> syms(24);
          for (auto& s : syms) s = static_cast<std::uint8_t>(rng.uniform_int(16));
          Trace t;
          t.iq = add_awgn(ref->modulate_symbols(syms), snr_db, rng);
          t.n = syms.size();
          return t;
        });
    chains.push_back(
        {"zigbee", std::move(corpus),
         [fast](const Trace& t) {
           return detects_bytes(fast->detect_symbols(t.iq, t.n));
         },
         [ref](const Trace& t) {
           return detects_bytes(ref->detect_symbols(t.iq, t.n));
         }});
  }

  {  // 802.11b @ 11 Mbps: CCK codeword demapping.
    WifiBConfig fast_cfg, ref_cfg;
    fast_cfg.rate = ref_cfg.rate = WifiBRate::Cck11M;
    fast_cfg.path = KernelPath::Fast;
    ref_cfg.path = KernelPath::Reference;
    auto fast = std::make_shared<WifiBPhy>(fast_cfg);
    auto ref = std::make_shared<WifiBPhy>(ref_cfg);
    const unsigned bps = wifi_b_bits_per_symbol(WifiBRate::Cck11M);
    std::vector<Trace> corpus = runner.run_grid(
        1, trials, [&](std::size_t, std::size_t, Rng& rng) {
          const Bits payload = rng.bits(64 * bps);
          Trace t;
          t.iq = add_awgn(ref->modulate_payload(payload), snr_db, rng);
          t.n = payload.size();
          return t;
        });
    chains.push_back(
        {"wifi_b_cck", std::move(corpus),
         [fast](const Trace& t) {
           return bits_bytes(fast->demodulate_air_bits(t.iq, t.n));
         },
         [ref](const Trace& t) {
           return bits_bytes(ref->demodulate_air_bits(t.iq, t.n));
         }});
  }

  {  // BLE: GFSK discriminator demod.
    BleConfig fast_cfg, ref_cfg;
    fast_cfg.path = KernelPath::Fast;
    ref_cfg.path = KernelPath::Reference;
    auto fast = std::make_shared<BlePhy>(fast_cfg);
    auto ref = std::make_shared<BlePhy>(ref_cfg);
    std::vector<Trace> corpus = runner.run_grid(
        1, trials, [&](std::size_t, std::size_t, Rng& rng) {
          const Bits air = rng.bits(256);
          Trace t;
          t.iq = add_awgn(ref->modulate_bits(air), snr_db, rng);
          t.n = air.size();
          return t;
        });
    chains.push_back(
        {"ble_gfsk", std::move(corpus),
         [fast](const Trace& t) {
           return bits_bytes(fast->demodulate_bits(t.iq, t.n));
         },
         [ref](const Trace& t) {
           return bits_bytes(ref->demodulate_bits(t.iq, t.n));
         }});
  }

  {  // 802.11n: OFDM FFT + demap + deinterleave.
    WifiNConfig fast_cfg, ref_cfg;
    fast_cfg.modulation = ref_cfg.modulation = Modulation::Qam16;
    fast_cfg.path = KernelPath::Fast;
    ref_cfg.path = KernelPath::Reference;
    auto fast = std::make_shared<WifiNPhy>(fast_cfg);
    auto ref = std::make_shared<WifiNPhy>(ref_cfg);
    const unsigned ncbps = wifi_n_coded_bits_per_symbol(Modulation::Qam16);
    std::vector<Trace> corpus = runner.run_grid(
        1, trials, [&](std::size_t, std::size_t, Rng& rng) {
          const std::size_t n_sym = 16;
          const Bits coded = rng.bits(n_sym * ncbps);
          Trace t;
          t.iq = add_awgn(ref->modulate_coded_symbols(coded), snr_db, rng);
          t.n = n_sym;
          return t;
        });
    chains.push_back(
        {"wifi_n_ofdm", std::move(corpus),
         [fast](const Trace& t) {
           return bits_bytes(fast->demodulate_symbol_bits(t.iq, t.n));
         },
         [ref](const Trace& t) {
           return bits_bytes(ref->demodulate_symbol_bits(t.iq, t.n));
         }});
  }

  {  // Overlay packet sync: Table 4 capture = lead noise + preamble +
     // tag-modulated carrier, one receiver per protocol.
    std::vector<std::shared_ptr<const OverlayReceiver>> rxs;
    std::vector<std::size_t> n_seqs;
    for (Protocol p : kAllProtocols) {
      const std::size_t symbols = table4_excitation(p).payload_symbols();
      const OverlayParams params = mode_params(p, OverlayMode::Mode1, symbols);
      rxs.push_back(std::make_shared<const OverlayReceiver>(p, params));
      n_seqs.push_back(std::max<std::size_t>(1, symbols / params.kappa));
    }
    std::vector<Trace> corpus = runner.run_grid(
        kAllProtocols.size(), trials,
        [&](std::size_t point, std::size_t, Rng& rng) {
          const OverlayReceiver& rx = *rxs[point];
          const OverlayCodec& codec = rx.codec();
          const std::size_t n_seq = n_seqs[point];
          const Iq packet = rx.assemble_packet(codec.tag_modulate(
              codec.make_carrier(
                  rng.bits(n_seq * codec.productive_bits_per_sequence())),
              rng.bits(codec.tag_capacity(n_seq))));
          Trace t;
          t.iq.assign(rng.uniform_int(4 * rx.preamble_samples() + 1),
                      Cf(0.0f, 0.0f));
          t.iq.insert(t.iq.end(), packet.begin(), packet.end());
          t.iq = add_awgn(t.iq, snr_db, rng);
          t.n = point;
          return t;
        });
    // synchronize() only reads the receiver, so sharing one per protocol
    // is safe even though receive() would not be.
    chains.push_back(
        {"overlay_sync", std::move(corpus),
         [rxs](const Trace& t) {
           return sync_bytes(
               rxs[t.n]->synchronize(t.iq, 0.0, KernelPath::Fast));
         },
         [rxs](const Trace& t) {
           return sync_bytes(
               rxs[t.n]->synchronize(t.iq, 0.0, KernelPath::Reference));
         }});
  }

  {  // Channel noise over the overlay captures above, each trace with
     // its own noise seed.
    std::vector<Trace> corpus = chains.back().corpus;
    for (std::size_t i = 0; i < corpus.size(); ++i) corpus[i].n = seed + i;
    chains.push_back(
        {"channel_noise", std::move(corpus),
         [snr_db](const Trace& t) {
           Rng rng(t.n);
           return iq_bytes(add_awgn(t.iq, snr_db, rng));
         },
         [snr_db](const Trace& t) {
           Rng rng(t.n);
           return iq_bytes(add_awgn_per_draw(t.iq, snr_db, rng));
         }});
  }

  // Hard equivalence gate: bitwise-identical demod output on every
  // corpus trace, or the throughput numbers below are meaningless.
  for (const Chain& chain : chains) {
    for (std::size_t i = 0; i < chain.corpus.size(); ++i) {
      const auto bf = chain.fast(chain.corpus[i]);
      const auto br = chain.ref(chain.corpus[i]);
      if (bf.size() != br.size() ||
          std::memcmp(bf.data(), br.data(), bf.size()) != 0) {
        std::fprintf(stderr,
                     "FAIL: %s fast/reference output mismatch on trace %zu\n",
                     chain.name.c_str(), i);
        return 1;
      }
    }
    std::printf("  equivalence: %-12s %zu traces, fast == reference bitwise\n",
                chain.name.c_str(), chain.corpus.size());
  }

  std::printf("  overlay_sync block: %s\n",
              kernels::SlidingSync::isa_name(
                  kernels::SlidingSync::default_isa()));

  const double min_seconds = 0.25;
  std::vector<CsvColumn> cols;
  std::size_t chains_at_target = 0;
  bench::rule();
  std::printf("%-12s %12s %12s %9s\n", "chain", "fast Msps", "ref Msps",
              "speedup");
  bench::rule();
  for (const Chain& chain : chains) {
    const Timing tf = time_chain(chain, true, min_seconds);
    const Timing tr = time_chain(chain, false, min_seconds);
    const double speedup = tr.samples_per_sec() > 0.0
                               ? tf.samples_per_sec() / tr.samples_per_sec()
                               : 0.0;
    if (speedup >= 3.0) ++chains_at_target;
    std::printf("%-12s %12.2f %12.2f %8.2fx\n", chain.name.c_str(),
                tf.samples_per_sec() / 1e6, tr.samples_per_sec() / 1e6,
                speedup);
    cols.push_back({chain.name + "_fast_samples_per_sec",
                    {tf.samples_per_sec()}});
    cols.push_back({chain.name + "_reference_samples_per_sec",
                    {tr.samples_per_sec()}});
    cols.push_back({chain.name + "_speedup", {speedup}});
    bench::record_timing(("phy." + chain.name + "_fast_msps").c_str(),
                         tf.samples_per_sec() / 1e6);
    bench::record_timing(("phy." + chain.name + "_speedup_x").c_str(),
                         speedup);
  }
  bench::rule();
  std::printf("  %zu/%zu chains at >=3x (target: >=3x on at least 2)\n",
              chains_at_target, chains.size());

  if (!opt.out_dir.empty())
    save_csv(opt.out_dir + "/phy_throughput.csv", cols);
  return finish_bench_output(opt) ? 0 : 1;
}
