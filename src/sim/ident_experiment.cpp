#include "sim/ident_experiment.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "channel/awgn.h"
#include "common/error.h"
#include "common/units.h"
#include "dsp/ops.h"
#include "phy/ble/ble.h"
#include "phy/dsss/wifi_b.h"
#include "phy/ofdm/wifi_n.h"
#include "phy/zigbee/zigbee.h"
#include "sim/runner/waveform_cache.h"

namespace ms {

double IdentResult::accuracy(Protocol p) const {
  const std::size_t i = protocol_index(p);
  const std::size_t n = trials(p);
  return n == 0 ? 0.0
                : static_cast<double>(confusion[i][i]) / static_cast<double>(n);
}

double IdentResult::average_accuracy() const {
  double acc = 0.0;
  for (Protocol p : kAllProtocols) acc += accuracy(p);
  return acc / 4.0;
}

std::size_t IdentResult::trials(Protocol p) const {
  const std::size_t i = protocol_index(p);
  std::size_t n = 0;
  for (std::size_t j = 0; j < 5; ++j) n += confusion[i][j];
  return n;
}

namespace {

/// Cache lookup helper: key the drawn random content under the
/// Excitation kind and synthesize via `synth` on first sight.  Returns
/// a mutable copy so downstream channel/fault stages can edit in place.
Iq cached_excitation(Protocol p, std::vector<std::uint8_t> drawn,
                     const std::function<Iq()>& synth) {
  WaveformKey key;
  key.kind = WaveformKind::Excitation;
  key.protocol = static_cast<std::uint8_t>(protocol_index(p));
  key.payload = std::move(drawn);
  return Iq(*WaveformCache::instance().get_or_synthesize(key, synth));
}

/// Packet-start waveform as the tag hears it: the deterministic
/// packet-detection region followed by random payload (a real packet
/// does not stop after its preamble, and template windows may extend
/// into the payload-adjacent region).
///
/// Caching discipline: every random draw happens HERE, before the cache
/// lookup, in the exact order the uncached code drew — the Rng stream,
/// and therefore every downstream jitter/noise/amplitude draw, is
/// untouched.  The drawn content becomes the cache key; the synthesis
/// closure is a pure function of it.
Iq excitation_waveform(Protocol p, const IdentTrialConfig& cfg, Rng& rng) {
  switch (p) {
    case Protocol::WifiB: {
      // The long preamble continues well past 40 µs; use more of it.
      const bool short_preamble =
          rng.chance(cfg.wifi_b_short_preamble_fraction);
      return cached_excitation(
          p, {static_cast<std::uint8_t>(short_preamble)}, [&] {
            WifiBConfig phy_cfg;
            phy_cfg.short_preamble = short_preamble;
            const WifiBPhy phy(phy_cfg);
            Iq full = phy.preamble_waveform();
            full.resize(std::min<std::size_t>(
                full.size(),
                static_cast<std::size_t>(80e-6 * phy.sample_rate_hz())));
            return full;
          });
    }
    case Protocol::WifiN: {
      const Bits coded = rng.bits(48 * 10);  // 40 µs of payload symbols
      return cached_excitation(p, coded, [&] {
        const WifiNPhy phy;
        Iq iq = clean_preamble(p, /*extended=*/true);
        const Iq body = phy.modulate_coded_symbols(coded);
        iq.insert(iq.end(), body.begin(), body.end());
        return iq;
      });
    }
    case Protocol::Ble: {
      const Bits payload = rng.bits(40);
      return cached_excitation(p, payload, [&] {
        const BlePhy phy;
        Bits air = phy.preamble_bits();
        air.insert(air.end(), payload.begin(), payload.end());
        return phy.modulate_bits(air);
      });
    }
    case Protocol::Zigbee: {
      std::vector<uint8_t> symbols(8, 0);  // preamble
      for (int i = 0; i < 3; ++i)
        symbols.push_back(static_cast<uint8_t>(rng.uniform_int(16)));
      return cached_excitation(p, symbols, [&] {
        const ZigbeePhy phy;
        return phy.modulate_symbols(symbols);
      });
    }
  }
  return {};
}

}  // namespace

Samples make_ident_trace(Protocol p, const IdentTrialConfig& cfg, Rng& rng) {
  const double rate = native_sample_rate(p);
  // The tag always receives the full packet-detection region; the
  // identifier's window length decides how much of it is used.
  Iq iq = excitation_waveform(p, cfg, rng);

  // Random start jitter: noise-only samples before the packet.
  if (cfg.multipath) {
    const MultipathChannel ch = sample_multipath(cfg.multipath_cfg, rate, rng);
    iq = ch.apply(iq);
  }

  // Excitation-side faults perturb the clean IQ before noise is added
  // (the interferer/dropout happens on the air, not in the receiver).
  // Gated so a fault-free config consumes no extra Rng draws.
  if (cfg.faults.any_excitation_fault()) {
    FaultInjector injector(cfg.faults);
    iq = injector.perturb_excitation(std::move(iq), rate, rng);
  }

  const std::size_t jitter =
      static_cast<std::size_t>(rng.uniform(0.0, cfg.jitter_max_s) * rate);
  const double sig_power = mean_power(std::span<const Cf>(iq));
  const double noise_power = sig_power / db_to_linear(cfg.rf_snr_db);
  Iq trace = complex_noise(jitter, noise_power, rng);
  trace.reserve(jitter + iq.size());
  trace.insert(trace.end(), iq.begin(), iq.end());
  Iq noisy = add_noise_power(trace, noise_power, rng);

  // Random range/orientation → amplitude scale.
  const float amp = static_cast<float>(rng.uniform(cfg.amp_min, cfg.amp_max));
  for (Cf& v : noisy) v *= amp;

  Samples trace_out = acquire_trace(noisy, rate, cfg.ident.templates.adc_rate_hz,
                                    cfg.ident.templates.front_end);

  // ADC-side faults (truncated / duplicated sample runs) hit the stream
  // the identifier actually consumes.
  if (cfg.faults.any_adc_fault()) {
    FaultInjector injector(cfg.faults);
    trace_out = injector.perturb_adc(std::move(trace_out), rng);
  }
  return trace_out;
}

IdentResult run_ident_experiment(const IdentTrialConfig& cfg,
                                 std::size_t trials_per_protocol) {
  TrialRunner runner({cfg.threads, cfg.seed});
  return run_ident_experiment(runner, cfg, trials_per_protocol);
}

IdentResult run_ident_experiment(TrialRunner& runner,
                                 const IdentTrialConfig& cfg,
                                 std::size_t trials_per_protocol) {
  const ProtocolIdentifier identifier(cfg.ident);
  // Grid: point = true protocol, trial = Monte-Carlo repetition.  Each
  // cell returns the detected column; the confusion tallies merge in
  // fixed grid order, so the result is identical at any thread count.
  return runner.run_reduce(
      kAllProtocols.size(), trials_per_protocol, IdentResult{},
      [&](std::size_t point, std::size_t, Rng& rng) -> std::size_t {
        const Protocol p = kAllProtocols[point];
        const Samples trace = make_ident_trace(p, cfg, rng);
        const auto detected = identifier.identify(trace);
        return detected ? protocol_index(*detected) : 4;
      },
      [](IdentResult& acc, std::size_t point, std::size_t,
         std::size_t detected) { ++acc.confusion[point][detected]; });
}

namespace {

std::vector<CalibrationTrial> collect_calibration_trials(
    IdentTrialConfig cfg, std::size_t trials_per_protocol) {
  cfg.ident.decision = DecisionMode::Ordered;
  const ProtocolIdentifier identifier(cfg.ident);
  TrialRunner runner({cfg.threads, cfg.seed ^ 0xc0ffee});
  // run_grid returns the trials already in (protocol, trial) order.
  return runner.run_grid(
      kAllProtocols.size(), trials_per_protocol,
      [&](std::size_t point, std::size_t, Rng& rng) -> CalibrationTrial {
        const Protocol p = kAllProtocols[point];
        return {point, identifier.scores(make_ident_trace(p, cfg, rng))};
      });
}

constexpr std::array<double, 12> kThresholdGrid = {
    0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50, 0.60, 0.70, 0.80, 0.90};
constexpr std::size_t kGrid = kThresholdGrid.size();

/// The calibration trials as bitsets (bit t of a set = trial t), built
/// once and shared by every order's search.
struct TrialIndex {
  std::size_t words = 0;
  std::vector<std::uint64_t> above;  ///< [protocol][grid point][word]:
                                     ///  score > kThresholdGrid[j]
  std::vector<std::uint64_t> truth;  ///< [protocol][word]
  std::array<std::size_t, 4> total{};

  explicit TrialIndex(std::span<const CalibrationTrial> trials)
      : words((trials.size() + 63) / 64),
        above(4 * kGrid * words),
        truth(4 * words) {
    for (std::size_t t = 0; t < trials.size(); ++t) {
      const CalibrationTrial& tr = trials[t];
      MS_CHECK(tr.truth < 4);
      const std::size_t w = t / 64;
      const std::uint64_t bit = std::uint64_t{1} << (t % 64);
      truth[tr.truth * words + w] |= bit;
      ++total[tr.truth];
      for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < kGrid; ++j)
          if (tr.scores[i] > kThresholdGrid[j])
            above[(i * kGrid + j) * words + w] |= bit;
    }
  }
  const std::uint64_t* above_set(std::size_t i, std::size_t j) const {
    return above.data() + (i * kGrid + j) * words;
  }
  const std::uint64_t* truth_set(std::size_t i) const {
    return truth.data() + i * words;
  }
};

/// Grid search for one order.  A trial is decided at the first level k
/// whose score clears t_k, so level k's correct count depends only on
/// t0..t_k: each level splits the set its parent left undecided once
/// per threshold.  The counts are the ones the per-trial scan tallied,
/// the accuracy is the same double expression, and the tuples are
/// visited in the same lexicographic order with the same strict `>`, so
/// the result is bit-identical.
ThresholdSearch search_index(const TrialIndex& ix,
                             const std::array<Protocol, 4>& order) {
  std::array<std::size_t, 4> lvl{};
  for (std::size_t k = 0; k < 4; ++k) lvl[k] = protocol_index(order[k]);
  MS_CHECK(std::is_permutation(lvl.begin(), lvl.end(),
                               std::array<std::size_t, 4>{0, 1, 2, 3}.begin()));
  const std::size_t nw = ix.words;
  // undecided[k]: trials no level before k claimed; level 3 writes an
  // unused fifth set.  Padding bits past the last trial may be set: every
  // count ANDs with a truth set, which has none.
  std::vector<std::uint64_t> undecided(5 * nw, ~std::uint64_t{0});
  std::array<std::size_t, 4> correct{};
  const auto split = [&](std::size_t k, std::size_t j) {
    const std::uint64_t* left = undecided.data() + k * nw;
    const std::uint64_t* above = ix.above_set(lvl[k], j);
    const std::uint64_t* truth = ix.truth_set(lvl[k]);
    std::uint64_t* next = undecided.data() + (k + 1) * nw;
    std::size_t c = 0;
    for (std::size_t w = 0; w < nw; ++w) {
      c += static_cast<std::size_t>(
          std::popcount(left[w] & above[w] & truth[w]));
      next[w] = left[w] & ~above[w];
    }
    correct[lvl[k]] = c;
  };
  std::array<std::size_t, 4> best_j{};
  ThresholdSearch best;
  for (std::size_t j0 = 0; j0 < kGrid; ++j0) {
    split(0, j0);
    for (std::size_t j1 = 0; j1 < kGrid; ++j1) {
      split(1, j1);
      for (std::size_t j2 = 0; j2 < kGrid; ++j2) {
        split(2, j2);
        for (std::size_t j3 = 0; j3 < kGrid; ++j3) {
          split(3, j3);
          double acc = 0.0;
          for (std::size_t i = 0; i < 4; ++i)
            acc += ix.total[i] ? static_cast<double>(correct[i]) /
                                     static_cast<double>(ix.total[i])
                               : 0.0;
          acc /= 4.0;
          if (acc > best.acc) {
            best.acc = acc;
            best_j = {j0, j1, j2, j3};
          }
        }
      }
    }
  }
  for (std::size_t k = 0; k < 4; ++k)
    best.thr[lvl[k]] = kThresholdGrid[best_j[k]];
  return best;
}

}  // namespace

ThresholdSearch search_order_thresholds(
    std::span<const CalibrationTrial> trials,
    const std::array<Protocol, 4>& order) {
  return search_index(TrialIndex(trials), order);
}

OrderedCalibration calibrate_ordered_matching(
    IdentTrialConfig cfg, std::size_t trials_per_protocol) {
  const TrialIndex index(
      collect_calibration_trials(cfg, trials_per_protocol));
  // All 24 permutations × the full threshold grid (§2.3.2's brute
  // force), one task per matching order.  Merging in permutation order
  // reproduces the serial next_permutation scan byte for byte.
  std::vector<std::array<Protocol, 4>> orders;
  std::array<std::size_t, 4> perm = {0, 1, 2, 3};
  do {
    orders.push_back({kAllProtocols[perm[0]], kAllProtocols[perm[1]],
                      kAllProtocols[perm[2]], kAllProtocols[perm[3]]});
  } while (std::next_permutation(perm.begin(), perm.end()));

  TrialRunner runner({cfg.threads, cfg.seed});
  const auto searched = runner.map_points(
      orders.size(), [&](std::size_t i, Rng&) -> ThresholdSearch {
        return search_index(index, orders[i]);
      });

  OrderedCalibration best;
  best.calibration_accuracy = -1.0;
  bool selected = false;
  for (std::size_t i = 0; i < orders.size(); ++i) {
    if (searched[i].acc > best.calibration_accuracy) {
      best.calibration_accuracy = searched[i].acc;
      best.order = orders[i];
      best.thresholds = searched[i].thr;
      selected = true;
    }
  }
  if (!selected) {
    // Degenerate calibration: every candidate scored -1 (or NaN), which
    // happens when the calibration cells were all skipped by --only-cell
    // or quarantined by the trial watchdog.  Fall back to the first
    // candidate order so callers still receive valid Protocol values;
    // calibration_accuracy stays -1 to signal the degeneracy.
    best.order = orders.front();
    best.thresholds = {};
  }
  return best;
}

}  // namespace ms
