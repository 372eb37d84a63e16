// Hot-path microbenchmarks (google-benchmark): the operations a tag or
// receiver runs per packet — correlation, despreading, FFT, GFSK
// discrimination, rectifier simulation, and full overlay decode.
// After the benchmark suite, main() asserts that the telemetry layer
// (src/obs/) costs < 3% on an instrumented hot path while tracing is
// disabled — the contract that lets the instrumentation stay compiled
// in everywhere.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "analog/rectifier.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "common/rng.h"
#include "core/ident/identifier.h"
#include "core/overlay/ble_overlay.h"
#include "dsp/bitpack.h"
#include "dsp/correlate.h"
#include "dsp/fft.h"
#include "dsp/mixer.h"
#include "phy/dsss/wifi_b.h"
#include "phy/zigbee/zigbee.h"

namespace ms {
namespace {

void BM_SlidingPearson(benchmark::State& state) {
  Rng rng(1);
  Samples trace(static_cast<std::size_t>(state.range(0)));
  for (auto& v : trace) v = static_cast<float>(rng.normal());
  Samples tmpl(120);
  for (auto& v : tmpl) v = static_cast<float>(rng.normal());
  for (auto _ : state)
    benchmark::DoNotOptimize(sliding_correlation(trace, tmpl));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SlidingPearson)->Arg(256)->Arg(1024);

void BM_OneBitCorrelation(benchmark::State& state) {
  Rng rng(2);
  std::vector<int8_t> a(120), b(120);
  for (auto& v : a) v = rng.chance(0.5) ? 1 : -1;
  for (auto& v : b) v = rng.chance(0.5) ? 1 : -1;
  for (auto _ : state) benchmark::DoNotOptimize(sign_correlation(a, b));
}
BENCHMARK(BM_OneBitCorrelation);

void BM_Fft64(benchmark::State& state) {
  Rng rng(3);
  Iq x(64);
  for (auto& v : x)
    v = Cf(static_cast<float>(rng.normal()), static_cast<float>(rng.normal()));
  for (auto _ : state) {
    Iq y = x;
    fft_inplace(y);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_Fft64);

void BM_WifiBModulateFrame(benchmark::State& state) {
  Rng rng(4);
  const WifiBPhy phy;
  const Bytes payload = rng.bytes(64);
  for (auto _ : state) benchmark::DoNotOptimize(phy.modulate_frame(payload));
}
BENCHMARK(BM_WifiBModulateFrame);

void BM_ZigbeeDetectSymbols(benchmark::State& state) {
  Rng rng(5);
  const ZigbeePhy phy;
  std::vector<uint8_t> symbols(32);
  for (auto& s : symbols) s = static_cast<uint8_t>(rng.uniform_int(16));
  const Iq wave = phy.modulate_symbols(symbols);
  for (auto _ : state)
    benchmark::DoNotOptimize(phy.detect_symbols(wave, symbols.size()));
  state.SetItemsProcessed(state.iterations() * symbols.size());
}
BENCHMARK(BM_ZigbeeDetectSymbols);

void BM_Discriminator(benchmark::State& state) {
  Rng rng(6);
  Iq x(8000);
  double phase = 0.0;
  for (auto& v : x) {
    phase += rng.normal(0.0, 0.3);
    v = Cf(static_cast<float>(std::cos(phase)), static_cast<float>(std::sin(phase)));
  }
  for (auto _ : state) benchmark::DoNotOptimize(discriminate(x, 8e6));
  state.SetItemsProcessed(state.iterations() * x.size());
}
BENCHMARK(BM_Discriminator);

void BM_RectifierRun(benchmark::State& state) {
  Rng rng(7);
  const Rectifier rect(multiscatter_rectifier());
  Samples env(20000);
  for (auto& v : env) v = static_cast<float>(std::abs(rng.normal(0.3, 0.1)));
  for (auto _ : state) benchmark::DoNotOptimize(rect.run(env, 20e6));
  state.SetItemsProcessed(state.iterations() * env.size());
}
BENCHMARK(BM_RectifierRun);

void BM_BleOverlayDecode(benchmark::State& state) {
  Rng rng(8);
  const BleOverlay codec(OverlayParams{8, 4});
  const std::size_t n_seq = 32;
  const Bits prod = rng.bits(n_seq);
  const Bits tag = rng.bits(codec.tag_capacity(n_seq));
  const Iq wave = codec.tag_modulate(codec.make_carrier(prod), tag);
  for (auto _ : state) benchmark::DoNotOptimize(codec.decode(wave, n_seq));
  state.SetItemsProcessed(state.iterations() * n_seq);
}
BENCHMARK(BM_BleOverlayDecode);

void BM_PackedCorrelation(benchmark::State& state) {
  Rng rng(10);
  std::vector<int8_t> stream(static_cast<std::size_t>(state.range(0)));
  std::vector<int8_t> tmpl_signs(120);
  for (auto& v : stream) v = rng.chance(0.5) ? 1 : -1;
  for (auto& v : tmpl_signs) v = rng.chance(0.5) ? 1 : -1;
  const bitpack::PackedVec tmpl = bitpack::pack_signs(tmpl_signs);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        bitpack::sliding_sign_correlation(bitpack::pack_signs(stream), tmpl));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PackedCorrelation)->Arg(256)->Arg(1024);

void BM_IdentifierScore(benchmark::State& state) {
  IdentifierConfig cfg;
  cfg.templates.adc_rate_hz = 10e6;
  cfg.templates.preprocess_len = 20;
  cfg.templates.match_len = 60;
  cfg.compute = ComputeMode::OneBit;
  const ProtocolIdentifier ident(cfg);
  Rng rng(9);
  Samples trace(420);
  for (auto& v : trace) v = static_cast<float>(std::abs(rng.normal(0.3, 0.1)));
  for (auto _ : state) benchmark::DoNotOptimize(ident.scores(trace));
}
BENCHMARK(BM_IdentifierScore);

/// Telemetry overhead check: time an instrumented hot path
/// (ProtocolIdentifier::scores carries an OBS_SCOPE and an event site)
/// with telemetry live-but-untraced vs the obs::set_enabled(false) kill
/// switch.  The on/off reps are interleaved — measuring one side in a
/// block and then the other lets CPU frequency drift between the blocks
/// masquerade as several percent of overhead — and the best-of-N
/// minimum on each side rejects scheduler noise.
bool check_telemetry_overhead() {
  IdentifierConfig cfg;
  cfg.templates.adc_rate_hz = 10e6;
  cfg.templates.preprocess_len = 20;
  cfg.templates.match_len = 60;
  cfg.compute = ComputeMode::OneBit;
  const ProtocolIdentifier ident(cfg);
  Rng rng(9);
  Samples trace(420);
  for (auto& v : trace) v = static_cast<float>(std::abs(rng.normal(0.3, 0.1)));

  constexpr int kIters = 256;
  constexpr int kReps = 15;
  const auto time_once = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i)
      benchmark::DoNotOptimize(ident.scores(trace));
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  // "Tracing disabled": telemetry live, no subsystem traced, no shard
  // installed — the state every production sweep starts in.
  const std::uint32_t saved_mask = obs::trace_mask();
  obs::set_trace_mask(0);
  obs::set_enabled(true);
  time_once();  // warm-up
  double t_on = std::numeric_limits<double>::infinity();
  double t_off = t_on;
  for (int r = 0; r < kReps; ++r) {
    obs::set_enabled(true);
    t_on = std::min(t_on, time_once());
    obs::set_enabled(false);
    t_off = std::min(t_off, time_once());
  }
  obs::set_enabled(true);
  obs::set_trace_mask(saved_mask);

  const double overhead =
      t_on > t_off ? (t_on - t_off) / t_off : 0.0;
  std::printf("\ntelemetry overhead (tracing disabled): %.2f%%"
              " (on %.3f ms vs off %.3f ms, best of %d)\n",
              100.0 * overhead, 1e3 * t_on, 1e3 * t_off, kReps);
  if (overhead >= 0.03) {
    std::fprintf(stderr,
                 "FAIL: telemetry overhead %.2f%% exceeds the 3%% budget\n",
                 100.0 * overhead);
    return false;
  }
  return true;
}

}  // namespace
}  // namespace ms

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ms::check_telemetry_overhead() ? 0 : 1;
}
