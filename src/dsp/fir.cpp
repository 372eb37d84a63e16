#include "dsp/fir.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace ms {

std::vector<float> design_lowpass(double cutoff, std::size_t taps) {
  MS_CHECK(cutoff > 0.0 && cutoff < 0.5);
  MS_CHECK(taps >= 3 && taps % 2 == 1);
  std::vector<float> h(taps);
  const double mid = static_cast<double>(taps - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = static_cast<double>(i) - mid;
    const double sinc =
        t == 0.0 ? 2.0 * cutoff : std::sin(2.0 * M_PI * cutoff * t) / (M_PI * t);
    const double w =
        0.54 - 0.46 * std::cos(2.0 * M_PI * static_cast<double>(i) /
                               static_cast<double>(taps - 1));
    h[i] = static_cast<float>(sinc * w);
    sum += h[i];
  }
  for (auto& v : h) v = static_cast<float>(v / sum);  // unity DC gain
  return h;
}

std::vector<float> design_gaussian(double bt, std::size_t sps,
                                   std::size_t span_symbols) {
  MS_CHECK(bt > 0.0);
  MS_CHECK(sps >= 1);
  MS_CHECK(span_symbols >= 1);
  const std::size_t taps = sps * span_symbols + 1;
  std::vector<float> h(taps);
  // Standard Gaussian filter: h(t) ∝ exp(-2π²B²t²/ln2), t in symbol units.
  const double a = 2.0 * M_PI * M_PI * bt * bt / std::log(2.0);
  const double mid = static_cast<double>(taps - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = (static_cast<double>(i) - mid) / static_cast<double>(sps);
    h[i] = static_cast<float>(std::exp(-a * t * t));
    sum += h[i];
  }
  for (auto& v : h) v = static_cast<float>(v / sum);
  return h;
}

namespace {

/// out[i] = Σ_k x[i + delay - k] * taps[k] over the k whose sample lies
/// in x, summed in ascending k from T{}.  Outputs whose window lies
/// inside x run tap-outer, so the inner loop is a plain axpy that the
/// compiler vectorizes; each output still sees the same additions in
/// the same order, so the result is bit-identical to the per-output
/// loop the edges keep.
template <typename T>
std::vector<T> convolve_same(std::span<const T> x, std::span<const float> taps) {
  MS_CHECK(!taps.empty());
  const std::size_t n = x.size();
  const std::size_t m = taps.size();
  const std::size_t delay = m / 2;
  std::vector<T> out(n, T{});
  const auto edge = [&](std::size_t i) {
    T acc{};
    for (std::size_t k = 0; k < m; ++k) {
      const std::ptrdiff_t j = static_cast<std::ptrdiff_t>(i + delay) -
                               static_cast<std::ptrdiff_t>(k);
      if (j >= 0 && j < static_cast<std::ptrdiff_t>(n))
        acc += x[static_cast<std::size_t>(j)] * taps[k];
    }
    out[i] = acc;
  };
  // Interior outputs [lo, hi): every x[i + delay - k] is in range.
  const std::size_t lo = m - 1 - delay;
  const std::size_t hi = std::max(lo, n > delay ? n - delay : 0);
  for (std::size_t i = 0; i < std::min(lo, n); ++i) edge(i);
  if (lo < hi) {
    // A Cf is two floats (std::complex's array-access guarantee), and a
    // complex times a real tap is two independent float products.
    const std::size_t len = (hi - lo) * (sizeof(T) / sizeof(float));
    float* dst = reinterpret_cast<float*>(out.data() + lo);
    for (std::size_t k = 0; k < m; ++k) {
      const float* src =
          reinterpret_cast<const float*>(x.data() + lo + delay - k);
      const float h = taps[k];
      for (std::size_t q = 0; q < len; ++q) dst[q] += src[q] * h;
    }
  }
  for (std::size_t i = hi; i < n; ++i) edge(i);
  return out;
}

}  // namespace

Samples fir_filter(std::span<const float> x, std::span<const float> taps) {
  return convolve_same<float>(x, taps);
}

Iq fir_filter(std::span<const Cf> x, std::span<const float> taps) {
  return convolve_same<Cf>(x, taps);
}

}  // namespace ms
