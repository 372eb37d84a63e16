#include "dsp/kernels/sliding_sync.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "dsp/kernels/arena.h"

namespace ms::kernels {

namespace {

// Four float lanes.  GCC/Clang vector extensions lower these to SSE at
// any optimization level, so the block stays vectorized at -O2, where
// the auto-vectorizer's cheap cost model would not touch a scalar block.
using F4 = float __attribute__((vector_size(16)));

inline F4 load4(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, F4 v) { std::memcpy(p, &v, sizeof v); }

static_assert(SlidingSync::kBlock == 16, "correlate_block is 4 × F4 wide");
static_assert(SlidingSync::kChunk % SlidingSync::kBlock == 0);

// Correlations of the kBlock windows starting at xr/xi (planar capture)
// against the planar conj reference br/bi of length n.  Lane j
// accumulates x[j + k]·b[k] over k in order — the oracle's chain for
// that offset — and the 8 accumulators stay in registers throughout.
void correlate_block(const float* xr, const float* xi, const float* br,
                     const float* bi, std::size_t n, float* out_re,
                     float* out_im) {
  F4 ar0{}, ar1{}, ar2{}, ar3{};
  F4 ai0{}, ai1{}, ai2{}, ai3{};
  for (std::size_t k = 0; k < n; ++k) {
    const float cr = br[k];
    const float ci = bi[k];
    const F4 r0 = load4(xr + k), i0 = load4(xi + k);
    ar0 += r0 * cr - i0 * ci;
    ai0 += r0 * ci + i0 * cr;
    const F4 r1 = load4(xr + k + 4), i1 = load4(xi + k + 4);
    ar1 += r1 * cr - i1 * ci;
    ai1 += r1 * ci + i1 * cr;
    const F4 r2 = load4(xr + k + 8), i2 = load4(xi + k + 8);
    ar2 += r2 * cr - i2 * ci;
    ai2 += r2 * ci + i2 * cr;
    const F4 r3 = load4(xr + k + 12), i3 = load4(xi + k + 12);
    ar3 += r3 * cr - i3 * ci;
    ai3 += r3 * ci + i3 * cr;
  }
  store4(out_re, ar0);
  store4(out_re + 4, ar1);
  store4(out_re + 8, ar2);
  store4(out_re + 12, ar3);
  store4(out_im, ai0);
  store4(out_im + 4, ai1);
  store4(out_im + 8, ai2);
  store4(out_im + 12, ai3);
}

}  // namespace

SlidingSync::SlidingSync(std::span<const Cf> ref)
    : re_(ref.size()), im_(ref.size()) {
  for (std::size_t k = 0; k < ref.size(); ++k) {
    re_[k] = ref[k].real();
    im_[k] = -ref[k].imag();  // conj, baked in
    energy_ += std::norm(ref[k]);
  }
}

SlidingSync::Peak SlidingSync::peak(std::span<const Cf> rx) const {
  const std::size_t len = length();
  MS_CHECK(len > 0 && rx.size() >= len);
  const std::size_t n_off = rx.size() - len + 1;

  SampleArena& arena = scratch_arena();
  SampleArena::Scope scope(arena);
  // One chunk of windows reads kChunk + len − 1 samples; the last block
  // of a ragged chunk reads up to kBlock − 1 more, which are zeroed.
  const std::size_t chunk_samples = kChunk + len - 1;
  auto xr = arena.alloc<float>(chunk_samples);
  auto xi = arena.alloc<float>(chunk_samples);
  float corr_re[kBlock];
  float corr_im[kBlock];

  Peak best;
  double skip_scale = 0.0;  // b²·(1 − 1e-5); see the header's proof
  double win_energy = 0.0;
  for (std::size_t i = 0; i < len; ++i) win_energy += std::norm(rx[i]);

  for (std::size_t c0 = 0; c0 < n_off; c0 += kChunk) {
    const std::size_t n = std::min(kChunk, n_off - c0);
    const std::size_t n_samples = n + len - 1;
    const std::size_t padded = (n + kBlock - 1) / kBlock * kBlock + len - 1;
    for (std::size_t j = 0; j < n_samples; ++j) {
      xr[j] = rx[c0 + j].real();
      xi[j] = rx[c0 + j].imag();
    }
    std::fill(xr.begin() + n_samples, xr.begin() + padded, 0.0f);
    std::fill(xi.begin() + n_samples, xi.begin() + padded, 0.0f);

    for (std::size_t b0 = 0; b0 < n; b0 += kBlock) {
      correlate_block(xr.data() + b0, xi.data() + b0, re_.data(),
                      im_.data(), len, corr_re, corr_im);
      const std::size_t nb = std::min(kBlock, n - b0);
      for (std::size_t j = 0; j < nb; ++j) {
        const std::size_t off = c0 + b0 + j;
        if (off > 0) {
          win_energy += std::norm(rx[off + len - 1]);
          win_energy -= std::norm(rx[off - 1]);
        }
        if (!(win_energy > 1e-12)) continue;
        const double wp = win_energy * energy_;
        const double q = static_cast<double>(corr_re[j]) * corr_re[j] +
                         static_cast<double>(corr_im[j]) * corr_im[j];
        const double thr = skip_scale * wp;
        if (q < thr && thr >= kSkipFloor) continue;
        const double metric =
            std::abs(Cf(corr_re[j], corr_im[j])) / std::sqrt(wp);
        if (metric > best.metric) {
          best.metric = metric;
          best.offset = off;
          skip_scale = metric * metric * (1.0 - 1e-5);
        }
      }
    }
  }
  return best;
}

}  // namespace ms::kernels
