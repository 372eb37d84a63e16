#include "dsp/kernels/sliding_sync.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "dsp/kernels/arena.h"

namespace ms::kernels {

namespace {

// GCC/Clang vector types: four lanes (SSE) and eight (AVX2).  They lower
// to vector instructions at any optimization level, so the block stays
// vectorized at -O2, where the auto-vectorizer's cheap cost model would
// not touch a scalar block.
using F4 = float __attribute__((vector_size(16)));
using F8 = float __attribute__((vector_size(32)));

static_assert(SlidingSync::kChunk % SlidingSync::kBlock == 0);

using BlockFn = void (*)(const float*, const float*, const float*,
                         const float*, std::size_t, float*, float*);

// Correlations of the kBlock windows starting at xr/xi (planar capture)
// against the planar conj reference br/bi of length n, as kBlock / lanes
// vectors of V.  Lane j accumulates x[j + k]·b[k] over k in order — the
// oracle's chain for that offset — whatever the vector width, so every
// instantiation gives the same bits, and the accumulators stay in
// registers throughout.  Vectors only move through memcpy inside this
// body, so no function takes or returns a V across an ISA boundary.
template <class V>
[[gnu::always_inline]] inline void correlate_block(
    const float* xr, const float* xi, const float* br, const float* bi,
    std::size_t n, float* out_re, float* out_im) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(float);
  constexpr std::size_t kVecs = SlidingSync::kBlock / kLanes;
  static_assert(kVecs * kLanes == SlidingSync::kBlock);
  V ar[kVecs] = {};
  V ai[kVecs] = {};
  for (std::size_t k = 0; k < n; ++k) {
    const float cr = br[k];
    const float ci = bi[k];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < kVecs; ++v) {
      V r, i;
      std::memcpy(&r, xr + k + v * kLanes, sizeof r);
      std::memcpy(&i, xi + k + v * kLanes, sizeof i);
      ar[v] += r * cr - i * ci;
      ai[v] += r * ci + i * cr;
    }
  }
  for (std::size_t v = 0; v < kVecs; ++v) {
    std::memcpy(out_re + v * kLanes, &ar[v], sizeof ar[v]);
    std::memcpy(out_im + v * kLanes, &ai[v], sizeof ai[v]);
  }
}

// 4 × F4 accumulators per component.
void correlate_block_sse(const float* xr, const float* xi, const float* br,
                         const float* bi, std::size_t n, float* out_re,
                         float* out_im) {
  correlate_block<F4>(xr, xi, br, bi, n, out_re, out_im);
}

#if defined(__x86_64__) || defined(__i386__)
#define MS_SLIDING_SYNC_AVX2 1
// 2 × F8 accumulators per component over the same 16 offsets.  Only
// "avx2": the clone must not gain "fma", which would let the compiler
// contract the multiply-adds and change the bits (the library is also
// built with -ffp-contract=off).
__attribute__((target("avx2"))) void correlate_block_avx2(
    const float* xr, const float* xi, const float* br, const float* bi,
    std::size_t n, float* out_re, float* out_im) {
  correlate_block<F8>(xr, xi, br, bi, n, out_re, out_im);
}
#endif

BlockFn block_fn(SlidingSync::Isa isa) {
  MS_CHECK(SlidingSync::isa_supported(isa));
#ifdef MS_SLIDING_SYNC_AVX2
  if (isa == SlidingSync::Isa::Avx2) return correlate_block_avx2;
#endif
  return correlate_block_sse;
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

bool SlidingSync::isa_supported(Isa isa) {
  if (isa == Isa::Sse) return true;
#ifdef MS_SLIDING_SYNC_AVX2
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

SlidingSync::Isa SlidingSync::default_isa() {
  static const Isa isa = isa_supported(Isa::Avx2) ? Isa::Avx2 : Isa::Sse;
  return isa;
}

const char* SlidingSync::isa_name(Isa isa) {
  return isa == Isa::Avx2 ? "avx2" : "sse";
}

SlidingSync::Peak SlidingSync::peak(std::span<const Cf> rx) const {
  return peak(rx, default_isa());
}

SlidingSync::Peak SlidingSync::peak(std::span<const Cf> rx, Isa isa) const {
  const BlockFn correlate = block_fn(isa);
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
      correlate(xr.data() + b0, xi.data() + b0, re_.data(), im_.data(),
                len, corr_re, corr_im);
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
