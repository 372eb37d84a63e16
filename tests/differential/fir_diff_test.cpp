// Differential suite for the "same"-length FIR (dsp/fir.h).
//
// fir_filter runs its interior outputs tap-outer as an axpy.  The
// oracle below is the per-output loop it replaced, kept verbatim: for
// every output it walks the taps in ascending order and skips samples
// outside x.  Both overloads must match it bit for bit (memcmp per
// float) on every length from empty to past two windows, on odd and
// even tap counts, and on inputs and taps seeded with ±0.0, ±inf, NaN
// and subnormals.  The one allowance: where both outputs are NaN, their
// sign and payload are not compared.  When two NaNs meet in an add,
// IEEE 754 leaves unspecified which one propagates; x86 keeps the first
// operand's, and the compiler may commute the operands of `+`, which it
// does differently in a vectorized loop than in a scalar one.
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "diff_harness.h"
#include "dsp/fir.h"

namespace ms {
namespace {

// ---- Oracle: the per-output loop ------------------------------------

template <typename T>
std::vector<T> convolve_same(std::span<const T> x, std::span<const float> taps) {
  MS_CHECK(!taps.empty());
  std::vector<T> out(x.size(), T{});
  const std::ptrdiff_t delay = static_cast<std::ptrdiff_t>(taps.size() / 2);
  for (std::size_t i = 0; i < x.size(); ++i) {
    T acc{};
    for (std::size_t k = 0; k < taps.size(); ++k) {
      const std::ptrdiff_t j =
          static_cast<std::ptrdiff_t>(i) + delay - static_cast<std::ptrdiff_t>(k);
      if (j >= 0 && j < static_cast<std::ptrdiff_t>(x.size()))
        acc += x[static_cast<std::size_t>(j)] * taps[k];
    }
    out[i] = acc;
  }
  return out;
}

/// memcmp per float, failing at the first divergence; two NaNs match.
template <typename T>
void expect_same(const std::vector<T>& fast, const std::vector<T>& ref,
                 const std::string& what, const std::string& ctx) {
  ASSERT_EQ(fast.size(), ref.size()) << what << " (" << ctx << ")";
  constexpr std::size_t kLanes = sizeof(T) / sizeof(float);
  const float* f = reinterpret_cast<const float*>(fast.data());
  const float* r = reinterpret_cast<const float*>(ref.data());
  for (std::size_t q = 0; q < fast.size() * kLanes; ++q) {
    if (std::memcmp(&f[q], &r[q], sizeof(float)) == 0 ||
        (std::isnan(f[q]) && std::isnan(r[q])))
      continue;
    ADD_FAILURE() << what << " diverges at sample " << q / kLanes
                  << " lane " << q % kLanes << " (" << ctx
                  << "): fast=" << difftest::fmt_float_bits(f[q])
                  << " ref=" << difftest::fmt_float_bits(r[q]);
    return;
  }
}

/// Both overloads against the oracle on one input pair.
void check(std::span<const float> xr, std::span<const Cf> xc,
           std::span<const float> taps, const std::string& ctx) {
  expect_same(fir_filter(xr, taps), convolve_same<float>(xr, taps),
              "fir_filter(real)", ctx);
  expect_same(fir_filter(xc, taps), convolve_same<Cf>(xc, taps),
              "fir_filter(complex)", ctx);
}

// ---- Corpus ---------------------------------------------------------

constexpr std::size_t kTapCounts[] = {1, 2, 3, 4, 25, 31, 33};

/// Mostly uniform values, with ±0.0, ±inf, NaN and subnormals mixed in
/// at `special_rate`.
float edge_value(Rng& rng, double special_rate) {
  if (!rng.chance(special_rate))
    return static_cast<float>(rng.uniform(-2.0, 2.0));
  const float denorm = std::numeric_limits<float>::denorm_min();
  switch (rng.uniform_int(7)) {
    case 0: return 0.0f;
    case 1: return -0.0f;
    case 2: return std::numeric_limits<float>::infinity();
    case 3: return -std::numeric_limits<float>::infinity();
    case 4: return std::numeric_limits<float>::quiet_NaN();
    case 5: return denorm * static_cast<float>(1 + rng.uniform_int(1000));
    default: return -std::numeric_limits<float>::min() * 0.5f;  // subnormal
  }
}

std::vector<float> edge_taps(Rng& rng, std::size_t m, double special_rate) {
  std::vector<float> taps(m);
  for (float& h : taps) h = edge_value(rng, special_rate);
  return taps;
}

/// Sweep every tap count and every length 0..2m+2; `special_rate`
/// controls how often an IEEE edge value replaces a plain draw.
void sweep(Rng& rng, double input_specials, double tap_specials) {
  for (std::size_t m : kTapCounts) {
    for (std::size_t n = 0; n <= 2 * m + 2; ++n) {
      const std::vector<float> taps = edge_taps(rng, m, tap_specials);
      Samples xr(n);
      Iq xc(n);
      for (float& v : xr) v = edge_value(rng, input_specials);
      for (Cf& v : xc)
        v = Cf(edge_value(rng, input_specials),
               edge_value(rng, input_specials));
      check(xr, xc, taps, difftest::ctx("taps=%zu n=%zu", m, n));
    }
  }
}

// ---- Tests ----------------------------------------------------------

TEST(FirDiff, PlainInputsEveryLengthAndTapCount) {
  Rng rng(difftest::kSeed);
  sweep(rng, 0.0, 0.0);
}

TEST(FirDiff, SpecialInputsEveryLengthAndTapCount) {
  Rng rng(difftest::kSeed ^ 0xf1f1);
  for (int rep = 0; rep < 4; ++rep) sweep(rng, 0.2, 0.0);
}

TEST(FirDiff, SpecialTapsEveryLengthAndTapCount) {
  Rng rng(difftest::kSeed ^ 0x7a95);
  for (int rep = 0; rep < 4; ++rep) sweep(rng, 0.1, 0.2);
}

TEST(FirDiff, DesignedLowpassOnLongInput) {
  // The front end's shape: a 31-tap low-pass over a long capture, long
  // enough that the vectorized axpy runs its main body and its tail.
  Rng rng(difftest::kSeed ^ 0x1200);
  const std::vector<float> taps = design_lowpass(0.225, 31);
  for (std::size_t n : {1200u, 1201u, 1203u}) {
    Samples xr(n);
    Iq xc(n);
    for (float& v : xr) v = edge_value(rng, 0.01);
    for (Cf& v : xc) v = Cf(edge_value(rng, 0.01), edge_value(rng, 0.01));
    check(xr, xc, taps, difftest::ctx("lowpass n=%zu", n));
  }
}

TEST(FirDiff, EmptyTapsRejected) {
  const Samples x(8, 1.0f);
  EXPECT_THROW(fir_filter(x, std::span<const float>{}), Error);
}

}  // namespace
}  // namespace ms
