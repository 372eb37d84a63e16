// Sliding normalized cross-correlation against one reference waveform:
// the fast twin of OverlayReceiver::synchronize's scalar packet-sync
// loop (core/overlay/receiver.cpp), which stays as the oracle.
//
// The oracle slides the reference over the capture one offset at a time
// — offsets outer, reference samples inner — and for every window with
// energy computes
//     metric = |Σ_k rx[off+k]·conj(ref[k])| / sqrt(W_off · E_ref)
// keeping the first offset with the strictly largest metric.  Its inner
// loop is one std::complex accumulation chain, latency-bound and never
// vectorized.
//
// The fast path is CmacBank with the loops interchanged the other way:
// reference samples outer, offsets inner.  A block of kBlock adjacent
// offsets keeps its accumulators in vector registers while k walks the
// reference, so each k step is a contiguous multiply-add over kBlock
// independent chains.  The block is one width-templated body built
// twice — 4 × 4 lanes (SSE) and 2 × 8 lanes (AVX2, without FMA) — and
// the AVX2 build runs wherever the CPU supports it.  The capture is deinterleaved to planar re/im in
// chunks of kChunk offsets carved from the per-thread scratch_arena(),
// so scratch stays bounded (about 8·(kChunk + length) bytes) whatever the
// capture length — a whole-capture planar copy would add 8 bytes per
// sample to the peak footprint.
//
// Why the correlation is bit-exact, not just close:
//   - Each offset's accumulator sees the same sequential operation
//     order over k as the oracle's chain; blocking across offsets never
//     reassociates any single chain.
//   - conj(ref) is stored with the imaginary part negated up front
//     (exact), and
//         pr = x_re*b_re − x_im*b_im
//         pi = x_re*b_im + x_im*b_re
//     are literally the four multiplies and two add/subs the library's
//     complex multiply performs on finite values (see cmac_bank.h).
//   - The window energy W is the oracle's running double sum, updated
//     in the same order with the same std::norm terms, and the same
//     `W > 1e-12` guard decides which offsets are scored.
//
// The exact-argmax prefilter.  Once the multiply-accumulates are
// vectorized, the oracle's per-offset metric (float hypot through
// std::abs, then a double sqrt and divide) dominates.  Most offsets
// cannot beat the running best b, so an offset is skipped when, in
// double precision,
//     q̂ = re² + im²  <  T = b²·(1 − 1e-5) · (W·E_ref)
// and T ≥ kSkipFloor.  Every other offset runs the oracle's exact
// expression, in ascending order, with strict `>`.  A skipped offset
// can never win:
//   - re², im² are exact in double (24-bit mantissas), so q̂ and T each
//     carry at most a few double roundings (relative 2^-53 apiece)
//     against the real q = re² + im² and b²·W·E_ref.  Skipping
//     therefore implies √q < b·√(W·E_ref)·(1 − 5e-6 + 3·2^-53).
//   - std::abs(Cf) is a faithful float hypot: h ≤ √q·(1 + 2^-23) + 2^-149
//     (the absolute term covers subnormal results).  The oracle's
//     denominator fl(√fl(W·E_ref)) and its division add two more double
//     roundings.
//   - So the oracle's metric for that offset is at most
//     b·(1 − 5e-6 + 1.3e-7) + 2^-149/√(W·E_ref).  T ≥ kSkipFloor = 1e-60
//     means b·√(W·E_ref) ≥ 1e-30, so the last term is below b·1e-14.
//     The metric is strictly below b, and strict `>` would never have
//     taken the offset.
//   - By induction over ascending offsets the running best is the
//     oracle's at every step, so the skip test, the winner and its
//     metric bits are the oracle's.  NaN compares false and is never
//     skipped; b = 0 gives T = 0, so nothing is skipped before the
//     first qualifying window.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dsp/iq.h"

namespace ms::kernels {

class SlidingSync {
 public:
  /// Offsets correlated together, their accumulators held in registers.
  static constexpr std::size_t kBlock = 16;
  /// Offsets per planar chunk of the capture (a multiple of kBlock).
  static constexpr std::size_t kChunk = 1024;
  /// The prefilter only skips when its threshold is at least this, so
  /// hypot's absolute error on subnormal results stays negligible.
  static constexpr double kSkipFloor = 1e-60;

  /// Stores conj(ref) planar and its energy Σ std::norm(ref[k]),
  /// accumulated in double in sample order.
  explicit SlidingSync(std::span<const Cf> ref);

  std::size_t length() const { return re_.size(); }
  double ref_energy() const { return energy_; }

  struct Peak {
    std::size_t offset = 0;  ///< first window start with the best metric
    double metric = 0.0;     ///< 0 when no window has positive metric
  };

  /// Builds of the correlation block.  Both run one templated body over
  /// the same 16 offsets (4 × 4 lanes or 2 × 8 lanes), so they give the
  /// same bits; neither enables FMA.
  enum class Isa { Sse, Avx2 };
  /// Whether this CPU runs `isa` (Sse always; Avx2 only on x86 with it).
  static bool isa_supported(Isa isa);
  /// The block peak(rx) runs: Avx2 where supported, decided once.
  static Isa default_isa();
  static const char* isa_name(Isa isa);  ///< "sse" or "avx2"

  /// Argmax over every window start of rx (rx.size() ≥ length()) of the
  /// normalized correlation metric — bitwise the oracle's best metric
  /// and offset on finite captures.  Scratch comes from the calling
  /// thread's scratch_arena(); the object is read-only, so one instance
  /// may serve many threads.
  Peak peak(std::span<const Cf> rx) const;
  /// peak(rx) on an explicit block build; `isa` must be supported.
  Peak peak(std::span<const Cf> rx, Isa isa) const;

 private:
  std::vector<float> re_;  ///< ref real parts
  std::vector<float> im_;  ///< −ref imaginary parts (conj baked in)
  double energy_ = 0.0;
};

}  // namespace ms::kernels
