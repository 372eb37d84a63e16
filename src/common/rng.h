// Deterministic pseudo-random number generation.
//
// Every stochastic component in the simulator (AWGN, payload generation,
// packet schedules, Monte-Carlo sweeps) draws from ms::Rng so that whole
// experiments are reproducible from a single seed.  The engine is
// xoshiro256**, which is small, fast, and high quality; it is seeded via
// splitmix64 so that nearby integer seeds produce uncorrelated streams.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"

namespace ms {

/// xoshiro256** engine with convenience draws for the simulator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Raw 64-bit draw (UniformRandomBitGenerator interface).
  std::uint64_t operator()();
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ull; }

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).  Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);
  /// Standard normal draw (Marsaglia polar method, cached spare).
  double normal();
  /// Normal draw with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// out.size() successive standard normal draws: out[k] is bitwise the
  /// k-th of that many normal() calls, and the cached spare is taken on
  /// entry and left behind on exit exactly as those calls would.  Polar
  /// candidates are drawn kNormalBatch at a time, branch-free, and the
  /// accepted ones' independent log/sqrt calls then run back to back.
  void fill_normal(std::span<double> out);
  /// Polar (u, v) candidates per fill_normal block.
  static constexpr std::size_t kNormalBatch = 64;
  /// Bernoulli draw with probability p of returning true.
  bool chance(double p);
  /// Flip each bit (b ^= 1) where chance(p) hits: the same raw draws in
  /// the same order, the same comparisons and the same end state as the
  /// loop `for (b : bits) if (chance(p)) b ^= 1;`, with the state in
  /// locals for the whole span.
  void flip_bits(std::span<std::uint8_t> bits, double p);
  /// out.size() successive uniform() draws: out[k] is bitwise the k-th
  /// of that many calls, and the end state is theirs.
  void fill_uniform(std::span<double> out);
  /// n rounds of `hit = chance(p); z = normal();`, taking the same raw
  /// draws and leaving the same state (cached spare included) as those
  /// calls, but evaluating the polar log/sqrt only for rounds that hit
  /// (and at most once more, for a spare left pending on exit).  Writes
  /// the hit rounds' indices, ascending, to `rounds` and their z to `z`
  /// (each must hold n; n must fit in 32 bits) and returns how many hit.
  std::size_t chance_normal_hits(std::size_t n, double p,
                                 std::span<std::uint32_t> rounds,
                                 std::span<double> z);

  /// Builds of chance_normal_hits_group.  Scalar runs chance_normal_hits
  /// on each stream in turn (the oracle); Avx2 (4 lanes) and Avx512 (8
  /// lanes) run one templated lane body that advances a vector of
  /// streams at once.  All three give the same bits; neither vector
  /// build enables "fma".
  enum class WalkIsa { Scalar, Avx2, Avx512 };
  /// Whether this CPU runs `isa` (Scalar always; the others on x86 only).
  static bool walk_isa_supported(WalkIsa isa);
  /// The widest supported build, decided once.
  static WalkIsa default_walk_isa();
  static const char* walk_isa_name(WalkIsa isa);  ///< "scalar", ...
  /// For each l, the hits of `streams[l].chance_normal_hits(n, p[l], ..)`
  /// run on a copy of that stream (the streams are not advanced).  The
  /// hits are written stream-major: stream l's rounds, ascending, and
  /// their z follow those of streams 0..l-1, and counts[l] is how many
  /// it has.  rounds and z must each hold streams.size() * n; p and
  /// counts one entry per stream; n must fit in 32 bits.  `isa` must be
  /// supported.
  static void chance_normal_hits_group(std::span<const Rng> streams,
                                       std::size_t n,
                                       std::span<const double> p,
                                       std::span<std::uint32_t> rounds,
                                       std::span<double> z,
                                       std::span<std::size_t> counts,
                                       WalkIsa isa = default_walk_isa());
  /// n independent fair bits.
  Bits bits(std::size_t n);
  /// n independent uniform bytes.
  Bytes bytes(std::size_t n);

  /// Derive an independent child generator (for per-trial streams).
  /// Advances this generator's state; successive calls yield different
  /// children.
  Rng fork();

  /// Counter-based stream derivation for parallel sweeps: the child seed
  /// is a hash of (construction seed, point, trial), so the stream for a
  /// given grid cell depends only on those three numbers — never on how
  /// many sibling streams were forked, in what order, or from which
  /// thread.  Does NOT advance this generator's state.
  Rng fork(std::uint64_t point, std::uint64_t trial) const;

  /// The seed this generator was constructed with (identifies the
  /// master stream a forked child derives from).
  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_ = 0;
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace ms
