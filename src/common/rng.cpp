#include "common/rng.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.h"

namespace ms {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// One xoshiro256** step.  The batch draws run it on a local copy of the
// state so the four words stay in registers across a whole batch.
inline std::uint64_t xoshiro_next(std::uint64_t* s) {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

// uniform() of one raw draw: 53 high bits -> double in [0,1).
inline double unit_double(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// uniform(-1.0, 1.0) of one raw draw, operation for operation.
inline double polar_coord(std::uint64_t x) {
  return -1.0 + 2.0 * unit_double(x);
}

// ---- Lane-parallel contention walk (chance_normal_hits_group) --------
//
// A lane block draws a fixed number of raw draws per stream, all lanes
// at once, and keeps per lane two bitmasks over the draw index j: coin
// bit j is unit_double(x_j) < p, accept bit j is whether the polar pair
// (x_{j-1}, x_j) passes normal()'s test.  A parse then walks each
// lane's rounds on the masks alone: a round that owes no spare takes
// its coin at pos and the first accepted pair ending at pos + 2, pos +
// 4, ..., and the next round takes its coin right after that pair.
// The polar values are kept, so log/sqrt run only for hit rounds.

constexpr std::size_t kWalkMaxDraws = 256;
constexpr std::size_t kWalkMaxWords = kWalkMaxDraws / 64;
constexpr std::size_t kWalkMaxLanes = 8;

// Raw draws per lane in a block.  Two rounds take two coins and on
// average 2 · 4/π polar draws, ≈ 2.27 per round with a standard
// deviation of ≈ 0.84 · sqrt(rounds).  At 64 rounds the block's 168
// draws leave about 1 lane in 600 to finish on the scalar walk.
std::size_t walk_block_draws(std::size_t n) {
  return std::min(kWalkMaxDraws, n / 4 * 9 + 24);
}

// Where a lane left its block: round `round` starts at raw draw `pos`,
// owed the spare `spare` when `pending`.  round == n: it finished.
struct LaneExit {
  std::size_t round = 0;
  std::size_t pos = 0;
  bool pending = false;
  double spare = 0.0;
};

// state: the lanes' xoshiro words, word-major ([4][lanes]); p: one per
// lane.  The first m lanes are walked for n rounds; lane l writes its
// hits at rounds/z + l * n and its count to counts[l].
using WalkFn = void (*)(const std::uint64_t* state, const double* p,
                        std::size_t m, std::size_t n, std::uint32_t* rounds,
                        double* z, std::size_t* counts, LaneExit* exits);

// One body for every lane width.  VU/VD are GCC vector types of
// uint64/double with the same lane count.  Each lane runs xoshiro_next,
// unit_double, the coin compare and polar_coord as the scalar code
// does; lanes are IEEE operations in their own right, and the library
// builds with -ffp-contract=off, so each lane gives the scalar bits.
// kNativeCvt: convert the 53-bit draw with the ISA's exact u64 ->
// double instruction; otherwise assemble the double from its bits.
template <class VU, class VD, bool kNativeCvt>
[[gnu::always_inline]] inline void walk_lanes(
    const std::uint64_t* state, const double* p, std::size_t m,
    std::size_t n, std::uint32_t* rounds, double* z, std::size_t* counts,
    LaneExit* exits) {
  constexpr std::size_t L = sizeof(VU) / sizeof(std::uint64_t);
  static_assert(sizeof(VD) == sizeof(VU) && L <= kWalkMaxLanes);
  const std::size_t draws = walk_block_draws(n);
  const std::size_t words = (draws + 63) / 64;
  alignas(64) double pol[kWalkMaxDraws * L];
  // Lane-major, with one zero word past the last so a 64-bit window
  // read at any drawn index stays inside.
  std::uint64_t coin[L][kWalkMaxWords + 1];
  std::uint64_t acc[L][kWalkMaxWords + 1];

  VU s0, s1, s2, s3;
  std::memcpy(&s0, state + 0 * L, sizeof s0);
  std::memcpy(&s1, state + 1 * L, sizeof s1);
  std::memcpy(&s2, state + 2 * L, sizeof s2);
  std::memcpy(&s3, state + 3 * L, sizeof s3);
  VD pv;
  std::memcpy(&pv, p, sizeof pv);
  const VD zero = {}, one = zero + 1.0;
  VD prev_sq = zero + 2.0;  // no pair ends at draw 0
  for (std::size_t w = 0; w < words; ++w) {
    VU cw = {}, aw = {}, bit = VU{} + 1;
    const std::size_t end = std::min(draws, 64 * w + 64);
    for (std::size_t j = 64 * w; j < end; ++j) {
      // xoshiro_next; * 5 and * 9 as shift-adds (the same mod 2^64).
      const VU m5 = s1 + (s1 << 2);
      const VU rot = (m5 << 7) | (m5 >> 57);
      const VU x = rot + (rot << 3);
      const VU t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = (s3 << 45) | (s3 >> 19);
      // unit_double: (x >> 11) < 2^53 converts exactly and the scale
      // is a power of two.  Without the instruction, 1 + (x >> 12) ·
      // 2^-52 is exact in the mantissa, minus 1 exact, and adding the
      // 53rd bit's 0 or 2^-53 gives a representable, so exact, sum.
      VD d;
      if constexpr (kNativeCvt) {
        d = __builtin_convertvector(x >> 11, VD) * 0x1.0p-53;
      } else {
        const VD hi = (VD)((x >> 12) | 0x3ff0000000000000ull) - 1.0;
        const VD lo = (VD)(-((x >> 11) & 1) & 0x3ca0000000000000ull);
        d = hi + lo;
      }
      cw = d < pv ? cw | bit : cw;
      const VD u = -1.0 + 2.0 * d;  // polar_coord
      const VD sq = u * u;
      const VD q = prev_sq + sq;  // u*u + v*v of the pair ending here
      aw |= (VU)(q < one) & (VU)(q != zero) & bit;
      prev_sq = sq;
      std::memcpy(pol + j * L, &u, sizeof u);
      bit += bit;
    }
    std::uint64_t cws[L], aws[L];
    std::memcpy(cws, &cw, sizeof cw);
    std::memcpy(aws, &aw, sizeof aw);
    for (std::size_t l = 0; l < L; ++l) {
      coin[l][w] = cws[l];
      acc[l][w] = aws[l];
    }
  }
  for (std::size_t l = 0; l < L; ++l) coin[l][words] = acc[l][words] = 0;

  // Bits j, j + 1, ... of a lane's mask: an unaligned 8-byte load at
  // byte j / 8 (the lane builds are x86, so little-endian), shifted.
  // At least 57 bits are valid, and past the drawn ones they read 0.
  // j never exceeds draws + 2, so the load stays inside the pad word.
  const auto bits_from = [](const std::uint64_t* words, std::size_t j) {
    std::uint64_t v;
    std::memcpy(&v, reinterpret_cast<const unsigned char*>(words) + (j >> 3),
                sizeof v);
    return v >> (j & 7);
  };

  // Chain: all lanes' round pairs in one loop, so their independent
  // pos -> window -> ctz -> pos chains overlap.  Round pair k (rounds
  // 2k and 2k + 1) takes its first coin at pos, its polar pair ends at
  // the first accept bit at pos + 2, pos + 4, ... (the window's even
  // bits), e[k], and its second coin is at e[k] + 1.
  const std::size_t pairs = (n + 1) / 2;
  std::uint16_t ends[L][kWalkMaxDraws / 4 + 1];
  std::size_t pos[L] = {}, walked[L] = {};
  bool live[L] = {};
  for (std::size_t l = 0; l < m; ++l) {
    exits[l] = {n, 0, false, 0.0};
    live[l] = true;
  }
  for (std::size_t k = 0; k < pairs; ++k) {
    const bool more = 2 * k + 1 < n;
    for (std::size_t l = 0; l < m; ++l) {
      if (!live[l]) continue;
      const std::size_t from = pos[l] + 2;
      const std::uint64_t win =
          bits_from(acc[l], from) & 0x5555555555555555ull;
      if (win == 0) {  // no pair in the window: leave at round 2k
        exits[l] = {2 * k, pos[l], false, 0.0};
        live[l] = false;
        continue;
      }
      const std::size_t e = from + static_cast<std::size_t>(
                                       std::countr_zero(win));
      ends[l][k] = static_cast<std::uint16_t>(e);
      walked[l] = k + 1;
      pos[l] = e + 2;
      if (more && e + 1 >= draws) {  // round 2k + 1's coin not drawn
        exits[l] = {2 * k + 1, e + 1, true, 0.0};
        live[l] = false;
      }
    }
  }

  // Hits: only a lane with a coin bit in its block can have one.  The
  // log/sqrt run for hit rounds and for a spare owed past the block.
  const auto emit = [&](std::size_t l, std::size_t r, double value) {
    rounds[l * n + counts[l]] = static_cast<std::uint32_t>(r);
    z[l * n + counts[l]++] = value;
  };
  for (std::size_t l = 0; l < m; ++l) {
    counts[l] = 0;
    const auto multiplier = [&](std::size_t e, double& u, double& v) {
      u = pol[(e - 1) * L + l];
      v = pol[e * L + l];
      const double q = u * u + v * v;
      return std::sqrt(-2.0 * std::log(q) / q);
    };
    std::uint64_t any = 0;
    for (std::size_t w = 0; w < words; ++w) any |= coin[l][w];
    for (std::size_t k = 0; any != 0 && k < walked[l]; ++k) {
      const std::size_t at = k == 0 ? 0 : ends[l][k - 1] + 2;
      const std::size_t e = ends[l][k];
      // Past the drawn bits the coin mask reads 0, so a second coin
      // that was never drawn does not hit.
      const bool hit0 = (bits_from(coin[l], at) & 1) != 0;
      const bool hit1 = 2 * k + 1 < n && (bits_from(coin[l], e + 1) & 1) != 0;
      if (!hit0 && !hit1) continue;
      double u, v;
      const double mult = multiplier(e, u, v);
      if (hit0) emit(l, 2 * k, u * mult);
      if (hit1) emit(l, 2 * k + 1, v * mult);
    }
    if (exits[l].pending) {
      double u, v;
      const double mult = multiplier(ends[l][walked[l] - 1], u, v);
      exits[l].spare = v * mult;
    }
  }
}

#if defined(__x86_64__) || defined(__i386__)
#define MS_RNG_LANE_WALK 1
using U4 = std::uint64_t __attribute__((vector_size(32)));
using D4 = double __attribute__((vector_size(32)));
using U8 = std::uint64_t __attribute__((vector_size(64)));
using D8 = double __attribute__((vector_size(64)));

// Neither target names "fma"; AVX-512F has fused forms of its own, and
// -ffp-contract=off keeps the compiler from using them.
__attribute__((target("avx2"))) void walk_lanes_avx2(
    const std::uint64_t* state, const double* p, std::size_t m,
    std::size_t n, std::uint32_t* rounds, double* z, std::size_t* counts,
    LaneExit* exits) {
  walk_lanes<U4, D4, false>(state, p, m, n, rounds, z, counts, exits);
}

__attribute__((target("avx512f,avx512dq"))) void walk_lanes_avx512(
    const std::uint64_t* state, const double* p, std::size_t m,
    std::size_t n, std::uint32_t* rounds, double* z, std::size_t* counts,
    LaneExit* exits) {
  walk_lanes<U8, D8, true>(state, p, m, n, rounds, z, counts, exits);
}
#endif
}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::operator()() { return xoshiro_next(s_); }

double Rng::uniform() { return unit_double((*this)()); }

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  MS_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t v;
  do {
    v = (*this)();
  } while (v >= limit);
  return v % n;
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double m = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * m;
  has_spare_ = true;
  return u * m;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

void Rng::fill_normal(std::span<double> out) {
  const std::size_t n = out.size();
  std::size_t k = 0;
  if (n > 0 && has_spare_) {
    out[k++] = spare_;
    has_spare_ = false;
  }
  double cu[kNormalBatch], cv[kNormalBatch], cs[kNormalBatch],
      cm[kNormalBatch];
  std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
  while (k < n) {
    // A candidate (u, v) yields at most one accepted pair, so drawing
    // no more candidates than pairs still owed never takes a raw draw
    // that the equivalent normal() calls would not have taken.
    const std::size_t owed = (n - k + 1) / 2;
    const std::size_t cands = std::min(kNormalBatch, owed);
    std::size_t acc = 0;
    for (std::size_t j = 0; j < cands; ++j) {
      const double u = polar_coord(xoshiro_next(s));
      const double v = polar_coord(xoshiro_next(s));
      const double q = u * u + v * v;
      cu[acc] = u;  // written unconditionally, kept only if accepted
      cv[acc] = v;
      cs[acc] = q;
      acc += static_cast<std::size_t>((q < 1.0) & (q != 0.0));
    }
    for (std::size_t j = 0; j < acc; ++j)
      cm[j] = std::sqrt(-2.0 * std::log(cs[j]) / cs[j]);
    for (std::size_t j = 0; j < acc; ++j) {
      out[k++] = cu[j] * cm[j];
      if (k < n) {
        out[k++] = cv[j] * cm[j];
      } else {
        spare_ = cv[j] * cm[j];
        has_spare_ = true;
      }
    }
  }
  std::copy(s, s + 4, s_);
}

bool Rng::chance(double p) { return uniform() < p; }

void Rng::flip_bits(std::span<std::uint8_t> bits, double p) {
  std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
  for (std::uint8_t& b : bits)
    b ^= static_cast<std::uint8_t>(unit_double(xoshiro_next(s)) < p);
  std::copy(s, s + 4, s_);
}

void Rng::fill_uniform(std::span<double> out) {
  std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
  for (double& u : out) u = unit_double(xoshiro_next(s));
  std::copy(s, s + 4, s_);
}

std::size_t Rng::chance_normal_hits(std::size_t n, double p,
                                    std::span<std::uint32_t> rounds,
                                    std::span<double> z) {
  MS_CHECK(rounds.size() >= n && z.size() >= n && n <= 0xffffffffull);
  // The spare normal() would return next: known outright when carried
  // in or when its pair was evaluated, else kept as its polar v and q.
  bool pending = has_spare_;
  bool known = true;
  double spare = spare_, pend_v = 0.0, pend_q = 0.0;
  const auto spare_value = [&] {
    return known ? spare
                 : pend_v * std::sqrt(-2.0 * std::log(pend_q) / pend_q);
  };
  std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
  std::size_t hits = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const bool hit = unit_double(xoshiro_next(s)) < p;
    if (pending) {
      pending = false;
      if (hit) {
        rounds[hits] = static_cast<std::uint32_t>(r);
        z[hits++] = spare_value();
      }
      continue;
    }
    double u, v, q;
    do {
      u = polar_coord(xoshiro_next(s));
      v = polar_coord(xoshiro_next(s));
      q = u * u + v * v;
    } while (q >= 1.0 || q == 0.0);
    pending = true;
    if (hit) {
      const double m = std::sqrt(-2.0 * std::log(q) / q);
      rounds[hits] = static_cast<std::uint32_t>(r);
      z[hits++] = u * m;
      spare = v * m;
      known = true;
    } else {
      pend_v = v;
      pend_q = q;
      known = false;
    }
  }
  if (pending) spare_ = spare_value();
  has_spare_ = pending;
  std::copy(s, s + 4, s_);
  return hits;
}

bool Rng::walk_isa_supported(WalkIsa isa) {
  if (isa == WalkIsa::Scalar) return true;
#ifdef MS_RNG_LANE_WALK
  __builtin_cpu_init();
  if (isa == WalkIsa::Avx2) return __builtin_cpu_supports("avx2");
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

Rng::WalkIsa Rng::default_walk_isa() {
  static const WalkIsa isa = walk_isa_supported(WalkIsa::Avx512)
                                 ? WalkIsa::Avx512
                             : walk_isa_supported(WalkIsa::Avx2)
                                 ? WalkIsa::Avx2
                                 : WalkIsa::Scalar;
  return isa;
}

const char* Rng::walk_isa_name(WalkIsa isa) {
  switch (isa) {
    case WalkIsa::Avx2:
      return "avx2";
    case WalkIsa::Avx512:
      return "avx512";
    case WalkIsa::Scalar:
      break;
  }
  return "scalar";
}

void Rng::chance_normal_hits_group(std::span<const Rng> streams,
                                   std::size_t n, std::span<const double> p,
                                   std::span<std::uint32_t> rounds,
                                   std::span<double> z,
                                   std::span<std::size_t> counts,
                                   WalkIsa isa) {
  const std::size_t g = streams.size();
  MS_CHECK(p.size() >= g && counts.size() >= g && n <= 0xffffffffull);
  MS_CHECK(n == 0 || (rounds.size() / n >= g && z.size() / n >= g));
  MS_CHECK(walk_isa_supported(isa));
  const bool wide = isa == WalkIsa::Avx512;
  const std::size_t lanes = wide ? 8 : 4;
  for (std::size_t g0 = 0; g0 < g; g0 += lanes) {
    const std::size_t m = std::min(lanes, g - g0);
    // A lane block costs the same however few of its lanes are used,
    // so a chunk under half full walks one stream at a time.
    if (isa == WalkIsa::Scalar || 2 * m < lanes) {
      for (std::size_t l = g0; l < g0 + m; ++l) {
        Rng walk = streams[l];
        counts[l] = walk.chance_normal_hits(
            n, p[l], rounds.subspan(l * n, n), z.subspan(l * n, n));
      }
      continue;
    }
#ifdef MS_RNG_LANE_WALK
    // Idle lanes walk an all-zero state at p = 0 and are not parsed.
    std::uint64_t state[4 * kWalkMaxLanes] = {};
    double lane_p[kWalkMaxLanes] = {};
    for (std::size_t l = 0; l < m; ++l) {
      for (std::size_t w = 0; w < 4; ++w)
        state[w * lanes + l] = streams[g0 + l].s_[w];
      lane_p[l] = p[g0 + l];
    }
    LaneExit exits[kWalkMaxLanes];
    const WalkFn walk = wide ? walk_lanes_avx512 : walk_lanes_avx2;
    walk(state, lane_p, m, n, rounds.data() + g0 * n, z.data() + g0 * n,
         counts.data() + g0, exits);
    // A lane that left its block finishes on the scalar walk from its
    // own state there; a stream carrying a spare walks there whole.
    for (std::size_t l = 0; l < m; ++l) {
      const Rng& src = streams[g0 + l];
      std::size_t& count = counts[g0 + l];
      LaneExit ex = exits[l];
      if (src.has_spare_) {
        ex = LaneExit{};
        count = 0;
      }
      if (ex.round == n) continue;
      Rng tail = src;
      for (std::size_t j = 0; j < ex.pos; ++j) tail();
      if (ex.pending) {
        tail.spare_ = ex.spare;
        tail.has_spare_ = true;
      }
      const std::size_t at = (g0 + l) * n + count;
      const std::size_t k = tail.chance_normal_hits(
          n - ex.round, lane_p[l], rounds.subspan(at, n - count),
          z.subspan(at, n - count));
      for (std::size_t h = at; h < at + k; ++h)
        rounds[h] += static_cast<std::uint32_t>(ex.round);
      count += k;
    }
#endif
  }
  // Close the stream-major gaps: stream l's hits sit at l * n.
  std::size_t at = 0;
  for (std::size_t l = 0; l < g; ++l) {
    if (at != l * n) {
      std::copy(rounds.begin() + l * n, rounds.begin() + l * n + counts[l],
                rounds.begin() + at);
      std::copy(z.begin() + l * n, z.begin() + l * n + counts[l],
                z.begin() + at);
    }
    at += counts[l];
  }
}

Bits Rng::bits(std::size_t n) {
  Bits out(n);
  for (auto& b : out) b = static_cast<uint8_t>((*this)() & 1u);
  return out;
}

Bytes Rng::bytes(std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>((*this)() & 0xffu);
  return out;
}

Rng Rng::fork() { return Rng((*this)()); }

Rng Rng::fork(std::uint64_t point, std::uint64_t trial) const {
  // Hash (seed, point, trial) through three chained splitmix64 rounds.
  // Each round absorbs one input into the accumulator, so distinct grid
  // cells land on distinct 64-bit child seeds (up to a ~2^-64 birthday
  // chance, see tests/property/rng_property_test.cpp).  The odd
  // constants domain-separate the point and trial counters from each
  // other and from the plain Rng(seed) construction.
  std::uint64_t x = seed_;
  std::uint64_t h = splitmix64(x);
  x ^= point ^ 0xa0761d6478bd642full;
  h ^= splitmix64(x);
  x ^= trial ^ 0xe7037ed1a0b428dbull;
  h ^= splitmix64(x);
  return Rng(h);
}

}  // namespace ms
