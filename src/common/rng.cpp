#include "common/rng.h"

#include <algorithm>
#include <cmath>

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
