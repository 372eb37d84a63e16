// Differential suite for the tag link slot loop's in-place rewrites
// (core/tag/link_session.cpp):
//
//   - Rng::flip_bits vs the per-bit `if (chance(p)) b ^= 1;` loop, and
//     Rng::fill_uniform vs successive uniform() calls: the same values,
//     then the same next 16 raw draws;
//   - the table-driven, streaming crc8 vs the bit-serial register;
//   - TagFrame::to_bits/from_bits into reused buffers and FrameCodec
//     (encode-once cache + allocation-free decode) vs the vector code
//     they replaced, for every ladder level, with random flips and
//     truncations.
//
// The oracles below are the replaced loops, kept verbatim apart from
// names.  Whole-session outputs are pinned separately by
// tests/golden/link_session_reports.txt.
#include "diff_harness.h"

#include <limits>
#include <optional>
#include <vector>

#include "common/error.h"
#include "core/overlay/fec.h"
#include "core/overlay/frame.h"
#include "core/tag/adaptation.h"
#include "core/tag/link_session.h"
#include "phy/crc.h"

namespace ms {
namespace {

// ---------------------------------------------------------------- oracles

void oracle_flip_bits(Rng& rng, std::span<uint8_t> bits, double p) {
  for (uint8_t& b : bits)
    if (rng.chance(p)) b ^= 1u;
}

std::uint8_t oracle_crc8(std::span<const std::uint8_t> data) {
  std::uint8_t crc = 0;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int i = 0; i < 8; ++i)
      crc = (crc & 0x80) ? static_cast<std::uint8_t>((crc << 1) ^ 0x07)
                         : static_cast<std::uint8_t>(crc << 1);
  }
  return crc;
}

void push_value(Bits& out, unsigned value, unsigned n_bits) {
  for (unsigned i = 0; i < n_bits; ++i) out.push_back((value >> i) & 1u);
}

unsigned pop_value(std::span<const uint8_t> bits, std::size_t& pos,
                   unsigned n_bits) {
  unsigned v = 0;
  for (unsigned i = 0; i < n_bits; ++i)
    v |= static_cast<unsigned>(bits[pos++] & 1u) << i;
  return v;
}

Bits oracle_to_bits(const TagFrame& f) {
  Bits out;
  out.reserve(TagFrame::frame_bits(f.payload.size()));
  push_value(out, f.tag_id, 4);
  push_value(out, f.sequence, 4);
  push_value(out, f.last_segment ? 1 : 0, 1);
  push_value(out, static_cast<unsigned>(f.payload.size()), 5);
  Bits body;
  for (uint8_t b : f.payload)
    for (int i = 0; i < 8; ++i) body.push_back((b >> i) & 1u);
  out.insert(out.end(), body.begin(), body.end());
  Bytes crc_input = {static_cast<uint8_t>(f.tag_id | (f.sequence << 4)),
                     static_cast<uint8_t>((f.last_segment ? 0x20 : 0) |
                                          f.payload.size())};
  crc_input.insert(crc_input.end(), f.payload.begin(), f.payload.end());
  push_value(out, oracle_crc8(crc_input), 8);
  return out;
}

std::optional<TagFrame> oracle_from_bits(std::span<const uint8_t> bits) {
  if (bits.size() < TagFrame::frame_bits(0)) return std::nullopt;
  std::size_t pos = 0;
  TagFrame f;
  f.tag_id = static_cast<uint8_t>(pop_value(bits, pos, 4));
  f.sequence = static_cast<uint8_t>(pop_value(bits, pos, 4));
  f.last_segment = pop_value(bits, pos, 1) != 0;
  const unsigned len = pop_value(bits, pos, 5);
  if (len > TagFrame::kMaxPayload || bits.size() < TagFrame::frame_bits(len))
    return std::nullopt;
  Bits body(bits.begin() + pos, bits.begin() + pos + len * 8);
  pos += len * 8;
  f.payload.assign(len, 0);
  for (std::size_t i = 0; i < body.size(); ++i)
    if (body[i]) f.payload[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  const unsigned rx_crc = pop_value(bits, pos, 8);
  Bytes crc_input = {static_cast<uint8_t>(f.tag_id | (f.sequence << 4)),
                     static_cast<uint8_t>((f.last_segment ? 0x20 : 0) | len)};
  crc_input.insert(crc_input.end(), f.payload.begin(), f.payload.end());
  if (oracle_crc8(crc_input) != rx_crc) return std::nullopt;
  return f;
}

Bits oracle_hamming_encode(std::span<const uint8_t> data) {
  const auto block = [](const uint8_t* d, Bits& out) {
    const uint8_t p0 = d[0] ^ d[1] ^ d[3];
    const uint8_t p1 = d[0] ^ d[2] ^ d[3];
    const uint8_t p2 = d[1] ^ d[2] ^ d[3];
    const uint8_t cw[7] = {p0, p1, d[0], p2, d[1], d[2], d[3]};
    out.insert(out.end(), cw, cw + 7);
  };
  Bits out;
  std::size_t i = 0;
  for (; i + 4 <= data.size(); i += 4) block(&data[i], out);
  if (i < data.size()) {
    uint8_t last[4] = {0, 0, 0, 0};
    for (std::size_t j = 0; i + j < data.size(); ++j) last[j] = data[i + j];
    block(last, out);
  }
  return out;
}

Bits oracle_hamming_decode(std::span<const uint8_t> coded) {
  MS_CHECK(coded.size() % 7 == 0);
  Bits out;
  for (std::size_t i = 0; i < coded.size(); i += 7) {
    uint8_t cw[7];
    for (int k = 0; k < 7; ++k) cw[k] = coded[i + k] & 1u;
    const unsigned s0 = cw[0] ^ cw[2] ^ cw[4] ^ cw[6];
    const unsigned s1 = cw[1] ^ cw[2] ^ cw[5] ^ cw[6];
    const unsigned s2 = cw[3] ^ cw[4] ^ cw[5] ^ cw[6];
    const unsigned syndrome = s0 | (s1 << 1) | (s2 << 2);
    if (syndrome != 0) cw[syndrome - 1] ^= 1u;
    out.push_back(cw[2]);
    out.push_back(cw[4]);
    out.push_back(cw[5]);
    out.push_back(cw[6]);
  }
  return out;
}

Bits oracle_interleave(std::span<const uint8_t> bits, std::size_t rows) {
  const std::size_t cols = (bits.size() + rows - 1) / rows;
  Bits out;
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t idx = r * cols + c;
      out.push_back(idx < bits.size() ? bits[idx] : 0);
    }
  return out;
}

Bits oracle_deinterleave(std::span<const uint8_t> bits, std::size_t rows) {
  MS_CHECK(bits.size() % rows == 0);
  const std::size_t cols = bits.size() / rows;
  Bits out(bits.size());
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r)
      out[r * cols + c] = bits[c * rows + r];
  return out;
}

Bits oracle_repeat(std::span<const uint8_t> bits, std::size_t factor) {
  Bits out;
  for (uint8_t b : bits) out.insert(out.end(), factor, b);
  return out;
}

Bits oracle_majority(std::span<const uint8_t> bits, std::size_t factor) {
  Bits out;
  for (std::size_t i = 0; i + factor <= bits.size(); i += factor) {
    std::size_t ones = 0;
    for (std::size_t j = 0; j < factor; ++j) ones += bits[i + j];
    out.push_back(2 * ones >= factor ? 1 : 0);
  }
  return out;
}

// LinkSession's encode_frame / decode_frame before the rewrite.
struct OracleCodec {
  bool fec_enabled;
  std::size_t rows;

  Bits encode(const TagFrame& frame, const ProtectionLevel& level) const {
    Bits bits = oracle_to_bits(frame);
    if (fec_enabled) bits = oracle_interleave(oracle_hamming_encode(bits), rows);
    if (level.fec_repeats > 1) bits = oracle_repeat(bits, level.fec_repeats);
    return bits;
  }

  std::optional<TagFrame> decode(std::span<const uint8_t> coded,
                                 const ProtectionLevel& level) const {
    Bits bits(coded.begin(), coded.end());
    if (level.fec_repeats > 1) bits = oracle_majority(bits, level.fec_repeats);
    if (fec_enabled) {
      const std::size_t data_bits = bits.size() / 7 * 4;
      Bits deint = oracle_deinterleave(bits, rows);
      deint.resize((data_bits + 3) / 4 * 7);
      bits = oracle_hamming_decode(deint);
      bits.resize(data_bits);
    }
    return oracle_from_bits(bits);
  }
};

// ---------------------------------------------------------------- helpers

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_raw_draws(Rng& fast, Rng& ref, const std::string& ctx) {
  for (int k = 0; k < 16; ++k)
    ASSERT_EQ(fast(), ref()) << "raw draw " << k << " after (" << ctx << ")";
}

TagFrame random_frame(Rng& rng) {
  TagFrame f;
  f.tag_id = static_cast<uint8_t>(rng.uniform_int(16));
  f.sequence = static_cast<uint8_t>(rng.uniform_int(16));
  f.last_segment = rng.chance(0.5);
  f.payload = rng.bytes(rng.uniform_int(TagFrame::kMaxPayload + 1));
  return f;
}

std::vector<ProtectionLevel> all_levels() {
  std::vector<ProtectionLevel> levels = AdaptationConfig{}.ladder;
  levels.push_back(LinkSessionConfig{}.fixed);
  levels.push_back({2, 2});  // even repeats: majority ties decode as 1
  return levels;
}

// ------------------------------------------------------------- flip_bits

TEST(FlipBitsDiff, MatchesChanceLoopForEveryProbabilityAndLength) {
  const double probabilities[] = {0.0,
                                  -0.0,
                                  std::numeric_limits<double>::denorm_min(),
                                  1e-300,
                                  1e-3,
                                  0.5,
                                  1.0,
                                  1.5,
                                  std::numeric_limits<double>::quiet_NaN()};
  Rng seeder(difftest::kSeed);
  for (double p : probabilities) {
    for (std::size_t n = 0; n <= 1100; ++n) {
      // Arbitrary bytes, not just 0/1: the flip is an XOR of the LSB.
      Bits want = seeder.bytes(n);
      Bits got = want;
      Rng ref(seeder());
      Rng fast = ref;
      oracle_flip_bits(ref, want, p);
      fast.flip_bits(got, p);
      const std::string ctx = "p=" + std::to_string(p) + " n=" +
                              std::to_string(n);
      ASSERT_EQ(got, want) << ctx;
      expect_same_raw_draws(fast, ref, ctx);
    }
  }
}

TEST(FlipBitsDiff, DrawEqualToProbabilityDoesNotFlip) {
  // chance(p) is `uniform() < p`: a draw exactly equal to p is a miss.
  // Pick p as the k-th upcoming draw so the tie really happens.
  Rng seeder(difftest::kSeed + 1);
  for (std::size_t k = 0; k < 64; ++k) {
    Rng ref(seeder());
    Rng peek = ref;
    double p = 0.0;
    for (std::size_t j = 0; j <= k; ++j) p = peek.uniform();
    Rng fast = ref;
    Bits want(k + 8, 0);
    Bits got = want;
    oracle_flip_bits(ref, want, p);
    fast.flip_bits(got, p);
    ASSERT_EQ(want[k], 0) << "oracle flipped on a tie, k=" << k;
    ASSERT_EQ(got, want) << "tie at k=" << k;
    expect_same_raw_draws(fast, ref, "tie k=" + std::to_string(k));
  }
}

TEST(FillUniformDiff, MatchesUniformLoop) {
  Rng seeder(difftest::kSeed + 2);
  for (std::size_t n = 0; n <= 300; ++n) {
    Rng ref(seeder());
    Rng fast = ref;
    std::vector<double> got(n);
    fast.fill_uniform(got);
    for (std::size_t k = 0; k < n; ++k) {
      const double want = ref.uniform();
      ASSERT_TRUE(same_double(got[k], want))
          << "n=" << n << " k=" << k << ": " << got[k] << " vs " << want;
    }
    expect_same_raw_draws(fast, ref, "fill_uniform n=" + std::to_string(n));
  }
}

// ------------------------------------------------------------------ crc8

TEST(Crc8Diff, TableMatchesBitSerialOnEveryOneAndTwoByteInput) {
  for (unsigned a = 0; a < 256; ++a) {
    const uint8_t one[1] = {static_cast<uint8_t>(a)};
    ASSERT_EQ(crc8(one), oracle_crc8(one)) << a;
    for (unsigned b = 0; b < 256; ++b) {
      const uint8_t two[2] = {static_cast<uint8_t>(a), static_cast<uint8_t>(b)};
      ASSERT_EQ(crc8(two), oracle_crc8(two)) << a << "," << b;
    }
  }
}

TEST(Crc8Diff, RandomLengthsAndStreaming) {
  Rng rng(difftest::kSeed + 3);
  for (int trial = 0; trial < 4000; ++trial) {
    const Bytes data = rng.bytes(rng.uniform_int(41));
    ASSERT_EQ(crc8(data), oracle_crc8(data)) << "trial " << trial;
    // Streaming: the CRC of a prefix seeds the CRC of the rest.
    const std::size_t cut = rng.uniform_int(data.size() + 1);
    const std::span<const uint8_t> all(data);
    ASSERT_EQ(crc8(all.subspan(cut), crc8(all.first(cut))), oracle_crc8(data))
        << "trial " << trial << " cut " << cut;
  }
}

// ---------------------------------------------------------- frame codec

TEST(FrameBitsDiff, ToBitsIntoReusedBufferMatchesVectorCode) {
  Rng rng(difftest::kSeed + 4);
  Bits out;
  for (int trial = 0; trial < 3000; ++trial) {
    const TagFrame f = random_frame(rng);
    if (rng.chance(0.3)) out = rng.bytes(rng.uniform_int(400));  // dirty
    f.to_bits(out);
    ASSERT_EQ(out, oracle_to_bits(f)) << "trial " << trial;
    ASSERT_EQ(f.to_bits(), out) << "trial " << trial;
  }
}

TEST(FrameBitsDiff, FromBitsMatchesVectorCodeOnFlipsTruncationsAndJunk) {
  Rng rng(difftest::kSeed + 5);
  TagFrame reused;
  for (int trial = 0; trial < 6000; ++trial) {
    Bits bits;
    if (trial % 5 == 4) {
      // Junk with non-0/1 bit values: the header masks the LSB, the
      // payload treats any non-zero value as a 1.
      bits = rng.bytes(rng.uniform_int(300));
      for (uint8_t& b : bits) b &= 3u;
    } else {
      bits = random_frame(rng).to_bits();
      rng.flip_bits(bits, trial % 3 == 0 ? 0.0 : 0.01);
      if (rng.chance(0.3)) bits.resize(rng.uniform_int(bits.size() + 1));
      if (rng.chance(0.3)) bits.resize(bits.size() + rng.uniform_int(20), 0);
    }
    const std::optional<TagFrame> want = oracle_from_bits(bits);
    const bool ok = TagFrame::from_bits(bits, reused);
    ASSERT_EQ(ok, want.has_value()) << "trial " << trial;
    if (ok) {
      ASSERT_EQ(reused, *want) << "trial " << trial;
    }
    ASSERT_EQ(TagFrame::from_bits(bits), want) << "trial " << trial;
  }
}

/// Decode outcome, with "threw ms::Error" as its own outcome.
struct Outcome {
  bool threw = false;
  std::optional<TagFrame> frame;
  bool operator==(const Outcome&) const = default;
};

template <typename F>
Outcome outcome_of(F&& decode) {
  Outcome o;
  try {
    o.frame = decode();
  } catch (const Error&) {
    o.threw = true;
  }
  return o;
}

TEST(FrameCodecDiff, EncodeDecodeMatchVectorCodeAtEveryLevel) {
  Rng rng(difftest::kSeed + 6);
  for (bool fec : {true, false}) {
    for (std::size_t rows : {std::size_t{7}, std::size_t{5}}) {
      const OracleCodec oracle{fec, rows};
      FrameCodec codec(fec, rows);
      TagFrame rx;
      for (const ProtectionLevel& level : all_levels()) {
        for (int trial = 0; trial < 400; ++trial) {
          const TagFrame f = random_frame(rng);
          const Bits want = oracle.encode(f, level);
          const std::span<const uint8_t> got = codec.encode(f, level);
          ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                                 want.end()))
              << "encode fec=" << fec << " rows=" << rows
              << " gamma=" << level.gamma << " repeats=" << level.fec_repeats
              << " trial " << trial;

          Bits air(got.begin(), got.end());
          rng.flip_bits(air, trial % 4 == 0 ? 0.0 : 0.02 * (trial % 4));
          if (trial % 7 == 3) air.resize(rng.uniform_int(air.size() + 1));
          const Outcome ref =
              outcome_of([&] { return oracle.decode(air, level); });
          const Outcome fast = outcome_of([&]() -> std::optional<TagFrame> {
            if (!codec.decode(air, level, rx)) return std::nullopt;
            return rx;
          });
          ASSERT_EQ(fast, ref)
              << "decode fec=" << fec << " rows=" << rows
              << " gamma=" << level.gamma << " repeats=" << level.fec_repeats
              << " trial " << trial;
        }
      }
    }
  }
}

TEST(FrameCodecDiff, EncodesOnceAndReencodesOnAnyKeyChange) {
  Rng rng(difftest::kSeed + 7);
  const OracleCodec oracle{true, 7};
  FrameCodec codec(true, 7);
  TagFrame scratch;
  const ProtectionLevel base{2, 1};

  const auto check = [&](const TagFrame& f, const ProtectionLevel& level,
                         std::size_t want_encodes, const char* what) {
    const std::span<const uint8_t> got = codec.encode(f, level);
    const Bits want = oracle.encode(f, level);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << what;
    ASSERT_EQ(codec.encodes(), want_encodes) << what;
  };

  TagFrame f = random_frame(rng);
  f.payload = rng.bytes(20);
  check(f, base, 1, "first encode");
  check(f, base, 1, "same frame and level: cached");
  // A decode in between must not disturb the cached bits.
  ASSERT_TRUE(codec.decode(codec.encode(f, base), base, scratch));
  check(f, base, 1, "after a decode");

  TagFrame g = f;
  g.payload[7] ^= 0x10;  // same id, sequence and flag: a new reading
  check(g, base, 2, "payload byte changed");
  g.payload.push_back(0x5a);
  check(g, base, 3, "payload length changed");
  g.sequence ^= 1u;
  check(g, base, 4, "sequence changed");
  g.tag_id ^= 1u;
  check(g, base, 5, "tag id changed");
  g.last_segment = !g.last_segment;
  check(g, base, 6, "last flag changed");
  check(g, {2, 3}, 7, "fec_repeats changed");
  check(g, {4, 3}, 8, "gamma changed");
  check(f, {4, 3}, 9, "back to the first frame");
  check(f, {4, 3}, 9, "cached again");
}

}  // namespace
}  // namespace ms
