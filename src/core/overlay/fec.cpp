#include "core/overlay/fec.h"

#include "common/error.h"

namespace ms {

namespace {

// Generator: data bits d0..d3, parity p0 = d0^d1^d3, p1 = d0^d2^d3,
// p2 = d1^d2^d3; codeword order [p0 p1 d0 p2 d1 d2 d3] (systematic
// Hamming with syndrome = error position).
void encode_block(const uint8_t* d, uint8_t* out) {
  out[0] = d[0] ^ d[1] ^ d[3];
  out[1] = d[0] ^ d[2] ^ d[3];
  out[2] = d[0];
  out[3] = d[1] ^ d[2] ^ d[3];
  out[4] = d[1];
  out[5] = d[2];
  out[6] = d[3];
}

void decode_block(const uint8_t* c, uint8_t* out) {
  // Syndrome bits: s0 checks positions 1,3,5,7; s1: 2,3,6,7; s2: 4..7
  // (1-indexed); the syndrome value is the error position.
  uint8_t cw[7];
  for (int i = 0; i < 7; ++i) cw[i] = c[i] & 1u;
  const unsigned s0 = cw[0] ^ cw[2] ^ cw[4] ^ cw[6];
  const unsigned s1 = cw[1] ^ cw[2] ^ cw[5] ^ cw[6];
  const unsigned s2 = cw[3] ^ cw[4] ^ cw[5] ^ cw[6];
  const unsigned syndrome = s0 | (s1 << 1) | (s2 << 2);
  if (syndrome != 0) cw[syndrome - 1] ^= 1u;  // correct the flagged bit
  out[0] = cw[2];
  out[1] = cw[4];
  out[2] = cw[5];
  out[3] = cw[6];
}

}  // namespace

Bits hamming74_encode(std::span<const uint8_t> data) {
  Bits out;
  hamming74_encode(data, out);
  return out;
}

void hamming74_encode(std::span<const uint8_t> data, Bits& out) {
  out.resize((data.size() + 3) / 4 * 7);
  uint8_t* o = out.data();
  std::size_t i = 0;
  for (; i + 4 <= data.size(); i += 4, o += 7) encode_block(&data[i], o);
  if (i < data.size()) {
    uint8_t last[4] = {0, 0, 0, 0};
    for (std::size_t j = 0; i + j < data.size(); ++j) last[j] = data[i + j];
    encode_block(last, o);
  }
}

Bits hamming74_decode(std::span<const uint8_t> coded) {
  Bits out;
  hamming74_decode(coded, out);
  return out;
}

void hamming74_decode(std::span<const uint8_t> coded, Bits& out) {
  MS_CHECK(coded.size() % 7 == 0);
  out.resize(coded.size() / 7 * 4);
  uint8_t* o = out.data();
  for (std::size_t i = 0; i < coded.size(); i += 7, o += 4)
    decode_block(&coded[i], o);
}

Bits block_interleave(std::span<const uint8_t> bits, std::size_t rows) {
  Bits out;
  block_interleave(bits, rows, out);
  return out;
}

void block_interleave(std::span<const uint8_t> bits, std::size_t rows,
                      Bits& out) {
  MS_CHECK(rows >= 1);
  const std::size_t cols = (bits.size() + rows - 1) / rows;
  out.resize(rows * cols);
  std::size_t k = 0;
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t idx = r * cols + c;
      out[k++] = idx < bits.size() ? bits[idx] : 0;
    }
}

Bits block_deinterleave(std::span<const uint8_t> bits, std::size_t rows) {
  Bits out;
  block_deinterleave(bits, rows, out);
  return out;
}

void block_deinterleave(std::span<const uint8_t> bits, std::size_t rows,
                        Bits& out) {
  MS_CHECK(rows >= 1);
  MS_CHECK(bits.size() % rows == 0);
  const std::size_t cols = bits.size() / rows;
  out.resize(bits.size());
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r)
      out[r * cols + c] = bits[c * rows + r];
}

std::size_t TagFec::coded_size(std::size_t n_data_bits) const {
  const std::size_t blocks = (n_data_bits + 3) / 4;
  const std::size_t coded = blocks * 7;
  const std::size_t cols = (coded + interleave_rows - 1) / interleave_rows;
  return interleave_rows * cols;
}

Bits TagFec::encode(std::span<const uint8_t> data) const {
  Bits out, scratch;
  encode(data, out, scratch);
  return out;
}

Bits TagFec::decode(std::span<const uint8_t> coded,
                    std::size_t n_data_bits) const {
  Bits out, scratch;
  decode(coded, n_data_bits, out, scratch);
  return out;
}

void TagFec::encode(std::span<const uint8_t> data, Bits& out,
                    Bits& scratch) const {
  hamming74_encode(data, scratch);
  block_interleave(scratch, interleave_rows, out);
}

void TagFec::decode(std::span<const uint8_t> coded, std::size_t n_data_bits,
                    Bits& out, Bits& scratch) const {
  block_deinterleave(coded, interleave_rows, scratch);
  scratch.resize((n_data_bits + 3) / 4 * 7);  // drop interleaver padding
  hamming74_decode(scratch, out);
  out.resize(n_data_bits);
}

}  // namespace ms
