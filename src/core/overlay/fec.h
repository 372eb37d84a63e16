// Forward error correction for tag data (the paper's footnote 8 lists
// FEC as future work on top of repetition/majority voting).
//
// Hamming(7,4) corrects any single bit error per block — a good match
// for tag streams whose errors are sparse symbol-comparison flips — and
// a block interleaver spreads burst errors (e.g. one corrupted sequence)
// across many codewords.
#pragma once

#include <span>

#include "common/bits.h"

namespace ms {

/// Hamming(7,4) encode; output length = ceil(n/4) blocks × 7 bits (the
/// last block is zero-padded).
Bits hamming74_encode(std::span<const uint8_t> data);

/// Decode with single-error correction per 7-bit block.  `coded.size()`
/// must be a multiple of 7; returns 4 data bits per block.
Bits hamming74_decode(std::span<const uint8_t> coded);

/// Rectangular block interleaver: write row-wise into `rows` rows, read
/// column-wise.  Pads with zeros to a whole rectangle.
Bits block_interleave(std::span<const uint8_t> bits, std::size_t rows);

/// Inverse of block_interleave for a bit count that was padded to a
/// whole rectangle (returns the padded length; callers trim).
Bits block_deinterleave(std::span<const uint8_t> bits, std::size_t rows);

// The same four stages writing into `out`, which is resized and keeps
// its capacity from call to call.  `out` must not alias the input.
void hamming74_encode(std::span<const uint8_t> data, Bits& out);
void hamming74_decode(std::span<const uint8_t> coded, Bits& out);
void block_interleave(std::span<const uint8_t> bits, std::size_t rows,
                      Bits& out);
void block_deinterleave(std::span<const uint8_t> bits, std::size_t rows,
                        Bits& out);

/// Convenience tag-data pipeline: Hamming(7,4) + interleaving.
struct TagFec {
  std::size_t interleave_rows = 7;

  Bits encode(std::span<const uint8_t> data) const;
  /// Decode `n_data_bits` original bits from a coded stream.
  Bits decode(std::span<const uint8_t> coded, std::size_t n_data_bits) const;
  /// encode()/decode() into `out`, with `scratch` holding the middle
  /// stage; both keep their capacity across calls and must not alias
  /// the input or each other.
  void encode(std::span<const uint8_t> data, Bits& out, Bits& scratch) const;
  void decode(std::span<const uint8_t> coded, std::size_t n_data_bits,
              Bits& out, Bits& scratch) const;
  /// Coded length for n data bits.
  std::size_t coded_size(std::size_t n_data_bits) const;
};

}  // namespace ms
