// Bit- and byte-level utilities shared by every PHY implementation.
//
// A "bit vector" throughout the library is std::vector<uint8_t> holding one
// bit (0 or 1) per element, LSB-first within each source byte unless a
// function says otherwise.  LSB-first matches the over-the-air order of
// 802.11, BLE, and 802.15.4.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace ms {

using Bits = std::vector<uint8_t>;
using Bytes = std::vector<uint8_t>;

/// Unpack bytes into bits, LSB of each byte first (802.11/BLE/802.15.4 air order).
Bits bytes_to_bits_lsb(std::span<const uint8_t> bytes);

/// Unpack bytes into bits, MSB of each byte first.
Bits bytes_to_bits_msb(std::span<const uint8_t> bytes);

/// Pack bits (LSB-first per byte) back into bytes.  Requires size % 8 == 0.
Bytes bits_to_bytes_lsb(std::span<const uint8_t> bits);

/// Pack bits (MSB-first per byte) back into bytes.  Requires size % 8 == 0.
Bytes bits_to_bytes_msb(std::span<const uint8_t> bits);

/// Number of positions where the two equal-length bit vectors differ.
std::size_t hamming_distance(std::span<const uint8_t> a,
                             std::span<const uint8_t> b);

/// Bit error rate between transmitted and received bit vectors.  Compares
/// the common prefix; any length mismatch counts the missing tail as errors.
double bit_error_rate(std::span<const uint8_t> sent,
                      std::span<const uint8_t> received);

/// Element-wise XOR of two equal-length bit vectors.
Bits xor_bits(std::span<const uint8_t> a, std::span<const uint8_t> b);

/// Repeat every bit `factor` times (repetition coding used by tag spreading).
Bits repeat_bits(std::span<const uint8_t> bits, std::size_t factor);
/// repeat_bits into `out` (resized; its capacity is reused).  `out` must
/// not alias `bits`.
void repeat_bits(std::span<const uint8_t> bits, std::size_t factor,
                 Bits& out);

/// Majority vote over consecutive groups of `factor` bits; ties decode as 1.
Bits majority_vote(std::span<const uint8_t> bits, std::size_t factor);
/// majority_vote into `out` (resized; its capacity is reused).  `out`
/// must not alias `bits`.
void majority_vote(std::span<const uint8_t> bits, std::size_t factor,
                   Bits& out);

/// Parse "1011…" into a bit vector.  Throws ms::Error on other characters.
Bits bits_from_string(const std::string& s);

/// Render a bit vector as "1011…".
std::string bits_to_string(std::span<const uint8_t> bits);

/// Hex dump ("a1b2…") of a byte vector.
std::string bytes_to_hex(std::span<const uint8_t> bytes);

/// Reverse the bit order of the low `n` bits of `v`.
std::uint32_t reverse_bits(std::uint32_t v, unsigned n);

}  // namespace ms
