#include "common/bits.h"

#include <algorithm>

#include "common/error.h"

namespace ms {

Bits bytes_to_bits_lsb(std::span<const uint8_t> bytes) {
  Bits out;
  out.reserve(bytes.size() * 8);
  for (uint8_t b : bytes)
    for (int i = 0; i < 8; ++i) out.push_back((b >> i) & 1u);
  return out;
}

Bits bytes_to_bits_msb(std::span<const uint8_t> bytes) {
  Bits out;
  out.reserve(bytes.size() * 8);
  for (uint8_t b : bytes)
    for (int i = 7; i >= 0; --i) out.push_back((b >> i) & 1u);
  return out;
}

Bytes bits_to_bytes_lsb(std::span<const uint8_t> bits) {
  MS_CHECK(bits.size() % 8 == 0);
  Bytes out(bits.size() / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) out[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
  return out;
}

Bytes bits_to_bytes_msb(std::span<const uint8_t> bits) {
  MS_CHECK(bits.size() % 8 == 0);
  Bytes out(bits.size() / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) out[i / 8] |= static_cast<uint8_t>(1u << (7 - i % 8));
  return out;
}

std::size_t hamming_distance(std::span<const uint8_t> a,
                             std::span<const uint8_t> b) {
  MS_CHECK(a.size() == b.size());
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d += (a[i] != b[i]) ? 1 : 0;
  return d;
}

double bit_error_rate(std::span<const uint8_t> sent,
                      std::span<const uint8_t> received) {
  if (sent.empty()) return 0.0;
  const std::size_t n = std::min(sent.size(), received.size());
  std::size_t errors = sent.size() - n;  // missing tail counts as errors
  for (std::size_t i = 0; i < n; ++i) errors += (sent[i] != received[i]) ? 1 : 0;
  return static_cast<double>(errors) / static_cast<double>(sent.size());
}

Bits xor_bits(std::span<const uint8_t> a, std::span<const uint8_t> b) {
  MS_CHECK(a.size() == b.size());
  Bits out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] ^ b[i];
  return out;
}

Bits repeat_bits(std::span<const uint8_t> bits, std::size_t factor) {
  Bits out;
  repeat_bits(bits, factor, out);
  return out;
}

void repeat_bits(std::span<const uint8_t> bits, std::size_t factor,
                 Bits& out) {
  MS_CHECK(factor >= 1);
  out.clear();
  out.reserve(bits.size() * factor);
  for (uint8_t b : bits) out.insert(out.end(), factor, b);
}

Bits majority_vote(std::span<const uint8_t> bits, std::size_t factor) {
  Bits out;
  majority_vote(bits, factor, out);
  return out;
}

void majority_vote(std::span<const uint8_t> bits, std::size_t factor,
                   Bits& out) {
  MS_CHECK(factor >= 1);
  out.clear();
  out.reserve(bits.size() / factor);
  for (std::size_t i = 0; i + factor <= bits.size(); i += factor) {
    std::size_t ones = 0;
    for (std::size_t j = 0; j < factor; ++j) ones += bits[i + j];
    out.push_back(2 * ones >= factor ? 1 : 0);
  }
}

Bits bits_from_string(const std::string& s) {
  Bits out;
  out.reserve(s.size());
  for (char c : s) {
    MS_CHECK_MSG(c == '0' || c == '1', "bit strings may contain only 0/1");
    out.push_back(c == '1' ? 1 : 0);
  }
  return out;
}

std::string bits_to_string(std::span<const uint8_t> bits) {
  std::string s;
  s.reserve(bits.size());
  for (uint8_t b : bits) s.push_back(b ? '1' : '0');
  return s;
}

std::string bytes_to_hex(std::span<const uint8_t> bytes) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  s.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    s.push_back(digits[b >> 4]);
    s.push_back(digits[b & 0xf]);
  }
  return s;
}

std::uint32_t reverse_bits(std::uint32_t v, unsigned n) {
  MS_CHECK(n >= 1 && n <= 32);
  std::uint32_t r = 0;
  for (unsigned i = 0; i < n; ++i)
    if (v & (1u << i)) r |= 1u << (n - 1 - i);
  return r;
}

}  // namespace ms
