#include "phy/crc.h"

#include <array>

namespace ms {

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data,
                          std::uint16_t init) {
  std::uint16_t crc = init;
  for (std::uint8_t byte : data) {
    crc ^= static_cast<std::uint16_t>(byte) << 8;
    for (int i = 0; i < 8; ++i)
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
  }
  return crc;
}

std::uint16_t crc16_154(std::span<const std::uint8_t> data) {
  // Reflected CRC-16/CCITT with zero init (a.k.a. CRC-16/KERMIT).
  std::uint16_t crc = 0x0000;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int i = 0; i < 8; ++i)
      crc = (crc & 1) ? static_cast<std::uint16_t>((crc >> 1) ^ 0x8408)
                      : static_cast<std::uint16_t>(crc >> 1);
  }
  return crc;
}

std::uint32_t crc24_ble(std::span<const std::uint8_t> data,
                        std::uint32_t init) {
  std::uint32_t crc = init & 0xffffff;
  for (std::uint8_t byte : data) {
    for (int i = 0; i < 8; ++i) {  // LSB-first over the air
      const std::uint32_t in_bit = (byte >> i) & 1u;
      const std::uint32_t msb = (crc >> 23) & 1u;
      crc = (crc << 1) & 0xffffff;
      if (in_bit ^ msb) crc ^= 0x00065b;
    }
  }
  return crc;
}

std::uint32_t crc32_ieee(std::span<const std::uint8_t> data) {
  std::uint32_t crc = 0xffffffffu;
  for (std::uint8_t byte : data) {
    crc ^= byte;
    for (int i = 0; i < 8; ++i)
      crc = (crc & 1) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
  }
  return ~crc;
}

namespace {

// kCrc8Table[v] is v shifted through the eight bit-serial steps of the
// 0x07 register, so one lookup advances the CRC by a whole byte.
constexpr std::array<std::uint8_t, 256> make_crc8_table() {
  std::array<std::uint8_t, 256> table{};
  for (unsigned v = 0; v < 256; ++v) {
    auto crc = static_cast<std::uint8_t>(v);
    for (int i = 0; i < 8; ++i)
      crc = (crc & 0x80) ? static_cast<std::uint8_t>((crc << 1) ^ 0x07)
                         : static_cast<std::uint8_t>(crc << 1);
    table[v] = crc;
  }
  return table;
}

constexpr std::array<std::uint8_t, 256> kCrc8Table = make_crc8_table();

}  // namespace

std::uint8_t crc8(std::span<const std::uint8_t> data, std::uint8_t init) {
  std::uint8_t crc = init;
  for (std::uint8_t byte : data) crc = kCrc8Table[crc ^ byte];
  return crc;
}

}  // namespace ms
