// CRC implementations for the four PHYs.
//
//   CRC-16/CCITT  — 802.15.4 FCS and 802.11 PLCP header check
//   CRC-24        — BLE packet CRC (poly 0x00065B, per-channel init)
//   CRC-32        — 802.11 frame check sequence
//   CRC-8         — tag frame check (core/overlay/frame.h)
//
// The PHY CRCs are bit-serial reference implementations; they are not on
// the hot path (waveform synthesis dominates), so clarity wins over
// tables.  CRC-8 checks every tag frame of the link-layer slot loop, so
// it runs from a 256-entry table instead.
#pragma once

#include <cstdint>
#include <span>

namespace ms {

/// CRC-16/CCITT (poly 0x1021), MSB-first, init/xorout configurable.
/// 802.15.4 uses init=0x0000 with LSB-first bit order (see crc16_154).
std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data,
                          std::uint16_t init = 0xffff);

/// 802.15.4 FCS: CRC-16 with poly x^16+x^12+x^5+1, init 0, LSB-first.
std::uint16_t crc16_154(std::span<const std::uint8_t> data);

/// BLE CRC-24, poly 0x00065B, processed LSB-first; `init` is the 24-bit
/// preset (0x555555 for advertising channels).
std::uint32_t crc24_ble(std::span<const std::uint8_t> data,
                        std::uint32_t init = 0x555555);

/// IEEE 802.3/802.11 CRC-32 (reflected, init 0xffffffff, final xor).
std::uint32_t crc32_ieee(std::span<const std::uint8_t> data);

/// CRC-8 (poly 0x07, init 0, MSB-first, no final xor) — integrity check
/// for sensor payloads.  Streams: crc8(b, crc8(a)) is the CRC of a
/// followed by b.
std::uint8_t crc8(std::span<const std::uint8_t> data, std::uint8_t init = 0);

}  // namespace ms
