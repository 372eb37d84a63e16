// Collision / capture-effect arbitration for many-tag slots.
//
// When several tags backscatter in the same contention slot, a real
// commodity receiver does not simply lose everything: if the strongest
// backscattered signal exceeds the aggregate of the others by a margin
// (the capture threshold), the receiver locks onto it and decodes it
// while the rest land as interference — the capture effect NetScatter
// and every dense-reader RFID deployment leans on.  This module is the
// arbitration core of the fleet world model: per-slot contender powers
// in, a deterministic verdict (idle / clean / captured / collision)
// out.
//
// Determinism rules (pinned by tests/property/capture_property_test.cpp):
//  - The verdict is a pure function of the contender SET: arbitrate()
//    canonicalizes by ascending tag id before any floating-point work,
//    so insertion order cannot change a single output bit.
//  - Ties on received power break toward the lowest tag id — stable
//    identity, never insertion index.
//  - The winner is monotone in the received-power ratio: raising the
//    strongest contender's power (others fixed) never turns a capture
//    into a collision.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace ms::fleet {

/// One tag contending in a slot.
struct Contender {
  std::uint32_t tag_id = 0;     ///< stable fleet-wide identity (unique)
  double rx_power_dbm = -90.0;  ///< backscattered power at the receiver
};

struct CaptureConfig {
  /// Margin (dB) the strongest contender needs over the linear sum of
  /// all other contenders to be captured.  6 dB is the classic
  /// commodity-radio figure; 0 means the strongest always captures.
  double threshold_db = 6.0;

  /// Throws ms::Error naming the knob and value on a non-finite or
  /// negative threshold (construction-time rejection, PR-5 discipline).
  void validate() const;
};

enum class SlotOutcome : std::uint8_t {
  Idle = 0,       ///< no tag transmitted
  Clean = 1,      ///< exactly one contender; decodes against noise only
  Captured = 2,   ///< strongest cleared the margin over the rest
  Collision = 3,  ///< nobody cleared the margin; the slot is lost
};

struct Arbitration {
  SlotOutcome outcome = SlotOutcome::Idle;
  std::uint32_t winner_id = 0;       ///< valid for Clean and Captured
  double winner_power_dbm = -300.0;  ///< strongest contender's power
  double interference_dbm = -300.0;  ///< linear sum of the other contenders
  double sinr_db = 0.0;              ///< winner vs noise + interference
};

/// Arbitrate one slot.  `noise_dbm` is the receiver noise floor in the
/// decode bandwidth.  Contenders may arrive in any order; tag ids must
/// be unique (duplicate ids throw ms::Error).  For Collision slots the
/// winner fields still describe the strongest contender (the one whose
/// failed margin defines the outcome).
Arbitration arbitrate(std::span<const Contender> contenders,
                      const CaptureConfig& cfg, double noise_dbm);

/// Index of the strongest contender in `by_id`, which must be in
/// ascending tag-id order: a strictly-greater scan, so an exact power
/// tie keeps the lowest id.  The winner depends only on the powers,
/// never on the noise floor.  Requires a non-empty span.
std::size_t strongest_contender(std::span<const Contender> by_id);

/// Airtime-overlap loss model shared with the Fig 16 collision study:
/// the fraction of a flow's decode chances lost when it shares air with
/// another flow of duty `other_duty`, with `vulnerability` the fraction
/// of an overlapped packet's chances an overlap destroys (capture
/// leaves partial survivals, so vulnerability < 1).  run_collision()
/// (sim/collision_experiment.h) is this formula applied to two flows —
/// the two-tag special case of the slotted engine.
double airtime_overlap_loss(double other_duty, double vulnerability);

}  // namespace ms::fleet
