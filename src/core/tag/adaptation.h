// NACK-driven link adaptation for the tag's overlay transmissions.
//
// The tag can trade goodput for robustness along two axes: the overlay
// spreading factor γ (majority voting over γ modulatable symbols buys
// ~10·log10(γ) dB of tag-bit SNR) and the FEC repetition factor on top
// of Hamming(7,4).  AdaptivePolicy walks a ladder of (γ, repeats)
// protection levels using an EWMA of the observed NACK rate.
//
// Stepping up is a *probe*, not a commitment: the policy remembers the
// NACK rate that triggered the climb and, one dwell period later, keeps
// the stronger level only if the rate actually improved.  Losses that
// extra protection cannot fix (an interferer stomping whole frames, ACKs
// lost on the feedback channel) would otherwise ratchet the tag into its
// most expensive level and pin it there — instead the probe reverts and
// a cooldown stops the tag from re-probing every few frames.
#pragma once

#include <cstddef>
#include <vector>

namespace ms {

struct ProtectionLevel {
  unsigned gamma = 2;        ///< overlay spreading factor
  unsigned fec_repeats = 1;  ///< repetition factor on the coded bits

  bool operator==(const ProtectionLevel&) const = default;
};

struct AdaptationConfig {
  /// Protection ladder, least → most robust.  γ must stay below the
  /// overlay κ or a sequence carries no tag bits at all.  Each rung must
  /// be a real step: repeat-2 majority voting (ties!) buys almost
  /// nothing over repeat-1, and a near-flat rung stalls probe climbs.
  std::vector<ProtectionLevel> ladder = {{2, 1}, {4, 1}, {4, 3}};
  /// Weight of the newest frame result.  Deliberately slow: a single
  /// NACK from a quiet link must not look like a broken one.
  double ewma_alpha = 0.1;
  double up_threshold = 0.5;     ///< NACK rate above → probe a step up
  double down_threshold = 0.05;  ///< NACK rate below → step down
  /// Frames between level switches.  Long enough to outlast the tail of
  /// a reading framed at the previous level — the judgment must reflect
  /// the probed level, not leftovers from the level it replaced.
  unsigned dwell_min_frames = 24;
  /// A probe keeps its level only if it cut the NACK rate to below
  /// improve_factor × the rate that triggered it.
  double improve_factor = 0.7;
  /// Frames after a probe verdict during which the policy holds still:
  /// after a failed probe it will not probe again (the fault clearly is
  /// not SNR-shaped right now), and after a successful one it will not
  /// step back down into the level that was just drowning.
  unsigned cooldown_frames = 128;
  std::size_t initial_level = 0;
};

class AdaptivePolicy {
 public:
  explicit AdaptivePolicy(AdaptationConfig cfg);

  /// Record one frame outcome (ACK = true) and possibly switch level.
  void on_frame_result(bool delivered);

  const ProtectionLevel& level() const { return cfg_.ladder[level_]; }
  std::size_t level_index() const { return level_; }
  double nack_rate() const { return nack_ewma_; }
  std::size_t switches() const { return switches_; }
  /// A probe is in flight: the last step up has not yet been judged.
  bool probing() const { return probing_; }
  const AdaptationConfig& config() const { return cfg_; }

 private:
  void switch_to(std::size_t level);

  AdaptationConfig cfg_;
  std::size_t level_ = 0;
  double nack_ewma_ = 0.0;
  unsigned dwell_ = 0;
  std::size_t switches_ = 0;
  // Probe state: the level we climbed from and the NACK rate that
  // justified climbing.
  bool probing_ = false;
  std::size_t probe_base_ = 0;
  double probe_baseline_ = 0.0;
  unsigned cooldown_ = 0;
};

}  // namespace ms
