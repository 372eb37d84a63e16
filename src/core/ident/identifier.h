// Multiprotocol identification (§2.2.2 / §2.3).
//
// The identifier slides the stored templates over an ADC trace and scores
// each protocol.  Two compute modes mirror the paper's FPGA trade-off:
//   - FullPrecision: Pearson correlation on raw samples (the accuracy
//     ceiling of Fig 5b; needs multipliers, infeasible on the AGLN250).
//   - OneBit: samples thresholded against the L_p-window mean and
//     correlated by sign agreement — the adder-only circuit of Table 2.
// Two decision modes mirror §2.3.2:
//   - Blind: highest score wins (subject to a minimum score).
//   - Ordered: test ZigBee → BLE → 802.11b → 802.11n against per-protocol
//     thresholds and stop at the first hit (Fig 6), exploiting the four
//     signals' different resilience to the lossy pipeline.
#pragma once

#include <array>
#include <optional>

#include "core/ident/templates.h"

namespace ms {

enum class ComputeMode { FullPrecision, OneBit };
enum class DecisionMode { Blind, Ordered };

/// How the OneBit compute mode scores a window.  Packed is the measured
/// fast path: 64 positions per uint64_t word, XOR+popcount correlation
/// (dsp/bitpack.h).  Reference is the original byte-per-position int8
/// loop, kept as the equivalence oracle — both produce bit-identical
/// scores, decisions, and alignment offsets (enforced by
/// tests/property/bitpack_property_test.cpp; measured by
/// bench_ident_throughput).
enum class OneBitKernel { Packed, Reference };

struct IdentifierConfig {
  TemplateParams templates;
  ComputeMode compute = ComputeMode::FullPrecision;
  DecisionMode decision = DecisionMode::Blind;
  OneBitKernel onebit_kernel = OneBitKernel::Packed;
  double blind_min_score = 0.25;  ///< below this, blind matching says "no packet"
  /// Correlation is gated on the energy-detection edge: alignments are
  /// searched only within ±align_search_s of the detected packet onset.
  /// (The FPGA correlates continuously but only acts on a rising-energy
  /// trigger; an unrestricted max over hundreds of alignments would
  /// inflate chance matches.)
  double align_search_s = 1.5e-6;
  /// Absolute trigger level (V): traces whose rectifier output never
  /// reaches this are treated as noise.  Plays the role of the paper's
  /// 0.15 V rectifier threshold (§2.2.1), scaled to this front end's
  /// output range at the low end of the trial amplitude span.
  double min_trigger_v = 0.05;
  /// Ordered-matching thresholds indexed by protocol_index(); defaults
  /// come from the brute-force search the paper describes (§2.3.2) —
  /// see calibrate_ordered_matching() in sim/ident_experiment.h.
  std::array<double, 4> thresholds = {0.55, 0.55, 0.50, 0.45};
  std::array<Protocol, 4> order = {Protocol::Zigbee, Protocol::Ble,
                                   Protocol::WifiB, Protocol::WifiN};
  /// Abstain-and-recover: when the decision margin (best-vs-runner-up
  /// score in blind mode, score-over-threshold in ordered mode) falls
  /// below this, the identifier withholds the verdict instead of
  /// committing to a likely-wrong template.  0 disables abstention
  /// (the seed behaviour).
  double abstain_margin = 0.0;
  /// How quickly a StreamingIdentifier re-arms after an abstained
  /// window, so the tag can sense again instead of sitting out the full
  /// post-classification holdoff.
  double abstain_rearm_s = 8e-6;
};

/// Outcome of one classification, with enough context to act on doubt.
struct IdentDecision {
  std::optional<Protocol> protocol;  ///< empty on no-match or abstain
  std::array<double, 4> scores{};
  double confidence = 0.0;  ///< decision margin the abstain test used
  bool abstained = false;   ///< packet present but verdict withheld
};

class ProtocolIdentifier {
 public:
  explicit ProtocolIdentifier(IdentifierConfig cfg);

  /// Peak sliding-correlation score of each protocol's template over the
  /// trace, indexed by protocol_index().
  std::array<double, 4> scores(std::span<const float> adc_trace) const;

  /// Identify the excitation in the trace; nullopt when nothing matches.
  /// Equivalent to classify().protocol.
  std::optional<Protocol> identify(std::span<const float> adc_trace) const;

  /// Full decision including scores, the decision margin, and whether
  /// the identifier abstained (cfg.abstain_margin > 0 only).
  IdentDecision classify(std::span<const float> adc_trace) const;

  const IdentifierConfig& config() const { return cfg_; }
  const TemplateSet& templates() const { return templates_; }

  /// Detected packet onset: first sample exceeding 40% of the trace's
  /// peak.  Exposed for tests.
  std::size_t detect_onset(std::span<const float> adc_trace) const;

 private:
  double score_one(std::span<const float> trace, std::size_t onset,
                   std::size_t idx) const;

  IdentifierConfig cfg_;
  TemplateSet templates_;
};

}  // namespace ms
