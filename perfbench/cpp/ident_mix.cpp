// ident_mix: Monte-Carlo identification trials over all four protocols
// at the Fig 7 point (10 Msps) and the Fig 8b point (2.5 Msps, extended
// window), 1-bit ordered matching with calibrated thresholds.
//
// Packet i: point i % 2, protocol (i / 2) % 4.  A cell is
// make_ident_trace + ProtocolIdentifier::classify.  make_ident_trace
// draws its excitation through code private to sim/ident_experiment,
// so the traced cell records it as one module span (sim.ident.trace)
// holding PHY synthesis, the waveform cache, channel noise, the front
// end, the rectifier and the ADC.
#include <array>
#include <chrono>

#include "common/error.h"
#include "sim/ident_experiment.h"
#include "span_trace.h"
#include "workload.h"

namespace pb {
namespace {

using namespace ms;

constexpr std::size_t kCorpus = 2048;
constexpr std::size_t kCalibrationTrials = 60;  // per protocol, as Figs 7/8

struct Point {
  const char* name;
  double adc_rate_hz;
  std::size_t preprocess_len;
  std::size_t match_len;
  double min_accuracy;  ///< DESIGN.md §5 band on the ordered average
};

// Fig 7b: ordered matching at 10 Msps ≈ 0.97.  Fig 8b: 2.5 Msps with
// the 40 µs window recovers ≳ 0.93.  Floors leave room for the
// per-seed sampling error of 256 trials per protocol.
constexpr std::array<Point, 2> kPoints = {{
    {"fig7_10msps", 10e6, 20, 60, 0.93},
    {"fig8b_2.5msps_ext", 2.5e6, 20, 80, 0.90},
}};

class IdentMix final : public Workload {
 public:
  void setup(std::uint64_t seed, std::size_t threads,
             SetupSteps& steps) override {
    seed_ = seed;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t k = 0; k < kPoints.size(); ++k) {
      IdentTrialConfig cfg;
      cfg.ident.templates.adc_rate_hz = kPoints[k].adc_rate_hz;
      cfg.ident.templates.preprocess_len = kPoints[k].preprocess_len;
      cfg.ident.templates.match_len = kPoints[k].match_len;
      cfg.ident.compute = ComputeMode::OneBit;
      cfg.threads = threads;
      cfg.seed = seed;
      const OrderedCalibration cal =
          calibrate_ordered_matching(cfg, kCalibrationTrials);
      cfg.ident.decision = DecisionMode::Ordered;
      cfg.ident.order = cal.order;
      cfg.ident.thresholds = cal.thresholds;
      MS_CHECK(!cfg.multipath && !cfg.faults.any_excitation_fault() &&
               !cfg.faults.any_adc_fault());
      cfg_[k] = cfg;
      ident_[k] = std::make_unique<ProtocolIdentifier>(cfg.ident);
    }
    steps.ident_s += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  }

  std::size_t corpus_size() const override { return kCorpus; }

  CellResult run_cell(std::size_t packet) const override {
    return run(packet, *ident_[packet % 2]);
  }

  void prepare_oracle() override {
    for (std::size_t k = 0; k < kPoints.size(); ++k) {
      IdentifierConfig ref = cfg_[k].ident;
      ref.onebit_kernel = OneBitKernel::Reference;
      oracle_[k] = std::make_unique<ProtocolIdentifier>(ref);
    }
  }
  CellResult run_cell_oracle(std::size_t packet) const override {
    return run(packet, *oracle_[packet % 2]);
  }

  std::string check_bands(std::span<const CellResult> pass) const override {
    std::array<std::array<double, 4>, 2> correct{}, total{};
    for (std::size_t i = 0; i < pass.size(); ++i) {
      correct[i % 2][(i / 2) % 4] += pass[i].useful;
      total[i % 2][(i / 2) % 4] += pass[i].outcomes;
    }
    std::string out;
    for (std::size_t k = 0; k < kPoints.size(); ++k) {
      double avg = 0.0;
      for (std::size_t p = 0; p < 4; ++p) avg += correct[k][p] / total[k][p];
      avg /= 4.0;
      if (avg < kPoints[k].min_accuracy)
        out += std::string(kPoints[k].name) + " ordered accuracy " +
               std::to_string(avg) + " below " +
               std::to_string(kPoints[k].min_accuracy) + "; ";
    }
    return out;
  }

  void layer_metrics(std::span<const CellResult> pass,
                     Metrics& out) const override {
    double useful = 0.0, outcomes = 0.0;
    for (const CellResult& c : pass) {
      useful += c.useful;
      outcomes += c.outcomes;
    }
    out.push_back({"core.ident.correct_ratio", useful / outcomes, "ratio"});
  }

 private:
  CellResult run(std::size_t packet, const ProtocolIdentifier& ident) const {
    const std::size_t k = packet % 2;
    const Protocol p = kAllProtocols[(packet / 2) % 4];
    Rng rng = packet_rng(seed_, packet);
    Samples adc;
    {
      trace::Scope s(Layer::IdentTrace);
      adc = make_ident_trace(p, cfg_[k], rng);
    }
    IdentDecision d;
    {
      trace::Scope s(Layer::IdentClassify);
      d = ident.classify(adc);
    }
    CellResult r;
    Digest h;
    h.add(d.protocol ? static_cast<int>(protocol_index(*d.protocol)) : -1);
    h.add(d.scores);
    h.add(d.confidence);
    h.add(d.abstained);
    r.digest = h.value();
    r.outcomes = 1;
    r.useful = d.protocol == p ? 1 : 0;
    return r;
  }

  std::uint64_t seed_ = 0;
  std::array<IdentTrialConfig, 2> cfg_{};
  std::array<std::unique_ptr<ProtocolIdentifier>, 2> ident_;
  std::array<std::unique_ptr<ProtocolIdentifier>, 2> oracle_;
};

}  // namespace

std::unique_ptr<Workload> make_ident_mix() {
  return std::make_unique<IdentMix>();
}

}  // namespace pb
