// fleet_contention: run_scale_trial cells over a slotted-ALOHA fleet.
//
// Packet i is one trial cell of the fleet with kTagCounts[i % 6] tags:
// large fleets run the analytic power-domain tier only; fleets of at
// most 8 tags also render one decoded slot at waveform level (per-tag
// backscatter synthesis through the waveform cache, superposition,
// AWGN, overlay decode of tiny n_sequences = 2 frames).
//
// run_scale_trial's slot loop and waveform probe are private to
// sim/fleet, so the traced cell records the call as one module span,
// named for the cell's tier.
#include <algorithm>
#include <array>

#include "sim/excitation.h"
#include "sim/fleet/scale_experiment.h"
#include "span_trace.h"
#include "workload.h"

namespace pb {
namespace {

using namespace ms;
using namespace ms::fleet;

constexpr std::array<std::size_t, 6> kTagCounts = {1, 2, 4, 8, 256, 1024};
constexpr std::size_t kCorpus = 384;

class FleetContention final : public Workload {
 public:
  void setup(std::uint64_t seed, std::size_t /*threads*/,
             SetupSteps& /*steps*/) override {
    seed_ = seed;
    cfg_ = ScaleConfig{};
    cfg_.excitation = fleet_excitation();
    cfg_.capture.validate();
    fleets_.clear();
    for (std::size_t count : kTagCounts) {
      FleetConfig fc;
      fc.link = cfg_.link;
      fc.excitation = cfg_.excitation;
      fc.capture = cfg_.capture;
      fc.slots_per_trial = cfg_.slots_per_trial;
      fc.fading_stddev_db = cfg_.fading_stddev_db;
      std::vector<TagSpec> specs =
          default_fleet_specs(count, cfg_.min_radius_m, cfg_.max_radius_m);
      const double p =
          std::min(1.0, cfg_.contention_load / static_cast<double>(count));
      for (TagSpec& s : specs) s.tx_probability = p;
      fleets_.emplace_back(fc, std::move(specs));
    }
  }

  std::size_t corpus_size() const override { return kCorpus; }

  CellResult run_cell(std::size_t packet) const override {
    const TagFleet& fleet = fleets_[packet % kTagCounts.size()];
    Rng rng = packet_rng(seed_, packet);
    trace::Scope s(fleet.size() <= cfg_.waveform_probe_max_tags
                       ? Layer::FleetTrialProbe
                       : Layer::FleetTrialAnalytic);
    return result(run_scale_trial(cfg_, fleet, rng));
  }

  std::string check_bands(std::span<const CellResult> pass) const override {
    // Slotted ALOHA at a constant offered load of 2 contenders per slot
    // with capture: a single tag decodes every busy slot, and large
    // fleets still decode a share of busy slots well above plain
    // ALOHA's collision-free share.
    std::array<double, kTagCounts.size()> ok{}, busy{};
    for (std::size_t i = 0; i < pass.size(); ++i) {
      ok[i % kTagCounts.size()] += pass[i].useful;
      busy[i % kTagCounts.size()] += pass[i].outcomes;
    }
    std::string out;
    if (ok[0] != busy[0]) out += "single-tag fleet lost a busy slot; ";
    for (std::size_t k = 1; k < kTagCounts.size(); ++k)
      if (ok[k] / busy[k] < 0.3)
        out += std::to_string(kTagCounts[k]) + "-tag decoded share " +
               std::to_string(ok[k] / busy[k]) + " below 0.3; ";
    return out;
  }

  void layer_metrics(std::span<const CellResult> pass,
                     Metrics& out) const override {
    double busy = 0.0, captured = 0.0, collision = 0.0;
    for (const CellResult& c : pass) {
      busy += c.aux[0];
      captured += c.aux[1];
      collision += c.aux[2];
    }
    out.push_back({"sim.fleet.capture_ratio", captured / busy, "ratio"});
    out.push_back({"sim.fleet.collision_ratio", collision / busy, "ratio"});
  }

 private:
  static CellResult result(const ScaleTrial& t) {
    Digest h;
    h.add(t.tags);
    h.add(t.slots);
    h.add(t.idle);
    h.add(t.clean);
    h.add(t.captured);
    h.add(t.collision);
    h.add(t.sinr_sum_db);
    h.add(t.ber_sum);
    h.add(t.goodput_bits);
    h.add(t.waveform_tag_ber);
    CellResult r;
    r.digest = h.value();
    r.outcomes = t.slots - t.idle;
    r.useful = t.clean + t.captured;
    r.aux[0] = t.slots - t.idle;
    r.aux[1] = t.captured;
    r.aux[2] = t.collision;
    return r;
  }

  std::uint64_t seed_ = 0;
  ScaleConfig cfg_;
  std::vector<TagFleet> fleets_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_contention() {
  return std::make_unique<FleetContention>();
}

}  // namespace pb
