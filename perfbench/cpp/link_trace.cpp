// link_trace: LinkSession::run_trace over the standard_scenarios() traces.
//
// Cell i replays scenario i % 6 against trace i / 6 of that scenario;
// the traces are built from the seed during set-up, so a cell runs only
// the tag link layer (analytic per-slot BER, framing, FEC, ARQ,
// adaptation, energy governor).  A packet is one slot of the trace.
// run_trace's slot loop is private, so the traced cell records it as
// one module span (core.tag.session).
#include <algorithm>

#include "sim/workload/scenarios.h"
#include "span_trace.h"
#include "workload.h"

namespace pb {
namespace {

using namespace ms;

constexpr std::size_t kTracesPerScenario = 64;

class LinkTrace final : public Workload {
 public:
  void setup(std::uint64_t seed, std::size_t /*threads*/,
             SetupSteps& /*steps*/) override {
    seed_ = seed;
    scenarios_ = standard_scenarios();
    traces_.clear();
    for (std::size_t t = 0; t < kTracesPerScenario; ++t)
      for (std::size_t sc = 0; sc < scenarios_.size(); ++sc) {
        Rng rng = packet_rng(seed ^ 0x9e3779b97f4a7c15ull,
                             t * scenarios_.size() + sc);
        traces_.push_back(build_workload(scenarios_[sc].workload, rng));
      }
  }

  std::size_t corpus_size() const override { return traces_.size(); }

  CellResult run_cell(std::size_t packet) const override {
    const WorkloadScenario& s = scenarios_[packet % scenarios_.size()];
    Rng rng = packet_rng(seed_, packet);
    trace::Scope span(Layer::TagSession);
    LinkSession session(s.link);
    return result(session.run_trace(s.n_readings, traces_[packet], rng));
  }

  std::string check_bands(std::span<const CellResult> pass) const override {
    // Each scenario's full degradation stack must hold its survival
    // floor (WorkloadScenario::delivery_floor) over the pass.
    std::vector<double> ok(scenarios_.size()), n(scenarios_.size());
    for (std::size_t i = 0; i < pass.size(); ++i) {
      ok[i % scenarios_.size()] += pass[i].useful;
      n[i % scenarios_.size()] += pass[i].outcomes;
    }
    std::string out;
    for (std::size_t sc = 0; sc < scenarios_.size(); ++sc) {
      const double d = n[sc] == 0.0 ? 0.0 : ok[sc] / n[sc];
      if (d < scenarios_[sc].delivery_floor)
        out += scenarios_[sc].name + " delivery " + std::to_string(d) +
               " below its floor " +
               std::to_string(scenarios_[sc].delivery_floor) + "; ";
    }
    return out;
  }

  void layer_metrics(std::span<const CellResult> pass,
                     Metrics& out) const override {
    double tx = 0.0, retx = 0.0, shed = 0.0, ok = 0.0, offered = 0.0;
    for (const CellResult& c : pass) {
      tx += c.aux[0];
      retx += c.aux[1];
      shed += c.aux[2];
      ok += c.useful;
      offered += c.outcomes;
    }
    const double cells =
        static_cast<double>(std::max<std::size_t>(1, pass.size()));
    out.push_back({"core.tag.retx_ratio", retx / tx, "ratio"});
    out.push_back({"core.tag.delivery_ratio", ok / offered, "ratio"});
    out.push_back({"core.tag.retries_shed", shed / cells, "count/cell"});
  }

 private:
  static CellResult result(const LinkSessionReport& rep) {
    Digest h;
    h.add(rep.slots);
    h.add(rep.slots_deferred);
    h.add(rep.readings_offered);
    h.add(rep.readings_delivered);
    h.add(rep.frames_corrupted);
    h.add(rep.frames_recovered);
    h.add(rep.acks_lost);
    h.add(rep.sender.transmissions);
    h.add(rep.sender.retransmissions);
    h.add(rep.delivered_bytes);
    h.add(rep.mean_gamma);
    h.add(rep.level_switches);
    h.add(rep.brownouts);
    h.add(rep.retries_shed);
    h.add(rep.energy_spent_j);
    CellResult r;
    r.digest = h.value();
    r.packets = static_cast<std::uint32_t>(rep.slots);
    r.useful = static_cast<std::uint32_t>(rep.readings_delivered);
    r.outcomes = static_cast<std::uint32_t>(rep.readings_offered);
    r.aux[0] = static_cast<std::uint32_t>(rep.sender.transmissions);
    r.aux[1] = static_cast<std::uint32_t>(rep.sender.retransmissions);
    r.aux[2] = static_cast<std::uint32_t>(rep.retries_shed);
    return r;
  }

  std::uint64_t seed_ = 0;
  std::vector<WorkloadScenario> scenarios_;
  std::vector<std::vector<SlotConditions>> traces_;
};

}  // namespace

std::unique_ptr<Workload> make_link_trace() {
  return std::make_unique<LinkTrace>();
}

}  // namespace pb
