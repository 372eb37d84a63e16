#include "sim/fleet/capture.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/units.h"

namespace ms::fleet {

void CaptureConfig::validate() const {
  if (!std::isfinite(threshold_db) || threshold_db < 0.0)
    throw Error("CaptureConfig.threshold_db expects a finite non-negative "
                "margin in dB, got " +
                std::to_string(threshold_db));
}

std::size_t strongest_contender(std::span<const Contender> by_id) {
  // Strictly-greater replacement keeps the lowest id on a power tie
  // (stable identity tie-break, not insertion order).
  std::size_t win = 0;
  for (std::size_t i = 1; i < by_id.size(); ++i)
    if (by_id[i].rx_power_dbm > by_id[win].rx_power_dbm) win = i;
  return win;
}

Arbitration arbitrate(std::span<const Contender> contenders,
                      const CaptureConfig& cfg, double noise_dbm) {
  cfg.validate();
  Arbitration a;
  if (contenders.empty()) return a;

  // Canonicalize: every floating-point reduction below runs in
  // ascending tag-id order, so the caller's insertion order is
  // irrelevant down to the last bit.
  std::vector<Contender> sorted(contenders.begin(), contenders.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const Contender& x, const Contender& y) {
              return x.tag_id < y.tag_id;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i)
    if (sorted[i].tag_id == sorted[i - 1].tag_id)
      throw Error("arbitrate: duplicate contender tag id " +
                  std::to_string(sorted[i].tag_id));

  const std::size_t win = strongest_contender(sorted);

  a.winner_id = sorted[win].tag_id;
  a.winner_power_dbm = sorted[win].rx_power_dbm;

  const double noise_mw = std::pow(10.0, noise_dbm / 10.0);
  if (sorted.size() == 1) {
    a.outcome = SlotOutcome::Clean;
    a.sinr_db = a.winner_power_dbm - noise_dbm;
    return a;
  }

  double interference_mw = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i)
    if (i != win)
      interference_mw += std::pow(10.0, sorted[i].rx_power_dbm / 10.0);
  a.interference_dbm = linear_to_db(interference_mw);
  a.sinr_db =
      a.winner_power_dbm - linear_to_db(noise_mw + interference_mw);

  const double margin_db = a.winner_power_dbm - a.interference_dbm;
  a.outcome = margin_db >= cfg.threshold_db ? SlotOutcome::Captured
                                            : SlotOutcome::Collision;
  return a;
}

double airtime_overlap_loss(double other_duty, double vulnerability) {
  return std::min(1.0, vulnerability * other_duty);
}

}  // namespace ms::fleet
