// Workload interface shared by the benchmark's main loop (main.cpp) and the
// four packet workloads.
//
// A workload owns a corpus of packets generated from the benchmark seed.
// Packet i is one TrialRunner cell; its randomness comes from
// packet_rng(seed, i), so the same seed gives the same inputs in every
// pass, on every path and at any thread count.  Each workload runs a
// packet three ways:
//   - run_cell:        the library's single-call API (timed passes),
//                      with a span around each call;
//   - run_cell_traced: by default run_cell; a workload overrides it to
//                      rebuild a call that hides several layers from
//                      the public functions beneath (traced passes);
//   - run_cell_oracle: run_cell on the scalar oracles (output checks).
// All three must produce the same digest for the same packet.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "sim/runner/waveform_cache.h"

namespace pb {

/// FNV-1a over the bytes of decisions and decoded bits.
class Digest {
 public:
  void bytes(const void* data, std::size_t len) { h_ = ms::fnv1a(data, len, h_); }
  template <typename T>
  void add(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }
  void bits(std::span<const std::uint8_t> b) {
    add(b.size());
    bytes(b.data(), b.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Outcome of one packet cell.
struct CellResult {
  std::uint64_t digest = 0;   ///< decisions + decoded bits of the cell
  std::uint32_t packets = 1;  ///< packets the cell carries
  std::uint32_t useful = 0;   ///< success_ratio numerator
  std::uint32_t outcomes = 0; ///< success_ratio denominator
  /// Workload-defined per-layer counts (see each workload's
  /// layer_metrics for their meaning).
  std::uint32_t aux[3] = {0, 0, 0};
  std::int64_t host_ns = 0;   ///< host time of the cell (main.cpp fills)
  bool failed = false;        ///< the cell threw
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Wall time of the named set-up steps, in seconds.
struct SetupSteps {
  double ident_s = 0.0;    ///< templates + ordered-matching calibration
  double overlay_s = 0.0;  ///< overlay codec / receiver construction
};

inline ms::Rng packet_rng(std::uint64_t seed, std::size_t packet) {
  return ms::Rng(seed).fork(0x70657266ull, packet);
}

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the corpus and everything a pass needs.
  virtual void setup(std::uint64_t seed, std::size_t threads,
                     SetupSteps& steps) = 0;
  virtual std::size_t corpus_size() const = 0;

  virtual CellResult run_cell(std::size_t packet) const = 0;
  virtual CellResult run_cell_traced(std::size_t packet) const {
    return run_cell(packet);
  }
  /// Called once before the oracle checks; main.cpp has already
  /// switched the process-wide oracles (fast path, waveform reuse).
  virtual void prepare_oracle() {}
  virtual CellResult run_cell_oracle(std::size_t packet) const {
    return run_cell(packet);
  }

  /// Paper-shape band check over one pass of the corpus; empty when the
  /// pass sits inside every band.
  virtual std::string check_bands(std::span<const CellResult> pass) const = 0;

  /// Workload-specific per-layer counts and ratios from one pass.
  virtual void layer_metrics(std::span<const CellResult> pass,
                             Metrics& out) const = 0;
};

std::unique_ptr<Workload> make_ident_mix();
std::unique_ptr<Workload> make_overlay_rx();
std::unique_ptr<Workload> make_fleet_contention();
std::unique_ptr<Workload> make_link_trace();

}  // namespace pb
