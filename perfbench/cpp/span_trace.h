// Span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around calls into
// each layer's public functions; the library is not instrumented.  Each
// span holds its layer, start, end, parent span and the packet it
// belongs to.  Spans stay in per-thread buffers while the run is live
// and are reduced into per-layer self times once it ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// Layers the traced run attributes time to.  `Packet` is the root span
/// of one packet cell; its self time is the benchmark glue no layer
/// covers (reported as `trace.unattributed`).
enum class Layer : std::uint8_t {
  Packet,
  ChannelNoise,
  IdentTrace,
  IdentClassify,
  OverlayFrame,
  OverlayFec,
  OverlayCarrier,
  OverlayTagModulate,
  OverlaySync,
  OverlayDecode,
  FleetTrialAnalytic,
  FleetTrialProbe,
  TagSession,
  kCount
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

/// Metric prefix of each layer ("core.overlay.sync" → ".self_us" etc.).
const char* layer_name(Layer layer);

namespace trace {

/// Recording is off unless a traced pass turns it on; a disabled Scope
/// costs one relaxed load.
bool enabled();
void set_enabled(bool on);

/// Stamp the calling thread's next spans with a packet id.
void set_packet(std::uint64_t packet);

/// Drop every recorded span (all threads).  Call between passes only.
void clear();

class Scope {
 public:
  explicit Scope(Layer layer);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::uint32_t index_ = kNone;
  static constexpr std::uint32_t kNone = ~0u;
};

/// Per-layer reduction of every recorded span.
struct Summary {
  std::array<std::int64_t, kLayerCount> self_ns{};
  std::uint64_t packets = 0;        ///< root Packet spans
  std::int64_t packet_span_ns = 0;  ///< Σ root Packet span durations
  /// Spans whose parent chain does not end in a Packet span, or whose
  /// packet id differs from their parent's (recorder invariants).
  std::uint64_t orphans = 0;
};

/// Reduce all threads' spans.  Self time of a span is its duration minus
/// the time its child spans cover; children of one span never overlap
/// (one thread runs them in sequence), so covered time is the sum of
/// their durations.
Summary summarize();

}  // namespace trace
}  // namespace pb
