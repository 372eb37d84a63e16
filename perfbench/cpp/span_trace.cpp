#include "span_trace.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace pb {

const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, kLayerCount> kNames = {
      "trace.unattributed",        "channel.noise",
      "sim.ident.trace",           "core.ident.classify",
      "core.overlay.frame",        "core.overlay.fec",
      "core.overlay.carrier",      "core.overlay.tag_modulate",
      "core.overlay.sync",         "core.overlay.decode",
      "sim.fleet.trial_analytic",  "sim.fleet.trial_probe",
      "core.tag.session",
  };
  return kNames[static_cast<std::size_t>(layer)];
}

namespace trace {
namespace {

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t packet = 0;
  std::uint32_t parent = ~0u;
  Layer layer = Layer::Packet;
};

struct Buffer {
  std::vector<Span> spans;
  std::vector<std::uint32_t> open;  ///< stack of open span indices
  std::uint64_t packet = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_buffers_m;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by g_buffers_m

Buffer& local_buffer() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(1 << 16);
    buf = owned.get();
    const std::lock_guard<std::mutex> lock(g_buffers_m);
    g_buffers.push_back(std::move(owned));
  }
  return *buf;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void set_packet(std::uint64_t packet) {
  if (enabled()) local_buffer().packet = packet;
}

void clear() {
  const std::lock_guard<std::mutex> lock(g_buffers_m);
  for (auto& b : g_buffers) {
    b->spans.clear();
    b->open.clear();
  }
}

Scope::Scope(Layer layer) {
  if (!enabled()) return;
  Buffer& b = local_buffer();
  index_ = static_cast<std::uint32_t>(b.spans.size());
  Span s;
  s.layer = layer;
  s.packet = b.packet;
  s.parent = b.open.empty() ? ~0u : b.open.back();
  b.open.push_back(index_);
  s.start_ns = now_ns();
  b.spans.push_back(s);
}

Scope::~Scope() {
  if (index_ == kNone) return;
  Buffer& b = local_buffer();
  b.spans[index_].end_ns = now_ns();
  b.open.pop_back();
}

Summary summarize() {
  Summary out;
  const std::lock_guard<std::mutex> lock(g_buffers_m);
  for (const auto& b : g_buffers) {
    const std::vector<Span>& spans = b->spans;
    std::vector<std::int64_t> covered(spans.size(), 0);
    // Parents precede their children in the buffer, so one backward
    // sweep sees every child before its parent.
    for (std::size_t i = spans.size(); i-- > 0;) {
      const Span& s = spans[i];
      const std::int64_t dur = s.end_ns - s.start_ns;
      const auto layer = static_cast<std::size_t>(s.layer);
      out.self_ns[layer] += dur - covered[i];
      if (s.parent != ~0u) {
        covered[s.parent] += dur;
        if (spans[s.parent].packet != s.packet) ++out.orphans;
      } else if (s.layer == Layer::Packet) {
        ++out.packets;
        out.packet_span_ns += dur;
      } else {
        ++out.orphans;
      }
    }
  }
  return out;
}

}  // namespace trace
}  // namespace pb
