// overlay_rx: single-tag full-packet overlay receive.
//
// Packet i: protocol i % 4 on its Table 4 excitation packet
// (sim/excitation.h), a drawn tag distance, a drawn sensor reading and
// a drawn leading-noise offset.  The distance is uniform over the span
// the Fig 13 LoS sweep (los_sweep_config) finds decodable for the
// protocol, and the packet's SNR is that link budget's at the distance.
// Each packet carries the lowest Table-6 overlay mode whose tag capacity
// holds a FEC-coded frame of a 1-byte reading; the reading size is
// drawn up to what that capacity holds.
// A 300-byte 802.11n packet holds no FEC-coded frame in any mode, so it
// carries the lowest mode that holds the frame uncoded.
//   segment_reading → TagFec::encode → make_carrier → tag_modulate →
//   assemble_packet (+ leading offset) → add_awgn →
//   OverlayReceiver::receive → TagFec::decode → FrameAssembler (CRC).
// The traced cell replaces receive with synchronize + OverlayCodec::decode.
#include <algorithm>
#include <array>
#include <chrono>

#include "channel/awgn.h"
#include "common/error.h"
#include "core/overlay/fec.h"
#include "core/overlay/frame.h"
#include "core/overlay/receiver.h"
#include "sim/excitation.h"
#include "sim/range_experiment.h"
#include "sim/runner/thread_pool.h"
#include "span_trace.h"
#include "workload.h"

namespace pb {
namespace {

using namespace ms;

constexpr std::size_t kCorpus = 256;
constexpr std::uint8_t kTagId = 5;
constexpr double kMinMetric = 0.5;  // OverlayReceiver's default

/// One protocol's transmit/receive configuration: its excitation packet
/// length and the overlay mode that packet carries.
struct Shape {
  std::size_t n_sequences;
  std::size_t max_reading_bytes;
  bool fec;  ///< frame is Hamming(7,4) + interleaved
  /// One receiver per pool worker: the PHY demodulators fill lazy
  /// reference caches, so an instance must not be shared across threads.
  std::vector<std::unique_ptr<OverlayReceiver>> rx;
};

/// Largest reading (bytes) whose frame, FEC-coded or not, fits
/// `capacity` tag bits.
std::size_t max_reading_bytes(bool coded, std::size_t capacity) {
  const TagFec fec;
  std::size_t best = 0;
  for (std::size_t b = 1; b <= TagFrame::kMaxPayload; ++b) {
    const std::size_t bits = TagFrame::frame_bits(b);
    if ((coded ? fec.coded_size(bits) : bits) <= capacity) best = b;
  }
  return best;
}

class OverlayRx final : public Workload {
 public:
  void setup(std::uint64_t seed, std::size_t threads,
             SetupSteps& steps) override {
    seed_ = seed;
    threads_ = threads;
    const auto t0 = std::chrono::steady_clock::now();
    // The Table 4 excitation packets of sim/excitation.h.
    for (Protocol p : kAllProtocols)
      shapes_[protocol_index(p)] =
          make_shape(p, table4_excitation(p).payload_symbols());
    los_ = los_sweep_config();
    los_.threads = 1;
    for (Protocol p : kAllProtocols) {
      double far = 0.0;
      for (const RangePoint& pt : range_sweep(p, los_))
        if (pt.decodable) far = pt.distance_m;
      MS_CHECK(far > los_.step_m);
      max_distance_m_[protocol_index(p)] = far;
    }
    steps.overlay_s += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  }

  std::size_t corpus_size() const override { return kCorpus; }

  CellResult run_cell(std::size_t packet) const override {
    return run(packet, false);
  }
  CellResult run_cell_traced(std::size_t packet) const override {
    return run(packet, true);
  }

  std::string check_bands(std::span<const CellResult> pass) const override {
    // Every protocol must deliver most readings across its SNR range
    // (the overlay link works from one packet on one radio, §2.4).
    std::array<double, 4> ok{}, n{};
    for (std::size_t i = 0; i < pass.size(); ++i) {
      ok[i % 4] += pass[i].useful;
      n[i % 4] += pass[i].outcomes;
    }
    std::string out;
    for (std::size_t p = 0; p < 4; ++p)
      if (ok[p] / n[p] < 0.8)
        out += std::string(protocol_name(kAllProtocols[p])) +
               " reading delivery " + std::to_string(ok[p] / n[p]) +
               " below 0.8; ";
    return out;
  }

  void layer_metrics(std::span<const CellResult> pass,
                     Metrics& out) const override {
    double sync_fail = 0.0, crc_ok = 0.0;
    for (const CellResult& c : pass) {
      sync_fail += c.aux[0];
      crc_ok += c.aux[1];
    }
    const double n = static_cast<double>(std::max<std::size_t>(1, pass.size()));
    out.push_back({"core.overlay.sync_fail_ratio", sync_fail / n, "ratio"});
    out.push_back({"core.overlay.crc_ok_ratio", crc_ok / n, "ratio"});
  }

 private:
  Shape make_shape(Protocol p, std::size_t payload_symbols) const {
    for (bool coded : {true, false})
      for (OverlayMode mode :
           {OverlayMode::Mode1, OverlayMode::Mode2, OverlayMode::Mode3}) {
        const OverlayParams params = mode_params(p, mode, payload_symbols);
        const std::size_t n_seq =
            std::max<std::size_t>(1, payload_symbols / params.kappa);
        const std::size_t capacity = n_seq * params.tag_bits_per_sequence();
        const std::size_t max_bytes = max_reading_bytes(coded, capacity);
        if (max_bytes == 0) continue;
        Shape shape{n_seq, max_bytes, coded, {}};
        for (std::size_t t = 0; t < threads_; ++t)
          shape.rx.push_back(std::make_unique<OverlayReceiver>(p, params));
        return shape;
      }
    throw Error("no overlay mode carries a framed reading");
  }

  CellResult run(std::size_t packet, bool traced) const {
    const std::size_t p = packet % 4;
    Rng rng = packet_rng(seed_, packet);
    const Shape& shape = shapes_[p];
    const double snr_db = los_.link.snr_db(
        rng.uniform(los_.step_m, max_distance_m_[p]), kAllProtocols[p]);
    const std::size_t reading_bytes =
        1 + rng.uniform_int(shape.max_reading_bytes);
    const Bytes reading = rng.bytes(reading_bytes);
    const std::size_t worker = ThreadPool::current_worker();
    MS_CHECK(worker < shape.rx.size());
    const OverlayReceiver& rx = *shape.rx[worker];
    const OverlayCodec& codec = rx.codec();
    const std::size_t offset =
        rng.uniform_int(4 * rx.preamble_samples() + 1);

    const TagFec fec;
    Bits frame_bits;
    {
      trace::Scope s(Layer::OverlayFrame);
      const std::vector<TagFrame> frames = segment_reading(
          kTagId, reading, TagFrame::frame_bits(shape.max_reading_bytes));
      MS_CHECK(frames.size() == 1);
      frame_bits = frames.front().to_bits();
    }
    Bits coded = frame_bits;
    if (shape.fec) {
      trace::Scope s(Layer::OverlayFec);
      coded = fec.encode(frame_bits);
    }
    const Bits productive = rng.bits(shape.n_sequences *
                                     codec.productive_bits_per_sequence());
    Iq carrier;
    {
      trace::Scope s(Layer::OverlayCarrier);
      carrier = codec.make_carrier(productive);
    }
    Iq backscatter;
    {
      trace::Scope s(Layer::OverlayTagModulate);
      backscatter = codec.tag_modulate(carrier, coded);
    }
    Iq air(offset, Cf(0.0f, 0.0f));
    {
      // Packet assembly (preamble + tag-modulated carrier) is the
      // transmit side of the carrier layer.
      trace::Scope s(Layer::OverlayCarrier);
      const Iq pkt = rx.assemble_packet(backscatter);
      air.insert(air.end(), pkt.begin(), pkt.end());
    }
    Iq capture;
    {
      trace::Scope s(Layer::ChannelNoise);
      capture = add_awgn(air, snr_db, rng);
    }

    CellResult r;
    r.outcomes = 1;
    std::optional<OverlayDecoded> decoded;
    if (traced) {
      std::optional<SyncResult> sync;
      {
        trace::Scope s(Layer::OverlaySync);
        sync = rx.synchronize(capture, kMinMetric);
      }
      if (!sync || sync->payload_start >= capture.size()) {
        r.aux[0] = 1;
      } else {
        trace::Scope s(Layer::OverlayDecode);
        try {
          decoded = codec.decode(
              std::span<const Cf>(capture).subspan(sync->payload_start),
              shape.n_sequences);
        } catch (const Error&) {
          decoded.reset();
        }
      }
    } else {
      decoded = rx.receive(capture, shape.n_sequences, kMinMetric);
      if (!decoded) r.aux[0] = 1;
    }

    Digest h;
    h.add(decoded.has_value());
    if (decoded) {
      h.bits(decoded->productive);
      h.bits(decoded->tag);
      const std::size_t n_coded = std::min(coded.size(), decoded->tag.size());
      const auto received =
          std::span<const std::uint8_t>(decoded->tag).first(n_coded);
      Bits data(received.begin(), received.end());
      if (shape.fec) {
        trace::Scope s(Layer::OverlayFec);
        data = fec.decode(received, frame_bits.size());
      }
      trace::Scope s(Layer::OverlayFrame);
      const std::optional<TagFrame> frame = TagFrame::from_bits(data);
      if (frame) {
        r.aux[1] = 1;
        FrameAssembler assembler;
        const std::optional<Bytes> got = assembler.push(*frame);
        r.useful = got && *got == reading ? 1 : 0;
      }
    }
    h.add(r.aux[1]);
    h.add(r.useful);
    r.digest = h.value();
    return r;
  }

  std::uint64_t seed_ = 0;
  std::size_t threads_ = 1;
  std::array<Shape, 4> shapes_;
  RangeSweepConfig los_;
  std::array<double, 4> max_distance_m_{};  ///< last decodable LoS point
};

}  // namespace

std::unique_ptr<Workload> make_overlay_rx() {
  return std::make_unique<OverlayRx>();
}

}  // namespace pb
