#include "sim/runner/checkpoint.h"

#include <unistd.h>

#include <array>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/error.h"
#include "obs/metrics.h"
#include "sim/runner/thread_pool.h"

namespace ms::ckpt {

namespace {

// --- little scalar encoders (host byte order; the journal is a local
// crash-recovery artifact, not a wire format) --------------------------

void put_u8(std::string& b, std::uint8_t v) {
  b.push_back(static_cast<char>(v));
}

template <typename T>
void put_scalar(std::string& b, T v) {
  char tmp[sizeof(T)];
  std::memcpy(tmp, &v, sizeof(T));
  b.append(tmp, sizeof(T));
}

void put_u16(std::string& b, std::uint16_t v) { put_scalar(b, v); }
void put_u32(std::string& b, std::uint32_t v) { put_scalar(b, v); }
void put_u64(std::string& b, std::uint64_t v) { put_scalar(b, v); }
void put_f64(std::string& b, double v) { put_scalar(b, v); }

void put_str(std::string& b, const char* s) {
  const std::size_t len = s ? std::strlen(s) : 0;
  MS_CHECK_MSG(len <= 0xffff, "checkpoint string field exceeds 65535 bytes");
  put_u16(b, static_cast<std::uint16_t>(len));
  if (len) b.append(s, len);
}

/// Frame `payload` as one journal record appended to `out`.
void append_record(std::string& out, std::uint32_t type,
                   const std::string& payload) {
  put_u32(out, type);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload.data(), payload.size()));
  out += payload;
}

/// Metric kinds are immutable once registered, so cache them per
/// thread: encode_shard runs on every completed cell and must not pay
/// the registry lock + MetricDef copy for every used slot.
obs::MetricKind slot_kind(obs::MetricId id) {
  thread_local std::vector<obs::MetricKind> kinds;
  thread_local std::vector<bool> known;
  if (id >= kinds.size()) {
    kinds.resize(id + 1, obs::MetricKind::Counter);
    known.resize(id + 1, false);
  }
  if (!known[id]) {
    kinds[id] = obs::metric_def(id).kind;
    known[id] = true;
  }
  return kinds[id];
}

/// Serialize one cell's telemetry delta (used slots + events),
/// appending to `b`.
void encode_shard(std::string& b, const obs::TelemetryShard& shard) {
  // Used slots.
  std::uint32_t n_used = 0;
  for (obs::MetricId id = 0; id < shard.slot_span(); ++id)
    if (shard.slot_used(id)) ++n_used;
  put_u32(b, n_used);
  for (obs::MetricId id = 0; id < shard.slot_span(); ++id) {
    if (!shard.slot_used(id)) continue;
    const obs::MetricKind kind = slot_kind(id);
    put_u32(b, id);
    put_u8(b, static_cast<std::uint8_t>(kind));
    switch (kind) {
      case obs::MetricKind::Counter:
        put_u64(b, shard.counter_value(id));
        break;
      case obs::MetricKind::Gauge:
        put_f64(b, shard.gauge_value(id));
        break;
      case obs::MetricKind::Histogram: {
        const auto h = shard.histogram_ref(id);
        put_u32(b, static_cast<std::uint32_t>(h.counts.size()));
        for (std::uint64_t c : h.counts) put_u64(b, c);
        put_f64(b, h.sum);
        put_u64(b, h.n);
        break;
      }
    }
  }
  // Events (strings inline; the loader re-interns them).
  put_u32(b, static_cast<std::uint32_t>(shard.events().size()));
  for (const obs::TraceEvent& ev : shard.events()) {
    put_u32(b, ev.point);
    put_u32(b, ev.trial);
    put_f64(b, ev.sim_time);
    put_u32(b, static_cast<std::uint32_t>(ev.subsys));
    put_u8(b, static_cast<std::uint8_t>(ev.severity));
    put_str(b, ev.name);
    put_u8(b, ev.n_fields);
    for (std::uint8_t i = 0; i < ev.n_fields; ++i) {
      const obs::TraceEvent::Field& f = ev.fields[i];
      put_str(b, f.key);
      put_u8(b, f.str ? 1 : 0);
      if (f.str)
        put_str(b, f.str);
      else
        put_f64(b, f.num);
    }
  }
  put_u64(b, shard.events_dropped());
}

/// One framed CacheKey record for `key`.
std::string encode_cache_key_record(const WaveformKey& key) {
  std::string p;
  put_u8(p, static_cast<std::uint8_t>(key.kind));
  put_u8(p, key.protocol);
  put_u64(p, key.params);
  put_u32(p, static_cast<std::uint32_t>(key.payload.size()));
  p.append(reinterpret_cast<const char*>(key.payload.data()),
           key.payload.size());
  std::string rec;
  append_record(rec, kRecCacheKey, p);
  return rec;
}

/// One framed Cell record appended to `out` (no cache keys; callers
/// prepend those).  Runs once per completed cell, so the payload is
/// staged in a reused thread-local scratch buffer: steady state is
/// allocation-free.
void encode_cell_record(std::string& out, std::uint32_t grid_id,
                        std::uint32_t point, std::uint32_t trial,
                        bool poison, const void* payload,
                        std::size_t payload_bytes,
                        const obs::TelemetryShard& shard) {
  thread_local std::string p;
  p.clear();
  put_u32(p, grid_id);
  put_u32(p, point);
  put_u32(p, trial);
  put_u8(p, poison ? kCellFlagPoison : 0);
  p.append(static_cast<const char*>(payload), payload_bytes);
  encode_shard(p, shard);
  append_record(out, kRecCell, p);
}

/// Snapshot the process metric registry as a framed MetricTable record.
std::string encode_metric_table_record() {
  std::string p;
  const std::size_t n = obs::metric_count();
  put_u32(p, static_cast<std::uint32_t>(n));
  for (obs::MetricId id = 0; id < n; ++id) {
    const obs::MetricDef& def = obs::metric_def(id);
    put_u32(p, id);
    put_u8(p, static_cast<std::uint8_t>(def.kind));
    put_str(p, def.name.c_str());
    put_u32(p, static_cast<std::uint32_t>(def.bounds.size()));
    for (double b : def.bounds) put_f64(p, b);
  }
  std::string rec;
  append_record(rec, kRecMetricTable, p);
  return rec;
}

/// The calling thread's pending [CacheKey...] records for the cell it
/// is currently executing (cleared by note_cell_start, consumed by
/// GridCheckpoint::record).
thread_local std::string tls_pending_keys;

volatile std::sig_atomic_t g_drain_sig = 0;

void drain_handler(int sig) { g_drain_sig = sig; }

}  // namespace

// --- CRC32 ------------------------------------------------------------

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xffffffffu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::uint64_t config_hash(const std::string& program, std::uint64_t seed,
                          std::uint64_t trials, std::uint64_t deadline_ms) {
  std::uint64_t h = fnv1a(program.data(), program.size());
  h = fnv1a(&seed, sizeof(seed), h);
  h = fnv1a(&trials, sizeof(trials), h);
  h = fnv1a(&deadline_ms, sizeof(deadline_ms), h);
  return h;
}

// --- CheckpointSession ------------------------------------------------

CheckpointSession& CheckpointSession::instance() {
  static CheckpointSession s;
  return s;
}

void CheckpointSession::arm(CheckpointConfig cfg,
                            std::optional<RecoveredJournal> recovered) {
  std::lock_guard<std::mutex> lk(mu_);
  MS_CHECK_MSG(!armed_.load(), "checkpoint session is already armed");
  MS_CHECK_MSG(cfg.flush_interval >= 1,
               "CheckpointConfig::flush_interval must be >= 1");
  cfg_ = std::move(cfg);
  pending_.clear();
  buffers_.clear();
  pending_cells_ = 0;
  journaled_cells_.store(0, std::memory_order_relaxed);
  next_grid_id_ = 0;
  epoch_seq_ = 0;
  next_recovered_grid_ = 0;
  recovered_ = recovered ? std::move(*recovered) : RecoveredJournal{};
  armed_.store(true);
}

void CheckpointSession::disarm() {
  std::lock_guard<std::mutex> lk(mu_);
  if (!armed_.load()) return;
  flush_locked();
  close_file_locked();
  armed_.store(false);
  cfg_ = CheckpointConfig{};
  pending_.clear();
  buffers_.clear();
  recovered_ = RecoveredJournal{};
  next_recovered_grid_ = 0;
}

bool CheckpointSession::armed() const { return armed_.load(); }

void CheckpointSession::notify_runner_epoch() {
  if (!armed_.load()) return;
  std::lock_guard<std::mutex> lk(mu_);
  ++epoch_seq_;
}

void CheckpointSession::flush() {
  std::lock_guard<std::mutex> lk(mu_);
  if (armed_.load()) flush_locked();
}

std::string CheckpointSession::path() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cfg_.path;
}

std::string& CheckpointSession::worker_buffer_locked() {
  std::size_t idx = ThreadPool::current_worker();
  if (idx == ThreadPool::kNotAWorker) idx = 0;
  if (idx >= buffers_.size()) buffers_.resize(idx + 1);
  return buffers_[idx];
}

void CheckpointSession::publish_locked() {
  // First flush: publish header + metric-table atomically (tmp write,
  // fsync, rename), then reopen for append.  The rename guarantees a
  // resuming loader never sees a torn header; everything after it is
  // plain appends, where a torn tail is recoverable by design.
  const std::string tmp = cfg_.path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  MS_CHECK_MSG(f != nullptr,
               "cannot open checkpoint tmp file for write: " + tmp);
  std::string head;
  head.append(kMagic, sizeof(kMagic));
  put_u32(head, kVersion);
  put_u64(head, cfg_.config_hash);
  put_u64(head, 0);  // reserved
  table_metrics_ = obs::metric_count();
  head += encode_metric_table_record();
  bool ok = std::fwrite(head.data(), 1, head.size(), f) == head.size();
  ok = ok && std::fflush(f) == 0;
  ok = ok && ::fsync(::fileno(f)) == 0;
  ok = (std::fclose(f) == 0) && ok;
  MS_CHECK_MSG(ok, "checkpoint write failed: " + tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, cfg_.path, ec);
  MS_CHECK_MSG(!ec, "cannot publish checkpoint '" + cfg_.path +
                        "': " + ec.message());
  file_ = std::fopen(cfg_.path.c_str(), "ab");
  MS_CHECK_MSG(file_ != nullptr,
               "cannot reopen checkpoint for append: " + cfg_.path);
}

void CheckpointSession::flush_locked() {
  // Drain per-worker buffers in fixed (worker-index) order so the
  // journal layout is a function of which cells completed, not of which
  // worker's buffer the allocator happened to place first.
  for (std::string& b : buffers_) {
    pending_ += b;
    b.clear();
  }
  pending_cells_ = 0;
  if (cfg_.path.empty()) {  // restore-only session
    pending_.clear();
    return;
  }
  if (!file_) publish_locked();
  // Metrics registered since the last table snapshot (they are lazy —
  // e.g. the poison-cell counter) get a fresh table record ahead of any
  // cell that references them; the loader applies tables in order.
  if (obs::metric_count() != table_metrics_) {
    table_metrics_ = obs::metric_count();
    std::string table = encode_metric_table_record();
    table += pending_;
    pending_ = std::move(table);
  }
  if (pending_.empty()) return;
  FILE* f = static_cast<FILE*>(file_);
  bool ok =
      std::fwrite(pending_.data(), 1, pending_.size(), f) == pending_.size();
  ok = ok && std::fflush(f) == 0;
  MS_CHECK_MSG(ok, "checkpoint append failed: " + cfg_.path);
  pending_.clear();
}

void CheckpointSession::close_file_locked() {
  if (!file_) return;
  FILE* f = static_cast<FILE*>(file_);
  // Full durability only here (and at drain): interval flushes live in
  // the page cache, which survives any process crash; an OS-level crash
  // at worst tears the tail, which the tolerant loader recovers from.
  ::fsync(::fileno(f));
  std::fclose(f);
  file_ = nullptr;
}

void CheckpointSession::install_drain_handlers() {
  std::signal(SIGINT, drain_handler);
  std::signal(SIGTERM, drain_handler);
}

bool CheckpointSession::drain_requested() { return g_drain_sig != 0; }

void CheckpointSession::finish_drain_if_requested() {
  if (g_drain_sig == 0) return;
  const int sig = static_cast<int>(g_drain_sig);
  {
    CheckpointSession& s = instance();
    std::lock_guard<std::mutex> lk(s.mu_);
    if (s.armed_.load()) {
      s.flush_locked();
      s.close_file_locked();  // fsync: the drained journal is durable
    }
  }
  std::fprintf(stderr,
               "checkpoint: drained on signal %d; journal published to "
               "'%s' — resume with --resume\n",
               sig, instance().path().c_str());
  std::_Exit(128 + sig);
}

// --- GridCheckpoint ---------------------------------------------------

GridCheckpoint GridCheckpoint::begin(std::size_t points, std::size_t trials,
                                     std::uint64_t master_seed,
                                     std::size_t payload_bytes) {
  GridCheckpoint g;
  CheckpointSession& s = CheckpointSession::instance();
  if (!s.armed_.load()) return g;
  std::lock_guard<std::mutex> lk(s.mu_);
  g.active_ = true;
  g.grid_id_ = s.next_grid_id_++;
  g.trials_ = trials;
  g.payload_bytes_ = payload_bytes;

  // Grid boundary: drain straggler cells from the previous grid and
  // publish, so a crash between grids loses nothing.
  s.flush_locked();

  std::string p;
  put_u32(p, g.grid_id_);
  put_u32(p, s.epoch_seq_);
  put_u64(p, points);
  put_u64(p, trials);
  put_u64(p, master_seed);
  put_u32(p, static_cast<std::uint32_t>(payload_bytes));
  append_record(s.pending_, kRecGridBegin, p);

  if (s.next_recovered_grid_ < s.recovered_.grids.size()) {
    const RecoveredGrid& rg = s.recovered_.grids[s.next_recovered_grid_];
    auto mismatch = [&](const char* field, std::uint64_t got,
                        std::uint64_t want) {
      throw Error("cannot resume: journal grid " +
                  std::to_string(rg.grid_id) + " " + field + " is " +
                  std::to_string(got) + " but this run expects " +
                  std::to_string(want) +
                  " — the journal came from a different sweep");
    };
    if (rg.grid_id != g.grid_id_) mismatch("grid_id", rg.grid_id, g.grid_id_);
    if (rg.epoch_seq != s.epoch_seq_)
      mismatch("epoch_seq", rg.epoch_seq, s.epoch_seq_);
    if (rg.points != points) mismatch("points", rg.points, points);
    if (rg.trials != trials) mismatch("trials", rg.trials, trials);
    if (rg.master_seed != master_seed)
      mismatch("master_seed", rg.master_seed, master_seed);
    if (rg.cell_payload_bytes != payload_bytes)
      mismatch("cell_payload_bytes", rg.cell_payload_bytes, payload_bytes);
    ++s.next_recovered_grid_;
    g.adopted_ = &rg;
    g.restore_index_.assign(points * trials, kNoCell);
    for (std::size_t i = 0; i < rg.cells.size(); ++i) {
      const RecoveredCell& rc = rg.cells[i];
      const std::size_t idx = rc.point * trials + rc.trial;
      g.restore_index_[idx] = static_cast<std::uint32_t>(i);
      // Pre-mark this cell's miss-attributed keys: the replayed shard
      // already carries their miss + synth_samples counts, so redone
      // cells looking the same keys up must record hits.
      for (const WaveformKey& key : rc.cache_keys)
        WaveformCache::instance().mark_miss_accounted(key);
      // Re-encode the adopted cell into the new journal so the
      // published file is self-contained (a second crash resumes from
      // the union of both runs' progress).
      for (const WaveformKey& key : rc.cache_keys)
        s.pending_ += encode_cache_key_record(key);
      encode_cell_record(s.pending_, g.grid_id_, rc.point, rc.trial,
                         rc.poison, rc.result.data(), rc.result.size(),
                         rc.shard);
    }
    s.journaled_cells_.fetch_add(rg.cells.size(), std::memory_order_relaxed);
    s.flush_locked();
  }
  return g;
}

void GridCheckpoint::restore(std::size_t index, void* payload_out,
                             obs::TelemetryShard* shard,
                             bool* poison) const {
  MS_CHECK(adopted_ != nullptr && index < restore_index_.size() &&
           restore_index_[index] != kNoCell);
  const RecoveredCell& rc = adopted_->cells[restore_index_[index]];
  MS_CHECK(rc.result.size() == payload_bytes_);
  std::memcpy(payload_out, rc.result.data(), payload_bytes_);
  *shard = rc.shard;
  *poison = rc.poison;
}

void GridCheckpoint::record(std::size_t index, const void* payload,
                            const obs::TelemetryShard& shard,
                            bool poison) const {
  if (!active_) return;
  const auto point = static_cast<std::uint32_t>(index / trials_);
  const auto trial = static_cast<std::uint32_t>(index % trials_);
  // [CacheKey...][Cell] is one atomic group: the keys attributed to this
  // cell travel with it, so a torn tail can never orphan an attribution.
  // tls_pending_keys doubles as the staging buffer (its capacity is
  // reused across cells, so steady state allocates nothing).
  std::string& group = tls_pending_keys;
  encode_cell_record(group, grid_id_, point, trial, poison, payload,
                     payload_bytes_, shard);
  CheckpointSession& s = CheckpointSession::instance();
  {
    std::lock_guard<std::mutex> lk(s.mu_);
    if (s.armed_.load()) {
      s.worker_buffer_locked() += group;
      s.journaled_cells_.fetch_add(1, std::memory_order_relaxed);
      if (++s.pending_cells_ >= s.cfg_.flush_interval) s.flush_locked();
    }
  }
  group.clear();
}

void note_cell_start() { tls_pending_keys.clear(); }

void note_cache_miss(const WaveformKey& key) {
  if (!CheckpointSession::instance().armed_.load(std::memory_order_relaxed))
    return;
  tls_pending_keys += encode_cache_key_record(key);
}

}  // namespace ms::ckpt
