// Benchmark binary: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Set-up (corpus, templates, calibration, codecs, fleets, traces, the
// trial runner and a warm-up pass) runs several times and reports the
// median as setup_s.  The timed phase then runs closed-loop passes
// over the packet corpus on one TrialRunner (at most 4 threads; a
// worker starts its next packet cell only when the previous one has
// finished) until S seconds have elapsed.  Every pass starts from an
// empty waveform cache, so a pass models one sweep of a cold process
// and memory does not grow with run length.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 alternates
// untraced and traced passes and prints the per-layer metrics: span
// self times per packet cell, counters, runner balance and the tracing
// overhead.
//
// Output checks (outside the timed phase) feed `failed` and `correct`:
//   - every pass, traced passes included, reproduces the first pass's
//     per-packet digests bit for bit;
//   - a 1-thread pass gives the same digests and tallies;
//   - a fixed sample re-run on the scalar oracles (fast path off,
//     OneBitKernel::Reference, waveform reuse off) gives the same
//     digests;
//   - success shares sit inside the paper-shape bands;
//   - traced runs: per-layer self times plus the unattributed
//     remainder sum to the packet spans exactly (a rebuilt call chain
//     is held to the single call by the per-packet digests above).
// The last stdout line is one JSON object; the exit code is 0 only
// when every check passed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>
#include <string>
#include <vector>

#include "dsp/iq.h"
#include "dsp/kernels/config.h"
#include "sim/runner/thread_pool.h"
#include "sim/runner/trial_runner.h"
#include "sim/runner/waveform_cache.h"
#include "span_trace.h"
#include "workload.h"

namespace pb {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up repeats at least kMinSetupReps times, and cheap set-ups repeat
// up to kMaxSetupReps times while the repetitions total under
// kSetupBudgetS, so the median is not one noisy sample.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 9;
constexpr double kSetupBudgetS = 1.5;
// Latency percentiles are taken per window of whole passes holding at
// least this many cells (so p99 has >= 10 samples beyond it), and the
// median over windows is reported.
constexpr std::size_t kWindowCells = 1000;
constexpr std::size_t kOracleSample = 96;
constexpr std::size_t kMaxThreads = 4;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an ascending vector.
double percentile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Median over windows of consecutive passes of each window's `q`
/// percentile.  `lat` holds per-cell latencies in pass order; a trailing
/// partial window joins the one before it.
double windowed_percentile(const std::vector<double>& lat,
                           std::size_t pass_cells, double q) {
  const std::size_t per =
      pass_cells * ((kWindowCells + pass_cells - 1) / pass_cells);
  const std::size_t windows = std::max<std::size_t>(1, lat.size() / per);
  std::vector<double> values;
  for (std::size_t k = 0; k < windows; ++k) {
    const auto begin = lat.begin() + static_cast<std::ptrdiff_t>(k * per);
    std::vector<double> win(begin, k + 1 == windows
                                       ? lat.end()
                                       : begin + static_cast<std::ptrdiff_t>(per));
    std::sort(win.begin(), win.end());
    values.push_back(percentile(win, q));
  }
  return median(values);
}

double vm_hwm_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

enum class Path { Fast, Traced, Oracle };

/// Run `packets` through the runner, one packet per cell.  A cell that
/// throws is recorded as failed rather than aborting the pass.
std::vector<CellResult> run_pass(ms::TrialRunner& runner, const Workload& w,
                                 const std::vector<std::size_t>& packets,
                                 Path path) {
  return runner.run_grid(
      1, packets.size(),
      [&](std::size_t, std::size_t trial, ms::Rng&) -> CellResult {
        const std::size_t packet = packets[trial];
        const Clock::time_point t0 = Clock::now();
        CellResult r;
        try {
          trace::set_packet(packet);
          if (path == Path::Traced) {
            trace::Scope span(Layer::Packet);
            r = w.run_cell_traced(packet);
          } else if (path == Path::Oracle) {
            r = w.run_cell_oracle(packet);
          } else {
            r = w.run_cell(packet);
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "packet %zu threw: %s\n", packet, e.what());
          r = CellResult{};
          r.failed = true;
        }
        r.host_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
        return r;
      });
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "ident_mix") return make_ident_mix();
  if (name == "overlay_rx") return make_overlay_rx();
  if (name == "fleet_contention") return make_fleet_contention();
  if (name == "link_trace") return make_link_trace();
  return nullptr;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Options& o) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (!(end && *end == '\0' && o.seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      o.trace = v == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && o.seconds > 0.0 && !o.workload.empty();
}

/// Tallies digest: the pass's per-packet digests folded in packet order.
std::uint64_t tallies_digest(const std::vector<CellResult>& pass) {
  Digest h;
  for (const CellResult& c : pass) {
    h.add(c.digest);
    h.add(c.useful);
    h.add(c.outcomes);
  }
  return h.value();
}

struct Accumulated {
  double wall_s = 0.0;
  double packets = 0.0;
  std::vector<double> pass_throughput;  ///< packets per second, per pass
  double busy_ns = 0.0;
  std::vector<double> latency_us;
  std::vector<std::uint64_t> worker_busy_ns;
  ms::WaveformCache::Stats cache;
  std::size_t cache_entries = 0;   ///< largest pass
  std::uint64_t cache_samples = 0; ///< largest pass
  std::size_t passes = 0;

  void add(const std::vector<CellResult>& pass, double wall,
           const ms::ThreadPool& pool) {
    wall_s += wall;
    ++passes;
    double pass_packets = 0.0;
    for (const CellResult& c : pass) {
      pass_packets += c.packets;
      busy_ns += static_cast<double>(c.host_ns);
      latency_us.push_back(static_cast<double>(c.host_ns) * 1e-3);
    }
    packets += pass_packets;
    pass_throughput.push_back(pass_packets / wall);
    const auto stats = pool.worker_stats();
    worker_busy_ns.resize(stats.size(), 0);
    for (std::size_t k = 0; k < stats.size(); ++k)
      worker_busy_ns[k] += stats[k].busy_ns;
    const ms::WaveformCache& wc = ms::WaveformCache::instance();
    const ms::WaveformCache::Stats s = wc.stats();
    cache.hits += s.hits;
    cache.misses += s.misses;
    cache_entries = std::max(cache_entries, wc.entries());
    cache_samples = std::max(cache_samples, s.synth_samples);
  }
  /// Median over passes: a pass slowed by a burst of outside load does
  /// not move it.
  double throughput() const { return median(pass_throughput); }
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

int run(const Options& opt) {
  const std::size_t threads =
      std::min(kMaxThreads, ms::ThreadPool::hardware_threads());
  ms::WaveformCache& cache = ms::WaveformCache::instance();

  // ---- set-up, repeated; the last repetition's objects are kept ----
  std::unique_ptr<Workload> w;
  std::unique_ptr<ms::TrialRunner> runner;
  std::vector<double> setup_s, ident_setup_s, overlay_setup_s;
  const Clock::time_point setup_start = Clock::now();
  for (std::size_t rep = 0;
       rep < kMinSetupReps ||
       (rep < kMaxSetupReps && seconds_since(setup_start) < kSetupBudgetS);
       ++rep) {
    runner.reset();
    w.reset();
    cache.clear();
    const Clock::time_point t0 = Clock::now();
    SetupSteps steps;
    w = make_workload(opt.workload);
    w->setup(opt.seed, threads, steps);
    runner = std::make_unique<ms::TrialRunner>(
        ms::RunnerConfig{threads, opt.seed, 0.0});
    // Warm-up: one pass over the whole corpus on each path the run
    // times, so every lazy initialization has happened.
    std::vector<std::size_t> warm(w->corpus_size());
    for (std::size_t i = 0; i < warm.size(); ++i) warm[i] = i;
    run_pass(*runner, *w, warm, Path::Fast);
    if (opt.trace) {
      trace::set_enabled(true);
      run_pass(*runner, *w, warm, Path::Traced);
      trace::set_enabled(false);
    }
    setup_s.push_back(seconds_since(t0));
    ident_setup_s.push_back(steps.ident_s);
    overlay_setup_s.push_back(steps.overlay_s);
  }
  trace::clear();

  std::vector<std::size_t> corpus(w->corpus_size());
  for (std::size_t i = 0; i < corpus.size(); ++i) corpus[i] = i;

  // ---- timed phase ----
  std::vector<CellResult> reference;
  Accumulated fast, traced;
  std::vector<CellResult> traced_all;  // traced passes, for layer metrics
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  const Clock::time_point start = Clock::now();
  // A traced run needs at least one pass of each kind.
  for (std::size_t pass = 0;
       seconds_since(start) < opt.seconds || (opt.trace && pass < 2);
       ++pass) {
    const bool traced_pass = opt.trace && pass % 2 == 1;
    cache.clear();
    runner->pool().reset_worker_stats();
    trace::set_enabled(traced_pass);
    const Clock::time_point t0 = Clock::now();
    std::vector<CellResult> res =
        run_pass(*runner, *w, corpus, traced_pass ? Path::Traced : Path::Fast);
    const double wall = seconds_since(t0);
    trace::set_enabled(false);
    (traced_pass ? traced : fast).add(res, wall, runner->pool());
    if (reference.empty()) reference = res;
    for (std::size_t i = 0; i < res.size(); ++i) {
      ++attempted;
      if (res[i].failed || res[i].digest != reference[i].digest) ++failed;
    }
    if (traced_pass) traced_all.insert(traced_all.end(), res.begin(), res.end());
  }
  const double peak_rss_mb = vm_hwm_mb();
  if (failed)
    problems.push_back(std::to_string(failed) +
                       " packets threw or changed output between passes");

  // ---- output checks ----
  {
    cache.clear();
    ms::TrialRunner single(ms::RunnerConfig{1, opt.seed, 0.0});
    const std::vector<CellResult> one = run_pass(single, *w, corpus, Path::Fast);
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < one.size(); ++i)
      if (one[i].failed || one[i].digest != reference[i].digest) ++mismatched;
    if (mismatched)
      problems.push_back(std::to_string(mismatched) +
                         " packets differ at 1 thread");
    failed += mismatched;
    if (tallies_digest(one) != tallies_digest(reference))
      problems.push_back("tallies digest differs at 1 thread vs " +
                         std::to_string(threads));
  }
  std::vector<std::size_t> sample;
  const std::size_t stride =
      std::max<std::size_t>(1, corpus.size() / kOracleSample);
  for (std::size_t i = 0; i < corpus.size(); i += stride) sample.push_back(i);
  {
    cache.clear();
    ms::kernels::set_fast_path_enabled(false);
    cache.set_reuse_enabled(false);
    w->prepare_oracle();
    const std::vector<CellResult> ora =
        run_pass(*runner, *w, sample, Path::Oracle);
    ms::kernels::set_fast_path_enabled(true);
    cache.set_reuse_enabled(true);
    std::size_t mismatched = 0;
    for (std::size_t k = 0; k < sample.size(); ++k)
      if (ora[k].failed || ora[k].digest != reference[sample[k]].digest)
        ++mismatched;
    if (mismatched)
      problems.push_back(std::to_string(mismatched) +
                         " sampled packets differ from the scalar oracles");
    failed += mismatched;
  }
  if (const std::string why = w->check_bands(reference); !why.empty())
    problems.push_back("outside paper-shape band: " + why);

  double useful = 0.0, outcomes = 0.0;
  for (const CellResult& c : reference) {
    useful += c.useful;
    outcomes += c.outcomes;
  }

  Metrics m;
  if (!opt.trace) {
    const std::vector<double>& lat = fast.latency_us;
    // A run shorter than one window has a single, smaller window.
    const std::size_t window = std::min(
        lat.size(),
        corpus.size() * ((kWindowCells + corpus.size() - 1) / corpus.size()));
    std::printf("%s: %zu passes of %zu packet cells on %zu threads in "
                "%.2f s; %.0f packets; %zu set-ups\n",
                opt.workload.c_str(), fast.passes, corpus.size(), threads,
                fast.wall_s, fast.packets, setup_s.size());
    std::printf("latency samples: %zu, in windows of %zu cells "
                "(%zu beyond p99 per window)\n",
                lat.size(), window,
                window - static_cast<std::size_t>(std::ceil(
                             0.99 * static_cast<double>(window))));
    std::printf("error_rate: %.6g ratio (%llu of %llu attempted)\n",
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    m.push_back({"throughput_pkt_s", fast.throughput(), "pkt/s"});
    m.push_back({"latency_p50_us",
                 windowed_percentile(lat, corpus.size(), 0.5), "us"});
    m.push_back({"latency_p99_us",
                 windowed_percentile(lat, corpus.size(), 0.99), "us"});
    m.push_back({"setup_s", median(setup_s), "s"});
    m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    m.push_back({"success_ratio", useful / outcomes, "ratio"});
  } else {
    const trace::Summary s = trace::summarize();
    std::int64_t layer_sum = 0;
    for (std::int64_t v : s.self_ns) layer_sum += v;
    if (s.orphans != 0 || layer_sum != s.packet_span_ns)
      problems.push_back("layer self times do not sum to the packet spans");
    const double cells = static_cast<double>(std::max<std::uint64_t>(1, s.packets));
    const double span = static_cast<double>(std::max<std::int64_t>(1, s.packet_span_ns));
    std::printf("%s: traced %llu packet cells in %zu passes; %zu untraced "
                "passes\n",
                opt.workload.c_str(), static_cast<unsigned long long>(s.packets),
                traced.passes, fast.passes);
    m.push_back({"trace.packet.span_us", span / cells * 1e-3, "us"});
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      const std::string name = layer_name(static_cast<Layer>(l));
      const double self = static_cast<double>(s.self_ns[l]);
      m.push_back({name + ".self_us", self / cells * 1e-3, "us"});
      m.push_back({name + ".share", self / span, "ratio"});
    }
    // Workload counters, with every workload's names present.
    Metrics counters;
    w->layer_metrics(traced_all, counters);
    static const std::pair<const char*, const char*> kCounters[] = {
        {"core.ident.correct_ratio", "ratio"},
        {"core.overlay.sync_fail_ratio", "ratio"},
        {"core.overlay.crc_ok_ratio", "ratio"},
        {"sim.fleet.capture_ratio", "ratio"},
        {"sim.fleet.collision_ratio", "ratio"},
        {"core.tag.retx_ratio", "ratio"},
        {"core.tag.delivery_ratio", "ratio"},
        {"core.tag.retries_shed", "count/cell"},
    };
    for (const auto& [name, unit] : kCounters) {
      double v = 0.0;
      for (const Metric& c : counters)
        if (c.name == name) v = c.value;
      m.push_back({name, v, unit});
    }
    m.push_back({"phy.synth.calls",
                 static_cast<double>(fast.cache.misses) /
                     static_cast<double>(fast.passes * corpus.size()),
                 "calls/pkt"});
    const double lookups =
        static_cast<double>(fast.cache.hits + fast.cache.misses);
    m.push_back({"sim.runner.cache_hit_ratio",
                 lookups > 0 ? static_cast<double>(fast.cache.hits) / lookups
                             : 0.0,
                 "ratio"});
    m.push_back({"sim.runner.cache_entries",
                 static_cast<double>(fast.cache_entries), "count"});
    m.push_back({"sim.runner.cache_mb",
                 static_cast<double>(fast.cache_samples) *
                     sizeof(ms::Cf) / (1024.0 * 1024.0),
                 "MB"});
    m.push_back({"sim.runner.busy_ratio",
                 fast.busy_ns * 1e-9 /
                     (fast.wall_s * static_cast<double>(threads)),
                 "ratio"});
    double max_busy = 0.0, sum_busy = 0.0;
    for (std::uint64_t b : fast.worker_busy_ns) {
      max_busy = std::max(max_busy, static_cast<double>(b));
      sum_busy += static_cast<double>(b);
    }
    m.push_back({"sim.runner.imbalance",
                 sum_busy > 0 ? max_busy * static_cast<double>(
                                               fast.worker_busy_ns.size()) /
                                    sum_busy
                              : 0.0,
                 "ratio"});
    m.push_back({"core.ident.setup.self_us", median(ident_setup_s) * 1e6, "us"});
    m.push_back({"core.overlay.setup.self_us", median(overlay_setup_s) * 1e6,
                 "us"});
    m.push_back({"trace.overhead_ratio",
                 fast.throughput() / traced.throughput(), "ratio"});
  }

  const bool correct = problems.empty() && failed == 0;
  for (const std::string& p : problems)
    std::printf("CHECK FAILED: %s\n", p.c_str());
  std::fflush(stdout);
  print_json(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  pb::Options opt;
  if (!pb::parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  if (!pb::make_workload(opt.workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  try {
    return pb::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
}
