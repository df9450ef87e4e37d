// Serving benchmark driver: one run of one workload through the public
// serve::SessionManager API.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --out-dir <dir>
//
// A run sets the server up, warms it up, then times whole blocks of
// ticks for --seconds.  The timed region starts with a fixed-length
// count phase whose delivery counts are a pure function of the seed; its
// end drains the batchers.  Two more set-ups follow the measurement, and
// setup_s is the median of the three.  End-to-end metrics are CPU and
// memory figures plus those counts.  Wall-clock tick times go to the run
// record only, because on a shared VM they carry the hypervisor's steal
// time.
//
// Checks (any failure marks the run incorrect and exits 1):
//   - the server ends at degrade level 0, never left it, and shed no
//     frame and dropped no window;
//   - sampled sessions replayed standalone reproduce the served sessions
//     (standalone.hpp);
//   - the count metrics equal those of any earlier run of the same
//     executable, workload and seed (kept under <out-dir>/counts).
//
// With --trace 1 the run also records spans around every other tick and
// replays each layer's entry point on the workload's inputs (layers.cpp)
// to produce the per-layer metrics; the spans are written to
// <out-dir>/traces as Chrome Trace Event JSON.
#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/thread_pool.hpp"
#include "layers.hpp"
#include "obs/alloc_hooks.hpp"
#include "obs/metrics.hpp"
#include "serve/feature_cache.hpp"
#include "spans.hpp"
#include "standalone.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace conf = affectsys::conf;
namespace obs = affectsys::obs;
namespace fs = std::filesystem;

constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[5] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
      have[0] = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
      have[1] = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
      have[2] = a.seconds > 0.0;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
      have[3] = true;
    } else if (k == "--out-dir") {
      a.out_dir = v;
      have[4] = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  for (const bool h : have) {
    if (!h) {
      throw std::invalid_argument(
          "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
          "--trace <0|1> --out-dir <dir>");
    }
  }
  return a;
}

/// Public per-session counters summed over every session.
struct Totals {
  std::uint64_t session_ticks = 0;
  std::uint64_t windows_enqueued = 0;
  std::uint64_t windows_dropped = 0;
  std::uint64_t results_applied = 0;
  std::uint64_t inflight = 0;
  std::uint64_t frames_decoded = 0;
  std::uint64_t frames_shed = 0;
  std::uint64_t frames_downswitched = 0;
  std::uint64_t pictures_lost = 0;
  std::uint64_t nals_deleted = 0;
  std::uint64_t rows_cached = 0;
  std::uint64_t rows_live = 0;
  std::uint64_t layer_switches = 0;
  std::uint64_t layer_wait = 0;
  std::uint64_t layer_bytes = 0;
};

Totals totals(const serve::SessionManager& server, std::size_t sessions) {
  Totals t;
  for (serve::SessionId id = 1; id <= sessions; ++id) {
    const serve::Session& s = server.session(id);
    const serve::SessionStats& st = s.stats();
    t.session_ticks += st.ticks;
    t.windows_enqueued += st.windows_enqueued;
    t.windows_dropped += s.dropped_windows();
    t.results_applied += st.results_applied;
    t.inflight += s.inflight();
    t.frames_decoded += st.frames_decoded;
    t.frames_shed += st.frames_dropped;
    t.frames_downswitched += st.frames_downswitched;
    t.pictures_lost += st.pictures_lost;
    t.nals_deleted += st.nals_deleted;
    t.rows_cached += st.feature_rows_cached;
    t.rows_live += st.feature_rows_live;
    t.layer_switches += st.layer_switches;
    t.layer_wait += st.layer_wait_pictures;
    for (const std::uint64_t b : st.layer_bytes) t.layer_bytes += b;
  }
  return t;
}

/// One set-up server.  The world is declared first so it outlives the
/// server that points into it.
struct Setup {
  std::unique_ptr<World> world;
  std::unique_ptr<serve::SessionManager> server;
  std::vector<conf::RoomId> rooms;
  /// Sampled sessions; measure() stops logging them after the count
  /// phase.
  std::vector<SampleLog> samples;
  SetupTimes times;
  double admit_s = 0.0;
  double cpu_s = 0.0;
  double rss_before_world = 0.0;
  double rss_before_server = 0.0;
  double rss_after_admit = 0.0;
  std::uint64_t tick = 0;  ///< server ticks run so far
};

/// Bookkeeping after every server tick: the sampled sessions' logs.
void after_server_tick(Setup& s) {
  for (SampleLog& log : s.samples) log.observe(s.server->session(log.id()), s.tick);
  ++s.tick;
}

void tick(Setup& s) {
  s.server->tick();
  after_server_tick(s);
}

/// Builds the world and the server and admits every session; CPU is
/// counted from `cpu_start` to the first warm-up tick.
std::unique_ptr<Setup> build_setup(const WorkloadSpec& spec,
                                   std::uint64_t seed, double cpu_start) {
  auto s = std::make_unique<Setup>();
  s->rss_before_world = rss_mb();
  s->world = build_world(spec, s->times);
  s->rss_before_server = rss_mb();
  const double c0 = process_cpu_s();
  s->server = std::make_unique<serve::SessionManager>(spec.server,
                                                      s->world->env());
  for (std::size_t r = 0; r < spec.rooms; ++r) {
    s->rooms.push_back(s->server->create_room());
  }
  for (std::size_t i = 0; i < spec.sessions; ++i) {
    const serve::SessionId id = i + 1;
    serve::SessionConfig cfg = session_config(spec, seed, id);
    const serve::SessionId got =
        spec.rooms ? s->server->create_session(cfg, s->rooms[i % spec.rooms])
                   : s->server->create_session(cfg);
    if (got != id) throw std::logic_error("session ids out of order");
    // Sampled sessions spread evenly over the id range.
    if (i % (spec.sessions / spec.sampled_sessions) == 0) {
      cfg.simulcast.conference = spec.rooms != 0;  // as the server admits it
      s->samples.emplace_back(id, cfg, s->tick);
    }
    if ((i + 1) % spec.admit_per_tick == 0 || i + 1 == spec.sessions) tick(*s);
  }
  s->admit_s = process_cpu_s() - c0;
  s->rss_after_admit = rss_mb();
  s->cpu_s = process_cpu_s() - cpu_start;
  return s;
}

/// Ticks from staging a window to applying its result, tracked per
/// session as a FIFO over the public windows_enqueued / results_applied
/// counters.  Windows already in flight when tracking starts are
/// followed but not sampled.
class ActionLatency {
 public:
  void start(const serve::SessionManager& server, std::size_t sessions) {
    tracks_.assign(sessions, {});
    for (serve::SessionId id = 1; id <= sessions; ++id) {
      const serve::Session& s = server.session(id);
      Track& t = tracks_[id - 1];
      t.staged.assign(s.inflight(), -1);
      t.enqueued = s.stats().windows_enqueued;
      t.applied = s.stats().results_applied;
    }
  }

  void observe(const serve::SessionManager& server, std::uint64_t tick) {
    for (std::size_t i = 0; i < tracks_.size(); ++i) {
      const serve::SessionStats& st = server.session(i + 1).stats();
      Track& t = tracks_[i];
      for (; t.enqueued < st.windows_enqueued; ++t.enqueued) {
        t.staged.push_back(static_cast<std::int64_t>(tick));
      }
      for (; t.applied < st.results_applied; ++t.applied) {
        if (t.staged.empty()) {
          consistent_ = false;
          continue;
        }
        if (t.staged.front() >= 0) {
          samples_.push_back(tick - static_cast<std::uint64_t>(t.staged.front()));
        }
        t.staged.pop_front();
      }
    }
  }

  std::uint64_t p99() const { return percentile(samples_, 0.99); }
  std::size_t samples() const { return samples_.size(); }
  bool consistent() const { return consistent_; }

 private:
  struct Track {
    std::deque<std::int64_t> staged;
    std::uint64_t enqueued = 0;
    std::uint64_t applied = 0;
  };
  std::vector<Track> tracks_;
  std::vector<std::uint64_t> samples_;
  bool consistent_ = true;
};

/// What the timed region measured.
struct Measured {
  // Count phase (fixed length, drained at its end).
  Totals before, after;
  serve::BatcherStats batch_before, batch_after;
  std::uint64_t room_switches = 0;
  ActionLatency latency;
  double peak_mb = 0.0;
  std::vector<ServedSnapshot> served;  ///< parallel to the sample logs
  std::uint64_t cold_starts = 0, warm_starts = 0;  ///< traced runs only
  // Whole timed region.
  std::uint64_t ticks = 0;
  std::uint64_t session_ticks = 0;
  double wall_s = 0.0;
  double tick_cpu_s = 0.0;
  std::vector<double> tick_ms;
  std::vector<double> block_cpu_ms;  ///< CPU ms per session tick, per block
  std::uint64_t tick_allocs = 0;
  std::int64_t tick_live_growth = 0;  ///< allocations minus frees in ticks
  double rss_growth_mb = 0.0;
  double pool_task_s = 0.0;
  double steal = 0.0;
  // Tracing-overhead A/B: CPU and session ticks of ticks that recorded
  // a span [0] and of ticks that did not [1].
  double ab_cpu[2] = {0.0, 0.0};
  std::uint64_t ab_runs[2] = {0, 0};
};

/// Runs the timed region on a warmed-up server: the count phase, a
/// drain, then blocks until `args.seconds` of wall time have passed.
/// The sample logs stop at the drain.  With tracing on it records tick
/// spans and the room observations the conf.Room replay runs on.
Measured measure(Setup& s, const WorkloadSpec& spec, const Args& args,
                 SpanLog& spans, int root, ReplayInputs& replay) {
  serve::SessionManager& server = *s.server;
  Measured m;
  const HostCpu host0 = read_host_cpu();
  const auto wall0 = Clock::now();
  const double rss0 = rss_mb();
  obs::Histogram& pool_task_ns = obs::Registry::global().histogram("core.pool_task_ns");
  const double pool_ns0 = pool_task_ns.sum();
  const std::uint64_t runs0 = server.stats().session_runs;

  const auto timed_block = [&](const std::function<void()>& after_tick) {
    const double block_cpu0 = m.tick_cpu_s;
    const std::uint64_t block_runs0 = server.stats().session_runs;
    for (std::size_t k = 0; k < spec.block_ticks; ++k) {
      const bool span_on = args.trace && m.ticks % 2 == 0;
      const std::uint64_t runs_before = server.stats().session_runs;
      const std::uint64_t a0 = obs::alloc_count();
      const std::uint64_t f0 = obs::free_count();
      const auto w0 = Clock::now();
      const double c0 = process_cpu_s();
      server.tick();
      const double c1 = process_cpu_s();
      const auto w1 = Clock::now();
      const std::uint64_t a1 = obs::alloc_count();
      const std::uint64_t f1 = obs::free_count();
      const double ms = std::chrono::duration<double, std::milli>(w1 - w0).count();
      if (span_on) {
        spans.add("serve.SessionManager::tick", w0, ms * 1e3, (c1 - c0) * 1e6,
                  1, root);
      }
      // A traced tick's CPU includes recording its span.
      const double cpu = (span_on ? process_cpu_s() : c1) - c0;
      m.tick_cpu_s += cpu;
      m.tick_allocs += a1 - a0;
      m.tick_live_growth += static_cast<std::int64_t>(a1 - a0) -
                            static_cast<std::int64_t>(f1 - f0);
      m.tick_ms.push_back(ms);
      m.ab_cpu[span_on ? 0 : 1] += cpu;
      m.ab_runs[span_on ? 0 : 1] += server.stats().session_runs - runs_before;
      after_server_tick(s);
      ++m.ticks;
      after_tick();
    }
    m.block_cpu_ms.push_back(
        (m.tick_cpu_s - block_cpu0) * 1e3 /
        static_cast<double>(server.stats().session_runs - block_runs0));
  };

  // ---- Count phase.
  m.before = totals(server, spec.sessions);
  m.batch_before = server.batcher_stats();
  for (const conf::RoomId r : s.rooms) {
    m.room_switches -= server.room(r).stats().speaker_switches;
  }
  m.latency.start(server, spec.sessions);
  std::vector<std::uint64_t> member_ticks(replay.room_members.size(), 0);
  for (std::size_t b = 0; b * spec.block_ticks < spec.count_ticks; ++b) {
    timed_block([&] {
      m.latency.observe(server, s.tick - 1);
      if (!args.trace) return;
      std::vector<RoomObs> obs_tick;
      for (std::size_t i = 0; i < replay.room_members.size(); ++i) {
        const serve::Session& sess = server.session(replay.room_members[i]);
        const bool ran = sess.stats().ticks != member_ticks[i];
        member_ticks[i] = sess.stats().ticks;
        obs_tick.push_back({replay.room_members[i], ran, sess.audio_energy(),
                            sess.affect_confidence()});
      }
      replay.room_obs.push_back(std::move(obs_tick));
    });
  }
  server.drain();
  for (SampleLog& log : s.samples) log.observe(server.session(log.id()), s.tick);
  m.latency.observe(server, s.tick);
  // Read at the end of the fixed-length phase, so the figure does not
  // depend on how many more ticks the host fits into --seconds.
  m.peak_mb = peak_rss_mb();
  m.after = totals(server, spec.sessions);
  m.batch_after = server.batcher_stats();
  for (const conf::RoomId r : s.rooms) {
    m.room_switches += server.room(r).stats().speaker_switches;
  }
  for (const SampleLog& log : s.samples) {
    m.served.push_back(ServedSnapshot::of(server.session(log.id())));
  }
  if (args.trace) {
    for (serve::SessionId id = 1; id <= spec.sessions; ++id) {
      const auto apps = server.report(id).apps;
      m.cold_starts += apps.cold_starts;
      m.warm_starts += apps.warm_starts;
    }
  }

  // ---- The rest of the timed region, without sample logs.
  std::vector<SampleLog> logs = std::move(s.samples);
  s.samples.clear();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(Clock::now() - wall0).count();
  };
  while (elapsed_s() < args.seconds) timed_block([] {});
  s.samples = std::move(logs);

  m.wall_s = elapsed_s();
  m.steal = steal_frac(host0, read_host_cpu());
  m.rss_growth_mb = rss_mb() - rss0;
  m.session_ticks = server.stats().session_runs - runs0;
  m.pool_task_s = (pool_task_ns.sum() - pool_ns0) / 1e9;
  return m;
}

double frac_or_one(double num, double den) { return den > 0.0 ? num / den : 1.0; }
double frac_or_zero(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double delta(std::uint64_t after, std::uint64_t before) {
  return static_cast<double>(after - before);
}

/// The end-to-end metrics; setup_s is filled in once every set-up ran.
std::vector<Metric> end_to_end(const Measured& m, const WorkloadSpec& spec) {
  const Totals& a = m.after;
  const Totals& b = m.before;
  const double dec = delta(a.frames_decoded, b.frames_decoded);
  const double shed = delta(a.frames_shed, b.frames_shed);
  const double down = delta(a.frames_downswitched, b.frames_downswitched);
  const double lost = delta(a.pictures_lost, b.pictures_lost);
  const double produced = delta(a.windows_enqueued, b.windows_enqueued) +
                          delta(a.windows_dropped, b.windows_dropped);
  // Results for windows produced in the phase: those in flight at its
  // start were produced before it.
  const double applied = delta(a.results_applied, b.results_applied) -
                         static_cast<double>(b.inflight);
  const serve::SessionConfig& sc = spec.server.session;
  const double session_ticks = delta(a.session_ticks, b.session_ticks);
  const double chunk_samples = std::round(sc.tick_s * sc.realtime.sample_rate_hz);
  // Uplink: PCM16 audio for every executed session tick plus every
  // forwarded video slice byte.
  const double wire_bytes = session_ticks * chunk_samples * 2.0 +
                            delta(a.layer_bytes, b.layer_bytes);
  return {
      // Blocks execute equal work, so the median block is the typical
      // cost with bursts of host interference left out.
      {"cpu_ms_per_session_tick", median(m.block_cpu_ms), "ms"},
      {"setup_s", 0.0, "s"},
      {"peak_rss_mb", m.peak_mb, "MiB"},
      {"frames_delivered_frac", frac_or_one(dec, dec + shed + down), "ratio"},
      {"windows_classified_frac", frac_or_one(applied, produced), "ratio"},
      {"pictures_shown_frac", frac_or_one(dec, dec + lost), "ratio"},
      {"affect_to_action_ticks_p99", static_cast<double>(m.latency.p99()), "tick"},
      {"wire_kb_per_session_s",
       frac_or_zero(wire_bytes / 1024.0, session_ticks * sc.tick_s), "KiB/s"},
  };
}

/// FNV-1a over this process's executable file, as 16 hex digits.
std::string executable_digest() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  std::uint64_t h = 1469598103934665603ull;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 1099511628211ull;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Runs the output checks on the measured server.  The standalone
/// replay also times the sampled sessions stage by stage into `stage`.
std::vector<Check> run_checks(const Setup& s, const WorkloadSpec& spec,
                              const Measured& m, const std::vector<Metric>& e2e,
                              const fs::path& counts_dir, const std::string& tag,
                              StandaloneReplay& stage) {
  std::vector<Check> checks;
  const serve::SessionManager& server = *s.server;
  const Totals end = totals(server, spec.sessions);
  {
    Check c{"sustainable_load", true, ""};
    c.ok = server.degrade_level() == 0 && server.stats().max_degrade_level == 0 &&
           end.frames_shed == 0 && end.frames_downswitched == 0 &&
           end.windows_dropped == 0;
    c.detail = "max degrade level " + std::to_string(server.stats().max_degrade_level) +
               ", frames shed " + std::to_string(end.frames_shed) +
               ", downswitched " + std::to_string(end.frames_downswitched) +
               ", windows dropped " + std::to_string(end.windows_dropped);
    checks.push_back(c);
  }
  {
    Check c{"action_latency_tracking", true, ""};
    c.ok = m.latency.consistent() && m.latency.samples() > 0;
    c.detail = std::to_string(m.latency.samples()) + " windows sampled";
    checks.push_back(c);
  }
  {
    // The sessions' env as the server builds it: the feature-bank cache
    // when the workload's scripts are quantized.
    serve::SessionEnv env = s.world->env();
    std::unique_ptr<serve::FeatureBankCache> cache;
    if (spec.server.feature_bank_cache && spec.assets.script_quantum_samples != 0) {
      cache = std::make_unique<serve::FeatureBankCache>(
          *s.world->workload, s.world->classifier->feature_config());
      if (cache->usable()) env.feature_cache = cache.get();
    }
    Check c{"standalone_identity", true, ""};
    run_as_pool_task([&] {
      for (std::size_t i = 0; i < s.samples.size(); ++i) {
        const std::string why = stage.replay(s.samples[i], m.served[i], env,
                                             *s.world->classifier);
        if (!why.empty()) {
          c.ok = false;
          c.detail += "session " + std::to_string(s.samples[i].id()) + ": " + why + "; ";
        }
      }
    });
    if (c.ok) c.detail = std::to_string(s.samples.size()) + " sessions identical";
    checks.push_back(c);
  }
  {
    JsonLine counts;
    for (std::size_t i = 3; i < e2e.size(); ++i) counts.add(e2e[i].name, e2e[i].value);
    counts.add("frames_decoded", m.after.frames_decoded - m.before.frames_decoded);
    counts.add("windows_enqueued", m.after.windows_enqueued - m.before.windows_enqueued);
    counts.add("results_applied", m.after.results_applied - m.before.results_applied);
    counts.add("pictures_lost", m.after.pictures_lost - m.before.pictures_lost);
    counts.add("layer_bytes", m.after.layer_bytes - m.before.layer_bytes);
    counts.add("action_samples", static_cast<std::uint64_t>(m.latency.samples()));
    // Keyed by a digest of this executable: only runs of the same code
    // are compared.
    const fs::path path = counts_dir / (tag + "-" + executable_digest() + ".json");
    Check c{"same_seed_counts", true, ""};
    std::string stored;
    if (std::ifstream in(path); in && std::getline(in, stored)) {
      c.ok = stored == counts.str();
      c.detail = c.ok ? "matches an earlier run" : "differs from " + path.string();
    } else {
      std::ofstream(path) << counts.str() << "\n";
      c.detail = "first run of this seed; stored";
    }
    checks.push_back(c);
  }
  return checks;
}

/// Per-layer metrics read off the server run and the standalone replay
/// (the layer replays add the rest).
std::vector<Metric> server_layer_metrics(const Measured& m, const Setup& s,
                                         const WorkloadSpec& spec,
                                         const StandaloneReplay& stage,
                                         std::size_t workers) {
  const Totals& a = m.after;
  const Totals& b = m.before;
  const double deleted = delta(a.nals_deleted, b.nals_deleted);
  const double switches = delta(a.layer_switches, b.layer_switches);
  const double cached = delta(a.rows_cached, b.rows_cached);
  const double media_min = delta(a.session_ticks, b.session_ticks) *
                           spec.server.session.tick_s / 60.0;
  const double kticks = static_cast<double>(m.ticks) / 1e3;
  const double runs = static_cast<double>(stage.runs);
  const double ab_on = frac_or_zero(m.ab_cpu[0], static_cast<double>(m.ab_runs[0]));
  const double ab_off = frac_or_zero(m.ab_cpu[1], static_cast<double>(m.ab_runs[1]));
  std::vector<Metric> out = {
      {"adaptive.nals_deleted_frac",
       frac_or_zero(deleted, deleted + delta(a.frames_decoded, b.frames_decoded) +
                                 delta(a.pictures_lost, b.pictures_lost)),
       "ratio"},
      {"serve.feature_cache_hit_frac",
       frac_or_zero(cached, cached + delta(a.rows_live, b.rows_live)), "ratio"},
      {"serve.stage_pump_us", frac_or_zero(stage.pump_ns / 1e3, runs), "us"},
      {"serve.stage_route_us", frac_or_zero(stage.route_ns / 1e3, runs), "us"},
      {"serve.stage_media_us", frac_or_zero(stage.media_ns / 1e3, runs), "us"},
      {"serve.rows_per_flush",
       frac_or_zero(delta(m.batch_after.windows, m.batch_before.windows),
                    delta(m.batch_after.flushes, m.batch_before.flushes)),
       "row"},
      {"serve.due_sessions_per_tick",
       frac_or_zero(static_cast<double>(m.session_ticks), static_cast<double>(m.ticks)),
       "session"},
      {"serve.tick_ms_p50", percentile(m.tick_ms, 0.50), "ms"},
      {"serve.tick_ms_p99", percentile(m.tick_ms, 0.99), "ms"},
      {"simulcast.layer_switches_per_session_min", frac_or_zero(switches, media_min),
       "1/min"},
      {"simulcast.wait_pictures_per_switch",
       frac_or_zero(delta(a.layer_wait, b.layer_wait), switches), "picture"},
      {"android.cold_start_frac",
       frac_or_zero(static_cast<double>(m.cold_starts),
                    static_cast<double>(m.cold_starts + m.warm_starts)),
       "ratio"},
      {"core.pool_busy_frac",
       frac_or_zero(m.pool_task_s, m.wall_s * static_cast<double>(workers)), "ratio"},
      {"host.steal_frac", m.steal, "ratio"},
      {"mem.assets_mb", s.rss_before_server - s.rss_before_world, "MiB"},
      {"mem.session_kb",
       (s.rss_after_admit - s.rss_before_server) * 1024.0 /
           static_cast<double>(spec.sessions),
       "KiB"},
      {"mem.growth_mb_per_ktick", frac_or_zero(m.rss_growth_mb, kticks), "MiB"},
      {"obs.live_allocs_growth_per_ktick",
       frac_or_zero(static_cast<double>(m.tick_live_growth), kticks), "alloc"},
      {"obs.allocs_per_session_tick",
       frac_or_zero(static_cast<double>(m.tick_allocs),
                    static_cast<double>(m.session_ticks)),
       "alloc"},
      {"trace.overhead_frac", ab_off > 0.0 ? ab_on / ab_off - 1.0 : 0.0, "ratio"},
  };
  if (spec.rooms != 0) {
    const double room_min = static_cast<double>(spec.rooms * spec.count_ticks) *
                            spec.server.session.tick_s / 60.0;
    out.push_back({"conf.speaker_switches_per_room_min",
                   frac_or_zero(static_cast<double>(m.room_switches), room_min),
                   "1/min"});
  }
  return out;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

int run(const Args& args, double cpu_at_main) {
  const WorkloadSpec spec = workload_spec(args.workload);
  const fs::path out_dir(args.out_dir);
  for (const char* sub : {"runs", "counts", "traces"}) {
    fs::create_directories(out_dir / sub);
  }
  const std::string tag = spec.name + "-seed" + std::to_string(args.seed);

  // The pool gets nproc - 1 workers; the ticking caller is the nth thread.
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  core::set_global_threads(nproc - 1);
  const std::size_t workers = core::global_threads();

  std::vector<double> setup_cpu, workload_s, train_s, admit_s;
  const auto record_setup = [&](const Setup& st) {
    setup_cpu.push_back(st.cpu_s);
    workload_s.push_back(st.times.workload_s);
    train_s.push_back(st.times.train_s);
    admit_s.push_back(st.admit_s);
  };
  std::unique_ptr<Setup> s = build_setup(spec, args.seed, cpu_at_main);
  record_setup(*s);
  for (std::size_t t = 0; t < spec.warmup_ticks; ++t) tick(*s);

  // Observations for the conf.Room replay: room 1's members, or the
  // first eight sessions when the workload has no rooms.
  ReplayInputs replay;
  replay.spec = &spec;
  replay.world = s->world.get();
  replay.seed = args.seed;
  for (serve::SessionId id = 1; replay.room_members.size() < 8; ++id) {
    if (spec.rooms == 0 || (id - 1) % spec.rooms == 0) replay.room_members.push_back(id);
  }

  SpanLog spans;
  const int root = spans.begin("run " + tag);
  const Measured m = measure(*s, spec, args, spans, root, replay);
  spans.end(root, m.ticks);

  std::vector<Metric> e2e = end_to_end(m, spec);
  StandaloneReplay stage;
  const std::vector<Check> checks =
      run_checks(*s, spec, m, e2e, out_dir / "counts", tag, stage);
  bool correct = true;
  for (const Check& c : checks) correct = correct && c.ok;

  std::vector<Metric> layers;
  if (args.trace) {
    replay.rows_per_flush = frac_or_zero(
        delta(m.batch_after.windows, m.batch_before.windows),
        delta(m.batch_after.flushes, m.batch_before.flushes));
    replay.due_per_tick = frac_or_zero(static_cast<double>(m.session_ticks),
                                       static_cast<double>(m.ticks));
    const int rspan = spans.begin("layer replays");
    replay_layers(replay, spans, rspan, layers);
    spans.end(rspan);
    const std::vector<Metric> server_side =
        server_layer_metrics(m, *s, spec, stage, workers);
    layers.insert(layers.end(), server_side.begin(), server_side.end());
    const fs::path trace_path = out_dir / "traces" / (tag + ".json");
    if (!spans.write_chrome(trace_path.string())) {
      throw std::runtime_error("cannot write " + trace_path.string());
    }
  }

  // The remaining set-ups, for the setup_s median.  The measured server
  // is gone before they start, so the memory figures above saw a single
  // set-up; the last one stays up until the results are out.
  for (int i = 1; i < kSetups; ++i) {
    s.reset();
    s = build_setup(spec, args.seed, process_cpu_s());
    record_setup(*s);
  }
  e2e[1].value = median(setup_cpu);
  if (args.trace) {
    layers.push_back({"setup.workload_s", median(workload_s), "s"});
    layers.push_back({"setup.train_s", median(train_s), "s"});
    layers.push_back({"setup.admit_s", median(admit_s), "s"});
  }

  // Run record: host context next to the metrics, so a noisy run can be
  // explained rather than gated.
  JsonLine rec;
  rec.add("workload", spec.name).add("seed", args.seed).add("seconds", args.seconds);
  rec.add("trace", args.trace).add("nproc", static_cast<std::uint64_t>(nproc));
  rec.add("pool_workers", static_cast<std::uint64_t>(workers));
  rec.add("build_type", PERFBENCH_BUILD_TYPE);
  rec.add("steal_frac", m.steal);
  rec.add("tick_ms_p50", percentile(m.tick_ms, 0.50));
  rec.add("tick_ms_p99", percentile(m.tick_ms, 0.99));
  rec.add("timed_ticks", m.ticks).add("timed_session_ticks", m.session_ticks);
  rec.add("timed_wall_s", m.wall_s).add("tick_cpu_s", m.tick_cpu_s);
  rec.add("count_ticks", static_cast<std::uint64_t>(spec.count_ticks));
  rec.add("action_latency_samples", static_cast<std::uint64_t>(m.latency.samples()));
  rec.raw("setup_cpu_s", json_array(setup_cpu));
  rec.add("cpu_ms_per_session_tick_mean",
          frac_or_zero(m.tick_cpu_s * 1e3, static_cast<double>(m.session_ticks)));
  rec.raw("block_cpu_ms_per_session_tick", json_array(m.block_cpu_ms));
  JsonLine chk;
  for (const Check& c : checks) {
    chk.raw(c.name, JsonLine().add("ok", c.ok).add("detail", c.detail).str());
  }
  rec.raw("checks", chk.str());
  std::cout << "run_record " << rec.str() << "\n";
  std::ofstream(out_dir / "runs" / (tag + "-trace" + (args.trace ? "1" : "0") + ".json"))
      << rec.str() << "\n";

  // Result: the last line of standard output.  Attempted work is every
  // frame due and window produced in the count phase.
  JsonLine metrics;
  for (const Metric& x : args.trace ? layers : e2e) {
    metrics.raw(x.name, JsonLine().add("value", x.value).add("unit", x.unit).str());
  }
  const Totals& a = m.after;
  const Totals& b = m.before;
  const std::uint64_t failed = (a.frames_shed - b.frames_shed) +
                               (a.frames_downswitched - b.frames_downswitched) +
                               (a.windows_dropped - b.windows_dropped);
  const std::uint64_t attempted = failed + (a.frames_decoded - b.frames_decoded) +
                                  (a.windows_enqueued - b.windows_enqueued);
  JsonLine result;
  result.add("correct", correct);
  result.add("attempted", std::max<std::uint64_t>(1, attempted));
  result.add("failed", failed);
  result.raw("metrics", metrics.str());
  std::cout << result.str() << std::endl;

  // Clean shutdown: destroy the server, then join the pool's workers
  // while the metrics registry is still alive.  Exiting with live
  // workers hits the exit-time use-after-free of ROADMAP item 1, which
  // this benchmark does not fix; it only keeps clear of it.
  s.reset();
  core::set_global_threads(0);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const double cpu_at_main = perfbench::process_cpu_s();
  try {
    return perfbench::run(perfbench::parse_args(argc, argv), cpu_at_main);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
