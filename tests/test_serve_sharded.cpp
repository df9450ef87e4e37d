// Sharded / event-driven serving tests: the scheduling-invariance
// contract (shards x wheel x work-steal all reproduce the compat run
// byte-for-byte), two-run replay identity for a lossy sharded fleet,
// feature-bank-cache byte identity on quantized workloads (clean and
// over a lossy simulcast transport) and its eligibility rule, isolation
// of the per-thread feature/chunk/window scratch between sessions,
// duty-cycle transparency on the timer wheel, the zero-steady-state-
// allocation pin for the pooled serve path, and the per-session heap
// footprint of an audio-only session.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "affect/speech_synth.hpp"
#include "android/catalog.hpp"
#include "android/personality.hpp"
#include "core/affect_table.hpp"
#include "core/thread_pool.hpp"
#include "fault/plan.hpp"
#include "fault/scenario.hpp"
#include "nn/model.hpp"
#include "obs/alloc_hooks.hpp"
#include "serve/server.hpp"
#include "simulcast/encoder.hpp"

// In-use heap is read from glibc's mallinfo2 (2.33+).  A sanitizer
// replaces the allocator, so glibc's figures then miss the heap.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define AFFECTSYS_SANITIZED_ALLOCATOR 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define AFFECTSYS_SANITIZED_ALLOCATOR 1
#endif
#if defined(__GLIBC__) && !defined(AFFECTSYS_SANITIZED_ALLOCATOR) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33))
#include <malloc.h>
#define AFFECTSYS_HAVE_MALLINFO2 1
#endif

namespace affect = affectsys::affect;
namespace android = affectsys::android;
namespace core = affectsys::core;
namespace fault = affectsys::fault;
namespace nn = affectsys::nn;
namespace obs = affectsys::obs;
namespace serve = affectsys::serve;
namespace simulcast = affectsys::simulcast;

namespace {

/// Shared across every test in this file: one classifier, one plain
/// workload (the PR 4/6 configuration) and one hop-quantized workload
/// (the feature-bank-cache configuration).  All immutable after
/// construction.
struct ShardWorld {
  serve::SharedWorkload workload;        ///< unquantized scripts
  serve::SharedWorkload quantized;       ///< scripts snapped to the hop
  affect::AffectClassifier classifier;
  std::vector<android::App> catalog;
  core::AppAffectTable table;

  static serve::WorkloadConfig quantized_config() {
    serve::WorkloadConfig wc;
    // One tick of audio (0.1 s at 16 kHz) = 1600 samples = 10 hops:
    // every speech/silence boundary lands on a frame boundary.
    wc.script_quantum_samples = 1600;
    return wc;
  }

  ShardWorld()
      : workload(serve::WorkloadConfig{}),
        quantized(quantized_config()),
        classifier([] {
          affect::CorpusProfile prof;
          prof.name = "serve-sharded";
          prof.num_speakers = 4;
          prof.emotions = {affect::Emotion::kAngry, affect::Emotion::kCalm};
          prof.utterances_per_speaker_emotion = 6;
          prof.utterance_seconds = 1.0;
          prof.speaker_spread = 0.1;
          nn::TrainConfig tc;
          tc.epochs = 8;
          tc.batch_size = 8;
          tc.learning_rate = 2e-3f;
          return affect::train_affect_classifier(nn::ModelKind::kMlp, prof,
                                                 tc);
        }()),
        catalog(android::build_catalog(android::EmulatorSpec{})) {
    for (const auto e : {affect::Emotion::kAngry, affect::Emotion::kCalm}) {
      table.learn_from_profile(e, android::profile_for_emotion(e), catalog);
    }
  }

  serve::SessionEnv env(bool use_quantized = false, bool with_apps = true) {
    serve::SessionEnv env;
    env.workload = use_quantized ? &quantized : &workload;
    env.classifier = &classifier;
    if (with_apps) {
      env.app_table = &table;
      env.catalog = &catalog;
    }
    return env;
  }
};

ShardWorld& world() {
  static ShardWorld w;
  return w;
}

/// Hop-quantized scripts plus the stock 3-layer simulcast clip, for the
/// cache tests over the simulcast transport.  Built on first use only.
serve::SharedWorkload& quantized_simulcast_workload() {
  static serve::SharedWorkload w([] {
    serve::WorkloadConfig wc = ShardWorld::quantized_config();
    wc.simulcast = simulcast::default_simulcast_config();
    return wc;
  }());
  return w;
}

bool windows_bitwise_equal(const std::vector<serve::WindowRecord>& a,
                           const std::vector<serve::WindowRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].seq != b[i].seq || a[i].t_end != b[i].t_end ||
        a[i].emotion != b[i].emotion) {
      return false;
    }
    if (std::memcmp(&a[i].confidence, &b[i].confidence, sizeof(float)) != 0) {
      return false;
    }
    if (a[i].probabilities.size() != b[i].probabilities.size()) return false;
    if (!a[i].probabilities.empty() &&
        std::memcmp(a[i].probabilities.data(), b[i].probabilities.data(),
                    a[i].probabilities.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// Full-report byte identity.  `ignore_cache_counters` masks the
/// feature_rows_{cached,live} split, which is the one legitimate
/// difference between a cache-on and cache-off run of the same session.
testing::AssertionResult reports_identical(const serve::SessionReport& a,
                                           const serve::SessionReport& b,
                                           bool ignore_cache_counters = false) {
  if (!windows_bitwise_equal(a.windows, b.windows)) {
    return testing::AssertionFailure() << "window records differ";
  }
  if (a.stable_trace != b.stable_trace) {
    return testing::AssertionFailure() << "stable traces differ";
  }
  if (a.decode_digest != b.decode_digest) {
    return testing::AssertionFailure() << "decode digests differ";
  }
  serve::SessionStats sa = a.stats;
  serve::SessionStats sb = b.stats;
  if (ignore_cache_counters) {
    sa.feature_rows_cached = sb.feature_rows_cached = 0;
    sa.feature_rows_live = sb.feature_rows_live = 0;
  }
  // All-std::uint64_t aggregates: memcmp is exact.
  if (std::memcmp(&sa, &sb, sizeof(sa)) != 0) {
    return testing::AssertionFailure() << "session stats differ";
  }
  if (std::memcmp(&a.realtime, &b.realtime, sizeof(a.realtime)) != 0) {
    return testing::AssertionFailure() << "realtime stats differ";
  }
  if (std::memcmp(&a.apps, &b.apps, sizeof(a.apps)) != 0) {
    return testing::AssertionFailure() << "app metrics differ";
  }
  if (std::memcmp(&a.transport, &b.transport, sizeof(a.transport)) != 0) {
    return testing::AssertionFailure() << "transport stats differ";
  }
  return testing::AssertionSuccess();
}

}  // namespace

// ------------------------------------------------- scheduling invariance

namespace {

struct GridOutcome {
  std::vector<serve::SessionReport> reports;
  serve::ServerStats stats;
};

GridOutcome run_grid(std::size_t shards, bool wheel, bool steal) {
  serve::ServerConfig cfg;
  cfg.shards = shards;
  cfg.wheel = wheel;
  cfg.work_steal = steal;
  serve::SessionManager server(cfg, world().env());
  std::vector<serve::SessionId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(server.create_session());
  for (int i = 0; i < 120; ++i) server.tick();
  server.drain();
  GridOutcome out;
  for (const auto id : ids) out.reports.push_back(server.report(id));
  out.stats = server.stats();
  return out;
}

}  // namespace

// The documented contract: shard count, scheduler mode and work-steal
// are pure work-distribution knobs — every grid point reproduces the
// shards=1/compat run byte-for-byte, per session.
TEST(ShardScheduling, ShardWheelStealDigestIdentity) {
  const GridOutcome base = run_grid(1, /*wheel=*/false, /*steal=*/true);
  ASSERT_EQ(base.reports.size(), 6u);
  // The run is non-trivial: windows classified, video decoded.
  EXPECT_GT(base.reports[0].windows.size(), 10u);
  EXPECT_GT(base.reports[0].stats.frames_decoded, 100u);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    for (const bool wheel : {false, true}) {
      for (const bool steal : {false, true}) {
        const GridOutcome got = run_grid(shards, wheel, steal);
        ASSERT_EQ(got.reports.size(), base.reports.size());
        for (std::size_t i = 0; i < base.reports.size(); ++i) {
          EXPECT_TRUE(reports_identical(got.reports[i], base.reports[i]))
              << "shards=" << shards << " wheel=" << wheel
              << " steal=" << steal << " session " << i;
        }
        EXPECT_EQ(got.stats.results_routed, base.stats.results_routed)
            << "shards=" << shards << " wheel=" << wheel
            << " steal=" << steal;
      }
    }
  }
}

// A 4-shard wheel-scheduled fleet under transport loss plus server-level
// batcher faults replays exactly: run twice, byte-compare everything.
TEST(ShardScheduling, ShardedLossyReplayIdentity) {
  const auto run = [] {
    serve::ServerConfig cfg;
    cfg.shards = 4;
    cfg.wheel = true;
    cfg.fault.rate = 0.05;  // server plan: batcher fallback site
    cfg.fault.seed = 99;
    cfg.session.transport.enabled = true;
    cfg.session.transport.fec.enabled = true;
    cfg.session.fault.rate = 0.05;  // per-session plan, id-mixed seed
    cfg.session.fault.seed = 17;
    serve::SessionManager server(cfg, world().env());
    std::vector<serve::SessionId> ids;
    for (int i = 0; i < 6; ++i) ids.push_back(server.create_session());
    for (int i = 0; i < 120; ++i) server.tick();
    server.drain();
    struct Outcome {
      std::vector<serve::SessionReport> reports;
      std::vector<affectsys::fault::FaultCounts> faults;
      serve::ServerStats stats;
    } out;
    for (const auto id : ids) {
      out.reports.push_back(server.report(id));
      out.faults.push_back(server.session(id).fault_counts());
    }
    out.stats = server.stats();
    return out;
  };

  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.reports.size(), b.reports.size());
  std::uint64_t total_lost = 0;
  std::uint64_t total_faults = 0;
  for (std::size_t i = 0; i < a.reports.size(); ++i) {
    EXPECT_TRUE(reports_identical(a.reports[i], b.reports[i]))
        << "session " << i;
    EXPECT_EQ(a.faults[i].total, b.faults[i].total) << "session " << i;
    EXPECT_EQ(a.faults[i].by_kind, b.faults[i].by_kind) << "session " << i;
    total_lost += a.reports[i].transport.packets_lost;
    total_faults += a.faults[i].total;
  }
  // The plans actually fired — this is a lossy replay, not a clean one.
  EXPECT_GT(total_lost, 0u);
  EXPECT_GT(total_faults, 0u);
  EXPECT_EQ(std::memcmp(&a.stats, &b.stats, sizeof(a.stats)), 0);
}

// ------------------------------------------------- feature-bank cache

// On a hop-quantized workload the shared feature bank serves the bulk
// of all rows, and the run is byte-identical to live extraction.
TEST(FeatureBank, QuantizedScriptCacheByteIdentity) {
  const auto run = [](bool cache) {
    serve::ServerConfig cfg;
    cfg.feature_bank_cache = cache;
    serve::SessionManager server(cfg, world().env(/*use_quantized=*/true));
    std::vector<serve::SessionId> ids;
    for (int i = 0; i < 3; ++i) ids.push_back(server.create_session());
    for (int i = 0; i < 120; ++i) server.tick();
    server.drain();
    struct Outcome {
      std::vector<serve::SessionReport> reports;
      std::vector<bool> using_cache;
      bool server_cache = false;
    } out;
    out.server_cache = server.feature_cache() != nullptr;
    for (const auto id : ids) {
      out.reports.push_back(server.report(id));
      out.using_cache.push_back(server.session(id).using_feature_cache());
    }
    return out;
  };

  const auto cached = run(true);
  const auto live = run(false);

  EXPECT_TRUE(cached.server_cache);
  EXPECT_FALSE(live.server_cache);
  ASSERT_EQ(cached.reports.size(), live.reports.size());
  for (std::size_t i = 0; i < cached.reports.size(); ++i) {
    EXPECT_TRUE(cached.using_cache[i]) << "session " << i;
    EXPECT_FALSE(live.using_cache[i]) << "session " << i;
    // The cache carries the load...
    EXPECT_GT(cached.reports[i].stats.feature_rows_cached,
              cached.reports[i].stats.feature_rows_live)
        << "session " << i;
    EXPECT_EQ(live.reports[i].stats.feature_rows_cached, 0u);
    // ...without changing a single byte of output.
    EXPECT_TRUE(reports_identical(cached.reports[i], live.reports[i],
                                  /*ignore_cache_counters=*/true))
        << "session " << i;
  }
}

// Eligibility follows what a session's fault plan can do to its
// samples: a plan that can fire an audio kind (the default kAllKinds
// included) pushes audio that diverges from the script the cache
// indexes, so the session declines the cache; plans limited to net,
// stall, bitstream or batcher kinds leave the pushed stream equal to
// the script and keep it.
TEST(FeatureBank, CacheEligibilityFollowsAudioKinds) {
  using fault::FaultKind;
  using fault::kind_bit;
  struct Row {
    const char* name;
    double rate;
    std::uint32_t kinds;
    bool cached;
  };
  const Row rows[] = {
      {"clean", 0.0, fault::kAllKinds, true},
      {"all kinds (default)", 0.05, fault::kAllKinds, false},
      {"audio kinds", 0.05, fault::kAudioKinds, false},
      {"audio drop only", 0.05, kind_bit(FaultKind::kAudioDrop), false},
      {"net + audio zero", 0.05,
       fault::kNetKinds | kind_bit(FaultKind::kAudioZero), false},
      {"net kinds", 0.05, fault::kNetKinds, true},
      {"session stall", 0.05, kind_bit(FaultKind::kSessionStall), true},
      {"bitstream kinds", 0.05, fault::kBitstreamKinds, true},
      {"batcher fallback", 0.05, kind_bit(FaultKind::kBatcherFallback), true},
  };
  serve::ServerConfig cfg;
  cfg.max_sessions = std::size(rows);
  serve::SessionManager server(cfg, world().env(/*use_quantized=*/true));
  for (const Row& row : rows) {
    serve::SessionConfig sc = cfg.session;
    sc.seed = 5;
    sc.fault = fault::FaultConfig{7, row.rate, row.kinds};
    const auto id = server.create_session(sc);
    EXPECT_EQ(server.session(id).using_feature_cache(), row.cached)
        << row.name;
  }
}

// Sessions whose plans can only touch the network (and one that can
// only stall) are served from the cache, and the run stays
// byte-identical to live extraction: 3-layer simulcast over the lossy
// FEC transport, cache on vs off, at 1 and 4 shards.
TEST(FeatureBank, NetFaultedCacheByteIdentity) {
  struct Outcome {
    std::vector<serve::SessionReport> reports;
    std::vector<bool> using_cache;
  };
  const auto run = [](bool cache, std::size_t shards) {
    serve::ServerConfig cfg;
    cfg.feature_bank_cache = cache;
    cfg.shards = shards;
    cfg.wheel = shards > 1;
    cfg.session.simulcast.enabled = true;
    cfg.session.transport = fault::net_scenario_transport(true);
    cfg.session.transport.layers = 3;
    serve::SessionEnv env = world().env(/*use_quantized=*/true);
    env.workload = &quantized_simulcast_workload();
    serve::SessionManager server(cfg, env);
    std::vector<serve::SessionId> ids;
    const double net_rates[] = {0.02, 0.03, 0.05};
    for (std::size_t i = 0; i < std::size(net_rates); ++i) {
      serve::SessionConfig sc = cfg.session;
      sc.seed = static_cast<unsigned>(31 + i);
      sc.fault = fault::FaultConfig{90 + i, net_rates[i], fault::kNetKinds};
      ids.push_back(server.create_session(sc));
    }
    serve::SessionConfig stall = cfg.session;
    stall.seed = 40;
    stall.fault = fault::FaultConfig{
        94, 0.05, fault::kind_bit(fault::FaultKind::kSessionStall)};
    ids.push_back(server.create_session(stall));
    for (int i = 0; i < 120; ++i) server.tick();
    server.drain();
    Outcome out;
    for (const auto id : ids) {
      out.reports.push_back(server.report(id));
      out.using_cache.push_back(server.session(id).using_feature_cache());
    }
    return out;
  };

  // Compared per shard count: a session whose window phase differs
  // from its shard-mates (the stall re-anchors it) may see its results
  // on a different tick under another sharding.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const Outcome live = run(/*cache=*/false, shards);
    const Outcome cached = run(/*cache=*/true, shards);
    ASSERT_EQ(live.reports.size(), 4u);
    ASSERT_EQ(cached.reports.size(), live.reports.size());
    std::uint64_t lost = 0;
    for (std::size_t i = 0; i < 3; ++i) {
      lost += live.reports[i].transport.packets_lost;
    }
    EXPECT_GT(lost, 0u) << "shards=" << shards << ": no packet dropped";
    EXPECT_GT(live.reports[3].stats.stall_ticks, 0u)
        << "shards=" << shards << ": no stall fired";
    EXPECT_GT(live.reports[3].realtime.gap_resyncs, 0u)
        << "shards=" << shards << ": no stall outlasted the gap tolerance";
    for (std::size_t i = 0; i < live.reports.size(); ++i) {
      EXPECT_FALSE(live.using_cache[i])
          << "shards=" << shards << " session " << i;
      EXPECT_TRUE(cached.using_cache[i])
          << "shards=" << shards << " session " << i;
      EXPECT_GT(cached.reports[i].stats.feature_rows_cached,
                cached.reports[i].stats.feature_rows_live)
          << "shards=" << shards << " session " << i;
      EXPECT_TRUE(reports_identical(cached.reports[i], live.reports[i],
                                    /*ignore_cache_counters=*/true))
          << "shards=" << shards << " session " << i;
    }
  }
}

// ------------------------------------------------ shared scratch

// The feature workspace, the audio chunk and the window linearisation
// buffer are per-thread scratch shared by every session a thread runs.
// Two sessions interleaved on one thread (inline pool) must each
// reproduce their solo run byte for byte — on the feature-bank cache
// path (clean plans) and on the live-extraction path (audio-fault
// plans decline the cache).
TEST(SharedScratch, InterleavedSessionsMatchSoloRuns) {
  core::set_global_threads(0);  // every stage on this thread
  for (const bool faulted : {false, true}) {
    SCOPED_TRACE(faulted ? "live extraction (audio faults)" : "cache path");
    const auto session_cfg = [&](unsigned seed) {
      serve::SessionConfig sc = serve::ServerConfig{}.session;
      sc.seed = seed;
      if (faulted) {
        sc.fault = fault::FaultConfig{50 + seed, 0.1, fault::kAudioKinds};
      }
      return sc;
    };
    // Session ids feed the fault seed, so each solo run admits its
    // session under the id it has in the shared run: `skip` throwaway
    // admissions, closed before the first tick, burn the ids before it.
    const auto run = [&](const std::vector<unsigned>& seeds,
                         std::size_t skip) {
      serve::ServerConfig cfg;
      cfg.feature_bank_cache = true;
      // Results apply the tick their window is staged, so neither
      // session's timing depends on the other's batch mates.
      cfg.batcher.max_delay_ticks = 0;
      serve::SessionManager server(cfg, world().env(/*use_quantized=*/true));
      for (std::size_t i = 0; i < skip; ++i) {
        server.close_session(server.create_session(session_cfg(99)));
      }
      std::vector<serve::SessionId> ids;
      for (const unsigned seed : seeds) {
        ids.push_back(server.create_session(session_cfg(seed)));
      }
      for (int i = 0; i < 120; ++i) server.tick();
      server.drain();
      std::vector<serve::SessionReport> out;
      for (const auto id : ids) {
        EXPECT_EQ(server.session(id).using_feature_cache(), !faulted);
        if (faulted) {
          EXPECT_GT(server.session(id).fault_counts().total, 0u);
        }
        out.push_back(server.report(id));
      }
      return out;
    };
    const auto both = run({3, 8}, 0);
    const auto solo_a = run({3}, 0);
    const auto solo_b = run({8}, 1);
    ASSERT_EQ(both.size(), 2u);
    EXPECT_EQ(both[1].session_id, solo_b[0].session_id);
    EXPECT_GT(both[0].windows.size(), 10u);
    EXPECT_GT(both[1].windows.size(), 10u);
    EXPECT_EQ(both[0].stats.feature_rows_cached > 0, !faulted);
    EXPECT_TRUE(reports_identical(both[0], solo_a[0])) << "seed 3";
    EXPECT_TRUE(reports_identical(both[1], solo_b[0])) << "seed 8";
  }
  core::set_global_threads(core::default_thread_count());
}

// --------------------------------------------------- duty-cycle wheel

// A duty-cycled session on the wheel (1 active tick, 7 idle) run for
// 160 server ticks produces *exactly* the output of an always-on
// compat session run for 20 ticks: local-tick timing makes the idle
// phases invisible to media behaviour.
TEST(DutyCycle, IdleTicksAreTransparentToSessionOutput) {
  serve::SessionConfig scfg;
  scfg.seed = 11;

  // Baseline: compat scheduling, always-on, 20 ticks.  max_delay 0 so
  // results apply the tick their window is staged — the configuration
  // under which duty transparency is exact (results never span a sleep).
  serve::ServerConfig base_cfg;
  base_cfg.batcher.max_delay_ticks = 0;
  serve::SessionManager base(base_cfg, world().env());
  const auto base_id = base.create_session(scfg);
  for (int i = 0; i < 20; ++i) base.tick();
  base.drain();
  const auto base_report = base.report(base_id);
  ASSERT_EQ(base_report.stats.ticks, 20u);
  ASSERT_GT(base_report.windows.size(), 0u);

  // Duty-cycled: wheel scheduling, wakes every 8th server tick.
  serve::ServerConfig duty_cfg;
  duty_cfg.wheel = true;
  duty_cfg.batcher.max_delay_ticks = 0;
  serve::SessionConfig duty = scfg;
  duty.duty_active_ticks = 1;
  duty.duty_idle_ticks = 7;
  serve::SessionManager server(duty_cfg, world().env());
  const auto id = server.create_session(duty);
  for (int i = 0; i < 160; ++i) server.tick();
  server.drain();
  const auto duty_report = server.report(id);

  // Ran 20 times in 160 server ticks (8-tick period)...
  EXPECT_EQ(duty_report.stats.ticks, 20u);
  EXPECT_EQ(server.stats().session_runs, 20u);
  // ...and those 20 runs are the always-on run, byte for byte.
  EXPECT_TRUE(reports_identical(duty_report, base_report));
}

// ------------------------------------------- zero steady-state allocs

// The pooled serve path (staging ring + buffer pool + feature bank +
// batcher scratch + wheel slots + decoder recycling) must stop touching
// the allocator once warm.  Only meaningful when the global new/delete
// hooks are compiled in (AFFECTSYS_METRICS).
TEST(ServeAllocations, SteadyStateIsAllocationFree) {
  if (!obs::alloc_tracking_enabled()) {
    GTEST_SKIP() << "allocation hooks not compiled in";
  }
  // Inline execution: no thread-pool task queue in the measurement.
  core::set_global_threads(0);

  serve::ServerConfig cfg;
  cfg.wheel = true;
  cfg.session.record_trace = false;  // no growing replay log
  // No app manager (its kill policy logs) — audio + video only.
  serve::SessionManager server(
      cfg, world().env(/*use_quantized=*/true, /*with_apps=*/false));
  for (int i = 0; i < 4; ++i) server.create_session();

  // Warm: several clip wraps, window cadence established, every ring,
  // pool and scratch vector at its high-water mark.
  for (int i = 0; i < 150; ++i) server.tick();

  const std::uint64_t before = obs::alloc_count();
  for (int i = 0; i < 100; ++i) server.tick();
  const std::uint64_t after = obs::alloc_count();

  core::set_global_threads(core::default_thread_count());
  EXPECT_EQ(after - before, 0u)
      << "steady-state serve ticks allocated " << (after - before)
      << " times";
}

// ------------------------------------------------ per-session heap

// An audio-only session keeps only per-user state: the extractor is the
// classifier's, feature and chunk scratch are per thread, and the audio
// history is an exact window_len ring.  256 always-on fps=0 sessions on
// the serving configuration, 40 ticks (the ring full, the window cadence
// established): in-use heap per session stays at or below 192 KiB.
TEST(ServeMemory, AudioOnlySessionHeapFootprint) {
#ifndef AFFECTSYS_HAVE_MALLINFO2
  GTEST_SKIP() << "needs glibc mallinfo2 and the glibc allocator";
#else
  constexpr std::size_t kSessions = 256;
  serve::ServerConfig cfg;
  cfg.max_sessions = kSessions;
  cfg.shards = 4;
  cfg.wheel = true;
  cfg.feature_bank_cache = true;
  cfg.backlog_hi = 2 * kSessions;  // measure footprint, not shedding
  cfg.session.fps = 0.0;
  cfg.session.record_trace = false;
  serve::SessionManager server(
      cfg, world().env(/*use_quantized=*/true, /*with_apps=*/false));
  const auto heap_in_use = [] {
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
  };
  const std::size_t before = heap_in_use();
  for (std::size_t i = 0; i < kSessions; ++i) server.create_session();
  for (int i = 0; i < 40; ++i) server.tick();
  const std::size_t after = heap_in_use();
  ASSERT_GE(after, before);
  const double kib_per_session =
      static_cast<double>(after - before) / 1024.0 / kSessions;
  std::printf("in-use heap per audio-only session: %.1f KiB\n",
              kib_per_session);
  EXPECT_LE(kib_per_session, 192.0);
#endif
}
