#include "workloads.hpp"

#include <stdexcept>

#include "android/catalog.hpp"
#include "android/personality.hpp"
#include "common.hpp"
#include "fault/plan.hpp"
#include "fault/scenario.hpp"
#include "nn/model.hpp"
#include "simulcast/encoder.hpp"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// The bench_serve serving configuration: 4 shards, timer wheel,
/// feature-bank cache, ladder off.
serve::ServerConfig serving_config(std::size_t sessions,
                                   const serve::SessionConfig& session) {
  serve::ServerConfig cfg;
  cfg.max_sessions = sessions;
  cfg.session = session;
  cfg.shards = 4;
  cfg.wheel = true;
  cfg.feature_bank_cache = true;
  return cfg;
}

/// Hop-quantized scripts (what the feature-bank cache indexes).
serve::WorkloadConfig quantized_assets() {
  serve::WorkloadConfig wc;
  wc.script_quantum_samples = 1600;
  return wc;
}

}  // namespace

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  s.assets = quantized_assets();
  // The server's defaults, except for longer emotion scripts.  A timed
  // region then covers about 20 distinct segments per session instead
  // of the default 6 on repeat, so the fleet's speech/emotion mix, which
  // sets the feature and decode work, varies less from seed to seed.
  s.server.session.script_segments = 24;
  if (name == "call_fleet") {
    s.sessions = 64;
    s.admit_per_tick = 1;
    s.warmup_ticks = 50;
    s.count_ticks = 250;
    s.block_ticks = 25;
    s.sampled_sessions = 4;
    s.server = serving_config(s.sessions, s.server.session);
  } else if (name == "monitor_fleet") {
    // 8 admissions per tick spread the 8-on/248-off wake phases evenly
    // over the 256-tick cycle.  A block is 5 cycles: 40 local ticks per
    // session, a whole number of 5-tick window strides, so every block
    // carries the same work.
    s.sessions = 2048;
    s.admit_per_tick = 8;
    s.warmup_ticks = 256;
    s.count_ticks = 1280;
    s.block_ticks = 1280;
    s.sampled_sessions = 8;
    s.server = serving_config(s.sessions, s.server.session);
    s.server.session.fps = 0.0;
    s.server.session.duty_active_ticks = 8;
    s.server.session.duty_idle_ticks = 248;
    s.server.session.record_trace = false;
    // Watermarks scale with the due set (~1/32 of the fleet), as in
    // bench_serve's idle sweep.
    s.server.backlog_hi = s.sessions / 8;
    s.server.backlog_lo = s.server.backlog_hi / 3;
  } else if (name == "conf_lossy") {
    s.sessions = 64;
    s.rooms = 8;
    s.admit_per_tick = 1;
    s.warmup_ticks = 50;
    s.count_ticks = 250;
    s.block_ticks = 25;
    s.sampled_sessions = 4;
    s.assets.simulcast = affectsys::simulcast::default_simulcast_config();
    s.server = serving_config(s.sessions, s.server.session);
    s.server.session.simulcast.enabled = true;
    s.server.session.transport = affectsys::fault::net_scenario_transport(true);
    s.server.session.transport.layers = 3;
    s.server.session.record_trace = false;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return s;
}

serve::SessionConfig session_config(const WorkloadSpec& spec,
                                    std::uint64_t workload_seed,
                                    serve::SessionId id) {
  serve::SessionConfig cfg = spec.server.session;
  cfg.seed = static_cast<unsigned>(mix_seed(workload_seed, id));
  if (spec.name == "conf_lossy") {
    cfg.fault = affectsys::fault::FaultConfig{
        mix_seed(workload_seed ^ 0xfa17fa17ull, id), 0.02,
        affectsys::fault::kNetKinds};
  }
  return cfg;
}

serve::SessionEnv World::env() const {
  serve::SessionEnv env;
  env.workload = workload.get();
  env.classifier = classifier.get();
  env.app_table = &table;
  env.catalog = &catalog;
  return env;
}

std::unique_ptr<World> build_world(const WorkloadSpec& spec, SetupTimes& t) {
  auto w = std::make_unique<World>();
  double c0 = process_cpu_s();
  w->workload = std::make_unique<serve::SharedWorkload>(spec.assets);
  double c1 = process_cpu_s();
  t.workload_s = c1 - c0;

  // The classifier the serve tests and benches train: a 2-emotion MLP.
  affect::CorpusProfile prof;
  prof.name = "perfbench";
  prof.num_speakers = 4;
  prof.emotions = {affect::Emotion::kAngry, affect::Emotion::kCalm};
  prof.utterances_per_speaker_emotion = 6;
  prof.utterance_seconds = 1.0;
  prof.speaker_spread = 0.1;
  nn::TrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 8;
  tc.learning_rate = 2e-3f;
  w->classifier = std::make_unique<affect::AffectClassifier>(
      affect::train_affect_classifier(nn::ModelKind::kMlp, prof, tc));
  w->catalog = android::build_catalog(android::EmulatorSpec{});
  for (const auto e : {affect::Emotion::kAngry, affect::Emotion::kCalm}) {
    w->table.learn_from_profile(e, android::profile_for_emotion(e),
                                w->catalog);
  }
  t.train_s = process_cpu_s() - c1;
  return w;
}

}  // namespace perfbench
