// The benchmark's three traffic mixes, all driven through the public
// serve::SessionManager API, and the shared world (assets, trained
// classifier, app catalog) a server runs against.
//
//   call_fleet     64 always-on video calls, in-process decode: H.264
//                  decode dominates the tick.
//   monitor_fleet  2048 audio-only wearables duty-cycled on the timer
//                  wheel: scheduler, dispatch, audio pipeline, features
//                  and batched inference, and the memory footprint.
//   conf_lossy     8 rooms x 8 speakers, 3-layer simulcast over the
//                  lossy transport: net, simulcast and conf.
//
// Every session seed and fault-plan seed derives from the one workload
// seed, so a claim can be re-checked on a seed it was not tuned on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "affect/classifier.hpp"
#include "android/app.hpp"
#include "core/affect_table.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace affect = ::affectsys::affect;
namespace android = ::affectsys::android;
namespace core = ::affectsys::core;
namespace nn = ::affectsys::nn;
namespace serve = ::affectsys::serve;

struct WorkloadSpec {
  std::string name;
  std::size_t sessions = 0;
  std::size_t admit_per_tick = 1;
  /// 0 = no rooms; otherwise session i joins room (i % rooms).
  std::size_t rooms = 0;
  /// Ticks after admission before anything is measured.
  std::size_t warmup_ticks = 0;
  /// Fixed-length phase at the start of the timed region over which the
  /// count metrics are taken: a pure function of the seed.
  std::size_t count_ticks = 0;
  /// The timed region runs in whole blocks of this many ticks.
  std::size_t block_ticks = 0;
  /// Sessions replayed standalone for the identity check and the
  /// per-stage timings.
  std::size_t sampled_sessions = 0;
  serve::WorkloadConfig assets;
  serve::ServerConfig server;
};

/// Throws std::invalid_argument for an unknown name.
WorkloadSpec workload_spec(const std::string& name);

/// The config session `id` (1-based admission order) is admitted with.
serve::SessionConfig session_config(const WorkloadSpec& spec,
                                    std::uint64_t workload_seed,
                                    serve::SessionId id);

/// Immutable world one server runs against.
struct World {
  std::unique_ptr<serve::SharedWorkload> workload;
  std::unique_ptr<affect::AffectClassifier> classifier;
  std::vector<android::App> catalog;
  core::AppAffectTable table;

  serve::SessionEnv env() const;
};

/// CPU seconds spent in each setup step.
struct SetupTimes {
  double workload_s = 0.0;
  double train_s = 0.0;
};

std::unique_ptr<World> build_world(const WorkloadSpec& spec, SetupTimes& t);

/// splitmix64 finalizer: derives independent seeds from one.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

}  // namespace perfbench
