// Standalone replay of served sessions.  While the server runs, the
// benchmark logs what a sampled session did on each tick from its public
// counters: whether it was due, how many results stage B routed to it,
// and its conference role.  Afterwards a fresh serve::Session with the
// same id, config and admission tick is driven through the same calls
// outside the server (pump_audio, drain_staged + flush_into,
// apply_result, tick_media) and must reproduce the served session.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// What a sampled session did on one server tick.
struct TickEvent {
  std::uint64_t tick = 0;
  bool ran = false;           ///< was on the due list
  std::uint32_t applied = 0;  ///< results routed to it in stage B
  ::affectsys::simulcast::SpeakerRole role =
      ::affectsys::simulcast::SpeakerRole::kDominant;
};

/// One sampled session's admission and per-tick log.
class SampleLog {
 public:
  SampleLog(serve::SessionId id, const serve::SessionConfig& cfg,
            std::uint64_t start_tick)
      : id_(id), cfg_(cfg), start_tick_(start_tick) {}

  /// Records server tick `tick` from the served session's counters.
  void observe(const serve::Session& s, std::uint64_t tick);

  serve::SessionId id() const { return id_; }

 private:
  friend struct StandaloneReplay;
  serve::SessionId id_;
  serve::SessionConfig cfg_;
  std::uint64_t start_tick_;
  std::vector<TickEvent> events_;
  std::uint64_t seen_ticks_ = 0;
  std::uint64_t seen_applied_ = 0;
};

/// The served session's state at the point the replay must reach.
struct ServedSnapshot {
  serve::SessionReport report;
  float confidence = 0.0f;
  ::affectsys::adaptive::DecoderMode mode{};

  static ServedSnapshot of(const serve::Session& s);
};

/// Replays sampled sessions and accumulates their per-stage wall time
/// (the traced run's serve.stage_* metrics).
struct StandaloneReplay {
  double pump_ns = 0.0;
  double route_ns = 0.0;  ///< drain_staged + apply_result
  double media_ns = 0.0;
  std::uint64_t runs = 0;  ///< session ticks replayed

  /// Returns an empty string when the replay reproduces `served`, or
  /// what differed.  `env` must match the server's session env.
  std::string replay(const SampleLog& log, const ServedSnapshot& served,
                     const serve::SessionEnv& env,
                     affect::AffectClassifier& classifier);
};

}  // namespace perfbench
