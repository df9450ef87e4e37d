// Per-layer replays for the traced run: each layer's public entry point
// is called on the workload's own inputs (its clip or simulcast layers,
// its utterances, its transport config and fault plan, the rows per
// flush and due-list size the server run showed) and timed by the
// benchmark with spans around the calls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One member's observation on one server tick (the active-speaker
/// detector's input).
struct RoomObs {
  serve::SessionId id = 0;
  bool ran = false;
  double energy = 0.0;
  double confidence = 0.0;
};

/// What the server run measured that the replays size themselves by.
struct ReplayInputs {
  const WorkloadSpec* spec = nullptr;
  World* world = nullptr;
  std::uint64_t seed = 0;
  double rows_per_flush = 1.0;
  double due_per_tick = 1.0;
  std::vector<serve::SessionId> room_members;
  std::vector<std::vector<RoomObs>> room_obs;  ///< per tick
};

/// Runs `fn` as a task of the global pool and waits for it.  The serve
/// stages that call into sessions, decode and features run as pool tasks,
/// where nested parallel_for calls run inline; replaying those layers
/// from the same context measures them as the server runs them.
template <typename F>
void run_as_pool_task(F&& fn) {
  core::global_pool().submit(std::forward<F>(fn)).get();
}

/// Runs every layer replay under `parent` and appends its metrics.
void replay_layers(const ReplayInputs& in, SpanLog& log, int parent,
                   std::vector<Metric>& out);

}  // namespace perfbench
