#include "standalone.hpp"

#include "common.hpp"
#include "serve/batcher.hpp"

namespace perfbench {
namespace {

double since_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

bool same_windows(const std::vector<serve::WindowRecord>& a,
                  const std::vector<serve::WindowRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].seq != b[i].seq || a[i].t_end != b[i].t_end ||
        a[i].emotion != b[i].emotion || a[i].confidence != b[i].confidence ||
        a[i].probabilities != b[i].probabilities) {
      return false;
    }
  }
  return true;
}

bool same_counters(const serve::SessionStats& a, const serve::SessionStats& b) {
  return a.ticks == b.ticks && a.windows_enqueued == b.windows_enqueued &&
         a.results_applied == b.results_applied &&
         a.frames_decoded == b.frames_decoded &&
         a.nals_deleted == b.nals_deleted && a.pictures_lost == b.pictures_lost &&
         a.mode_switches == b.mode_switches && a.app_launches == b.app_launches &&
         a.packets_sent == b.packets_sent && a.packets_lost == b.packets_lost &&
         a.layer_bytes == b.layer_bytes &&
         a.feature_rows_cached == b.feature_rows_cached &&
         a.feature_rows_live == b.feature_rows_live;
}

}  // namespace

void SampleLog::observe(const serve::Session& s, std::uint64_t tick) {
  const serve::SessionStats& st = s.stats();
  const bool ran = st.ticks != seen_ticks_;
  const std::uint64_t applied = st.results_applied - seen_applied_;
  if (ran || applied != 0) {
    events_.push_back({tick, ran, static_cast<std::uint32_t>(applied),
                       s.speaker_role()});
  }
  seen_ticks_ = st.ticks;
  seen_applied_ = st.results_applied;
}

ServedSnapshot ServedSnapshot::of(const serve::Session& s) {
  return {s.report(), s.affect_confidence(), s.policy_mode()};
}

std::string StandaloneReplay::replay(const SampleLog& log,
                                     const ServedSnapshot& served,
                                     const serve::SessionEnv& env,
                                     affect::AffectClassifier& classifier) {
  serve::Session sess(log.id_, log.cfg_, env, /*inline_inference=*/false,
                      log.start_tick_);
  serve::BatcherConfig bc;
  bc.max_batch = 64;
  serve::InferenceBatcher batcher(classifier, bc);
  std::vector<serve::RoutedResult> results(bc.max_batch);
  // The server's order within a tick: stage A, stage B, stage C.
  for (const TickEvent& ev : log.events_) {
    if (ev.ran) {
      auto t0 = Clock::now();
      sess.pump_audio(ev.tick, 0);
      pump_ns += since_ns(t0);
      t0 = Clock::now();
      sess.drain_staged(batcher);
      route_ns += since_ns(t0);
    }
    if (ev.applied != 0) {
      if (ev.applied > results.size()) {
        return "more results in one tick than the replay batcher holds";
      }
      const std::size_t n = batcher.flush_into({results.data(), ev.applied});
      if (n != ev.applied) return "served session received results it never staged";
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i) sess.apply_result(results[i]);
      route_ns += since_ns(t0);
    }
    if (ev.ran) {
      sess.set_speaker_role(ev.role);
      const auto t0 = Clock::now();
      sess.tick_media(ev.tick, 0);
      media_ns += since_ns(t0);
      ++runs;
    }
  }
  if (batcher.pending() != 0) return "standalone windows left unclassified";

  const serve::SessionReport r = sess.report();
  const serve::SessionReport& w = served.report;
  if (r.decode_digest != w.decode_digest) return "decode digest";
  if (!same_windows(r.windows, w.windows)) return "window results";
  if (r.stable_trace != w.stable_trace) return "stable emotion trace";
  if (r.layer_trace != w.layer_trace) return "layer trace";
  // The confidence EMA folds in every applied result in order: it pins
  // the window results even where record_trace is off.
  if (sess.affect_confidence() != served.confidence) return "result confidence";
  if (sess.policy_mode() != served.mode) return "decoder mode";
  if (!same_counters(r.stats, w.stats)) return "session counters";
  if (r.apps.cold_starts != w.apps.cold_starts ||
      r.apps.warm_starts != w.apps.warm_starts || r.apps.kills != w.apps.kills) {
    return "app manager";
  }
  return "";
}

}  // namespace perfbench
