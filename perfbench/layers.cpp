#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "adaptive/input_selector.hpp"
#include "affect/features.hpp"
#include "android/process.hpp"
#include "conf/room.hpp"
#include "core/emotional_policy.hpp"
#include "core/thread_pool.hpp"
#include "core/timer_wheel.hpp"
#include "fault/plan.hpp"
#include "fault/scenario.hpp"
#include "h264/decoder.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "serve/batcher.hpp"

namespace perfbench {
namespace {

namespace h264 = affectsys::h264;
namespace net = affectsys::net;
namespace fault = affectsys::fault;
namespace obs = affectsys::obs;

double since_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The coded streams the workload's sessions decode: the simulcast
/// layers (parameter sets + slices each) when it runs simulcast, the
/// single-layer prototype clip otherwise.
std::vector<std::vector<h264::NalUnit>> workload_streams(const World& w) {
  std::vector<std::vector<h264::NalUnit>> streams;
  if (const auto* clip = w.workload->simulcast_clip()) {
    for (std::size_t l = 0; l < clip->layer_count(); ++l) {
      const auto& ls = clip->layer(l);
      std::vector<h264::NalUnit> s = ls.params;
      s.insert(s.end(), ls.slices.begin(), ls.slices.end());
      streams.push_back(std::move(s));
    }
  } else {
    streams.push_back(w.workload->nal_units());
  }
  return streams;
}

void replay_h264(const ReplayInputs& in, SpanLog& log, int parent,
                 std::vector<Metric>& out) {
  const auto streams = workload_streams(*in.world);
  obs::Registry& reg = obs::Registry::global();
  obs::Histogram& decode_ns = reg.histogram("h264.decode_ns");
  obs::Histogram& deblock_ns = reg.histogram("h264.deblock_ns");
  const double decode0 = decode_ns.sum();
  const double deblock0 = deblock_ns.sum();

  const h264::DecoderConfig dc{/*enable_deblock=*/true, /*resilient=*/true};
  h264::Decoder dec(dc);
  constexpr int kPasses = 12;
  double ns = 0.0, mbs = 0.0, bits = 0.0;
  std::uint64_t calls = 0;
  const int span = log.begin("h264.Decoder::decode_nal", parent);
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const auto& stream : streams) {
      dec.reset(dc);
      const auto t0 = Clock::now();
      for (const h264::NalUnit& nal : stream) {
        if (auto pic = dec.decode_nal(nal)) dec.recycle(std::move(pic->frame));
      }
      ns += since_ns(t0);
      calls += stream.size();
      const h264::DecodeActivity& a = dec.activity();
      mbs += static_cast<double>(a.intra_mbs + a.inter_mbs + a.skip_mbs);
      bits += static_cast<double>(a.bits_parsed);
    }
  }
  log.end(span, calls);
  out.push_back({"h264.decode_ns_per_mb", ratio(ns, mbs), "ns"});
  out.push_back({"h264.deblock_frac",
                 ratio(deblock_ns.sum() - deblock0, decode_ns.sum() - decode0),
                 "ratio"});
  out.push_back({"h264.bits_per_mb", ratio(bits, mbs), "bit"});

  // Input Selector verdicts over the same slices, at the session's
  // deletion parameters.
  affectsys::adaptive::InputSelector sel(in.spec->server.session.selector);
  constexpr int kSelectPasses = 400;
  std::uint64_t n = 0;
  const int sspan = log.begin("adaptive.InputSelector::keeps", parent);
  const auto t0 = Clock::now();
  for (int pass = 0; pass < kSelectPasses; ++pass) {
    for (const auto& stream : streams) {
      for (const h264::NalUnit& nal : stream) {
        if (!h264::is_slice(nal)) continue;
        sel.keeps(nal);
        ++n;
      }
    }
  }
  const double sel_ns = since_ns(t0);
  log.end(sspan, n);
  out.push_back({"adaptive.select_ns_per_nal",
                 ratio(sel_ns, static_cast<double>(n)), "ns"});
}

/// One-second windows over the banked utterances at a 0.1 s stride.
std::vector<nn::Matrix> replay_features(const ReplayInputs& in, SpanLog& log,
                                        int parent, std::vector<Metric>& out) {
  const World& w = *in.world;
  std::vector<double> audio;
  for (const auto e : w.workload->config().emotions) {
    const auto u = w.workload->utterance(e);
    audio.insert(audio.end(), u.begin(), u.end());
  }
  const auto& rt = in.spec->server.session.realtime;
  const auto win = static_cast<std::size_t>(rt.window_s * rt.sample_rate_hz);
  const auto stride = static_cast<std::size_t>(0.1 * rt.sample_rate_hz);

  affect::FeatureExtractor fx(w.classifier->feature_config());
  affect::FeatureWorkspace ws;
  std::vector<nn::Matrix> features;
  constexpr int kPasses = 12;
  double ns = 0.0;
  std::uint64_t windows = 0;
  const int span = log.begin("affect.FeatureExtractor::extract_into", parent);
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t off = 0; off + win <= audio.size(); off += stride) {
      const std::span<const double> window(audio.data() + off, win);
      const auto t0 = Clock::now();
      const nn::Matrix& m = fx.extract_into(window, ws);
      ns += since_ns(t0);
      ++windows;
      if (pass == 0) features.push_back(m);
    }
  }
  log.end(span, windows);
  out.push_back({"affect.extract_us_per_window",
                 ratio(ns, static_cast<double>(windows)) / 1e3, "us"});
  return features;
}

void replay_batcher(const ReplayInputs& in,
                    const std::vector<nn::Matrix>& features, SpanLog& log,
                    int parent, std::vector<Metric>& out) {
  const auto rows = static_cast<std::size_t>(
      std::max(1.0, std::round(in.rows_per_flush)));
  serve::BatcherConfig bc = in.spec->server.batcher;
  bc.max_batch = rows;
  serve::InferenceBatcher batcher(*in.world->classifier, bc);
  std::vector<serve::RoutedResult> results(rows);
  constexpr int kFlushes = 300;
  double ns = 0.0;
  std::uint64_t seq = 0;
  const int span = log.begin("serve.InferenceBatcher::flush_into", parent);
  for (int f = 0; f < kFlushes; ++f) {
    for (std::size_t r = 0; r < rows; ++r) {
      serve::InferenceRequest req;
      req.session = r + 1;
      req.seq = seq++;
      req.set_features(features[seq % features.size()]);
      batcher.enqueue(std::move(req));
    }
    const auto t0 = Clock::now();
    const std::size_t n = batcher.flush_into(results);
    ns += since_ns(t0);
    if (n != rows) throw std::runtime_error("batcher replay flushed short");
  }
  log.end(span, kFlushes);
  out.push_back({"serve.batch_us_per_row",
                 ratio(ns, static_cast<double>(kFlushes * rows)) / 1e3, "us"});
}

void replay_net(const ReplayInputs& in, SpanLog& log, int parent,
                std::vector<Metric>& out) {
  const World& w = *in.world;
  // Workloads without the transport replay it in the conf_lossy shape
  // (one lane, clean channel) so the layer's cost is still on record.
  net::TransportConfig tc = in.spec->server.session.transport;
  fault::FaultConfig fc;  // rate 0: a disabled plan
  if (tc.enabled) {
    fc = session_config(*in.spec, in.seed, 1).fault;
  } else {
    tc = fault::net_scenario_transport(true);
  }
  fault::FaultPlan plan(fc);
  fault::FaultCounts counts;

  // Access units per lane: parameter sets ride with each IDR.
  std::vector<std::vector<std::vector<h264::NalUnit>>> lanes;
  if (tc.layers > 1) {
    const auto* clip = w.workload->simulcast_clip();
    for (std::size_t l = 0; l < clip->layer_count(); ++l) {
      std::vector<std::vector<h264::NalUnit>> aus;
      for (std::size_t p = 0; p < clip->pictures(); ++p) {
        std::vector<h264::NalUnit> au;
        if (clip->idr_at(p)) au = clip->layer(l).params;
        au.push_back(clip->layer(l).slices[p]);
        aus.push_back(std::move(au));
      }
      lanes.push_back(std::move(aus));
    }
  } else {
    tc.layers = 1;
    std::vector<std::vector<h264::NalUnit>> aus(1);
    for (const h264::NalUnit& u : w.workload->nal_units()) {
      aus.back().push_back(u);
      if (h264::is_slice(u)) aus.emplace_back();
    }
    if (aus.back().empty()) aus.pop_back();
    lanes.push_back(std::move(aus));
  }
  net::TransportLink link(tc, &plan, &counts);

  constexpr std::uint32_t kGenerations = 6;
  double send_ns = 0.0, recv_ns = 0.0;
  std::uint64_t aus_sent = 0, tick = 0;
  const int span = log.begin("net.TransportLink::send+receive", parent);
  for (std::uint32_t g = 0; g < kGenerations; ++g) {
    for (std::size_t p = 0; p < lanes[0].size(); ++p, ++tick) {
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        const auto t0 = Clock::now();
        link.send(lanes[l][p], static_cast<std::uint32_t>(p), g, tick,
                  static_cast<std::uint8_t>(l));
        send_ns += since_ns(t0);
        ++aus_sent;
      }
      const auto t0 = Clock::now();
      link.receive(tick);
      recv_ns += since_ns(t0);
    }
  }
  for (int extra = 0; extra < 64 && !link.idle(); ++extra) {
    const auto t0 = Clock::now();
    link.receive(tick++);
    recv_ns += since_ns(t0);
  }
  log.end(span, aus_sent);
  const net::TransportStats ts = link.stats();
  const double aus = static_cast<double>(aus_sent);
  out.push_back({"net.send_us_per_au", ratio(send_ns, aus) / 1e3, "us"});
  out.push_back({"net.receive_us_per_au", ratio(recv_ns, aus) / 1e3, "us"});
  out.push_back({"net.packets_per_au",
                 ratio(static_cast<double>(ts.packets_sent + ts.parity_sent),
                       aus),
                 "packet"});
  out.push_back({"net.fec_recovered_frac",
                 ratio(static_cast<double>(ts.packets_recovered),
                       static_cast<double>(ts.packets_lost)),
                 "ratio"});
}

/// Replays the recorded member observations through a fresh Room; the
/// room-tick cost and, for workloads without rooms, the dominance moves
/// such a room would make.
void replay_room(const ReplayInputs& in, bool report_switches, SpanLog& log,
                 int parent, std::vector<Metric>& out) {
  constexpr int kReps = 20;
  double ns = 0.0;
  std::uint64_t switches = 0;
  const int span = log.begin("conf.Room::tick", parent);
  for (int rep = 0; rep < kReps; ++rep) {
    affectsys::conf::Room room(1, affectsys::conf::RoomConfig{});
    for (const serve::SessionId id : in.room_members) room.add(id);
    for (std::size_t t = 0; t < in.room_obs.size(); ++t) {
      const auto t0 = Clock::now();
      for (const RoomObs& o : in.room_obs[t]) {
        if (o.ran) room.observe(o.id, o.energy, o.confidence);
      }
      room.tick(t);
      ns += since_ns(t0);
    }
    switches = room.stats().speaker_switches;
  }
  const double ticks = static_cast<double>(kReps * in.room_obs.size());
  log.end(span, static_cast<std::uint64_t>(ticks));
  out.push_back({"conf.room_tick_us", ratio(ns, ticks) / 1e3, "us"});
  if (report_switches) {
    const double minutes = static_cast<double>(in.room_obs.size()) *
                           in.spec->server.session.tick_s / 60.0;
    out.push_back({"conf.speaker_switches_per_room_min",
                   ratio(static_cast<double>(switches), minutes), "1/min"});
  }
}

void replay_launch(const ReplayInputs& in, SpanLog& log, int parent,
                   std::vector<Metric>& out) {
  const World& w = *in.world;
  affectsys::core::EmotionalKillPolicy policy(w.table);
  affectsys::android::ProcessManager pm(w.catalog, {}, policy);
  std::mt19937 rng(static_cast<unsigned>(mix_seed(in.seed, 0x1a)));
  std::uniform_int_distribution<std::size_t> pick(0, w.catalog.size() - 1);
  const double period_s = static_cast<double>(
      in.spec->server.session.app_launch_period_ticks) *
      in.spec->server.session.tick_s;
  constexpr int kLaunches = 2000;
  double ns = 0.0;
  const int span = log.begin("android.ProcessManager::launch", parent);
  for (int i = 0; i < kLaunches; ++i) {
    if (i % 40 == 0) {
      policy.set_emotion(i % 80 == 0 ? affect::Emotion::kAngry
                                     : affect::Emotion::kCalm);
    }
    const auto app = w.catalog[pick(rng)].id;
    const auto t0 = Clock::now();
    pm.launch(app, period_s * i);
    ns += since_ns(t0);
  }
  log.end(span, kLaunches);
  out.push_back({"android.launch_us", ns / kLaunches / 1e3, "us"});
}

void replay_parallel_for(const ReplayInputs& in, SpanLog& log, int parent,
                         std::vector<Metric>& out) {
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(in.due_per_tick)));
  constexpr int kCalls = 2000;
  const int span = log.begin("core::parallel_for", parent);
  const auto t0 = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    affectsys::core::parallel_for(0, n, 1, [](std::size_t, std::size_t) {});
  }
  const double ns = since_ns(t0);
  log.end(span, kCalls);
  out.push_back({"core.parallel_for_us", ns / kCalls / 1e3, "us"});
}

/// The server's wake pattern on a bare wheel: every session scheduled
/// at its admission tick, rescheduled per its duty cycle after each run.
void replay_wheel(const ReplayInputs& in, SpanLog& log, int parent,
                  std::vector<Metric>& out) {
  const WorkloadSpec& s = *in.spec;
  const std::size_t active = std::max<std::size_t>(1, s.server.session.duty_active_ticks);
  const std::size_t idle = s.server.session.duty_idle_ticks;
  affectsys::core::TimerWheel wheel;
  std::vector<std::uint64_t> runs(s.sessions, 0);
  for (std::size_t k = 0; k < s.sessions; ++k) {
    wheel.schedule_at(k / s.admit_per_tick, k);
  }
  std::vector<std::uint64_t> due;
  const std::uint64_t ticks = s.sessions / s.admit_per_tick + 1024;
  std::uint64_t fired = 0;
  const int span = log.begin("core::TimerWheel", parent);
  const auto t0 = Clock::now();
  for (std::uint64_t t = 0; t < ticks; ++t) {
    due.clear();
    wheel.collect(t, due);
    for (const std::uint64_t key : due) {
      const std::uint64_t r = ++runs[key];
      const std::uint64_t delay = (idle != 0 && r % active == 0) ? idle + 1 : 1;
      wheel.schedule_at(t + delay, key);
    }
    fired += due.size();
  }
  const double ns = since_ns(t0);
  log.end(span, fired);
  out.push_back({"core.wheel_ns_per_entry",
                 ratio(ns, static_cast<double>(fired)), "ns"});
}

}  // namespace

void replay_layers(const ReplayInputs& in, SpanLog& log, int parent,
                   std::vector<Metric>& out) {
  // Stage A/C layers run inside pool tasks, stage B/R and the
  // scheduler on the ticking thread.
  std::vector<nn::Matrix> features;
  run_as_pool_task([&] {
    replay_h264(in, log, parent, out);
    features = replay_features(in, log, parent, out);
    replay_net(in, log, parent, out);
    replay_launch(in, log, parent, out);
  });
  replay_batcher(in, features, log, parent, out);
  replay_room(in, in.spec->rooms == 0, log, parent, out);
  replay_parallel_for(in, log, parent, out);
  replay_wheel(in, log, parent, out);
}

}  // namespace perfbench
