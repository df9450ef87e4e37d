#include "serve/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "signal/window.hpp"

namespace affectsys::serve {

namespace {

/// FNV-1a over a byte plane; order-sensitive, so two digests match only
/// when every decoded pixel matched in sequence.
void fnv_plane(std::uint64_t& h, const h264::Plane& p) {
  for (std::uint8_t b : p.data) {
    h ^= b;
    h *= 1099511628211ull;
  }
}

}  // namespace

Session::Session(SessionId id, const SessionConfig& cfg, const SessionEnv& env,
                 bool inline_inference, std::uint64_t start_tick)
    : id_(id),
      cfg_([&] {
        SessionConfig c = cfg;
        if (c.realtime.async) {
          throw std::invalid_argument(
              "Session: realtime.async must be false (server owns inference)");
        }
        if (c.realtime.obs_scope.empty()) {
          c.realtime.obs_scope = "serve.s" + std::to_string(id);
        }
        return c;
      }()),
      env_([&] {
        // Checked here (not in the body): members below dereference both.
        if (env.workload == nullptr || env.classifier == nullptr) {
          throw std::invalid_argument(
              "Session: workload and classifier required");
        }
        return env;
      }()),
      inline_inference_(inline_inference),
      scope_(cfg_.realtime.obs_scope),
      pipeline_(*env.classifier, cfg_.realtime),
      fault_plan_([&] {
        // Mix the session id into the plan seed so identically
        // configured tenants fault independently (and a restarted
        // session replays its own schedule, not a neighbour's).
        fault::FaultConfig fc = cfg.fault;
        fc.seed ^= 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(id) + 1);
        return fc;
      }()),
      decoder_(h264::DecoderConfig{/*enable_deblock=*/true,
                                   /*resilient=*/true}),
      selector_(cfg_.selector),
      app_rng_(cfg_.seed ^ 0x9e3779b9u) {
  local_tick_ = start_tick;
  start_tick_ = start_tick;
  last_rung_change_ = start_tick;
  script_ = env_.workload->make_script(cfg_.seed, cfg_.script_segments);
  if (script_.empty()) {
    throw std::invalid_argument("Session: script_segments must be >= 1");
  }
  chunk_len_ = static_cast<std::size_t>(
      std::llround(cfg_.tick_s * cfg_.realtime.sample_rate_hz));

  // Integer per-segment sample counts.  Quantized workloads fill these;
  // for legacy (unquantized) scripts derive them with exactly the
  // truncating casts fill_chunk historically applied per sample, so the
  // generated audio is bit-identical either way.
  const double rate = cfg_.realtime.sample_rate_hz;
  seg_start_.reserve(script_.size() + 1);
  seg_start_.push_back(0);
  for (ScriptSegment& seg : script_) {
    if (seg.speech_samples == 0 && seg.silence_samples == 0) {
      seg.speech_samples = static_cast<std::size_t>(seg.speech_s * rate);
      seg.silence_samples = static_cast<std::size_t>(seg.silence_s * rate);
    }
    seg_start_.push_back(seg_start_.back() + seg.speech_samples +
                         seg.silence_samples);
  }
  script_len_ = seg_start_.back();

  // Feature-bank cache eligibility: sink-mode inference, no plan that
  // can fire an audio kind, and every geometry the frame classifier
  // relies on hop-aligned.  Audio kinds are the only faults that alter
  // or drop samples between fill_chunk and push_audio.  Every other
  // kind leaves the pushed stream equal to the script stream: a stall
  // returns before fill_chunk (neither the script nor samples_pushed_
  // advances), the pipeline's gap resync drops its buffer rather than
  // zero-filling, and net/bitstream/batcher kinds touch only media or
  // inference.  So windows still end at samples_pushed_ on the script.
  if (const FeatureBankCache* cache = env_.feature_cache;
      cache != nullptr && cache->usable() && !inline_inference_ &&
      !fault_plan_.may_fire(fault::kAudioKinds) && script_len_ > 0) {
    const affect::FeatureExtractor& fx = env_.classifier->extractor();
    const auto& mc = fx.config().mfcc;
    bool ok = cache->hop() == mc.hop && cache->frame_len() == mc.frame_len &&
              cache->feature_dim() == fx.feature_dim() && mc.hop != 0 &&
              chunk_len_ % mc.hop == 0 && script_len_ % mc.hop == 0;
    for (const ScriptSegment& seg : script_) {
      if (!ok) break;
      ok = cache->covers(seg.emotion) &&
           cache->utterance_len(seg.emotion) ==
               env_.workload->utterance(seg.emotion).size() &&
           seg.speech_samples % mc.hop == 0 &&
           (seg.speech_samples + seg.silence_samples) % mc.hop == 0;
    }
    use_cache_ = ok;
  }

  if (env_.app_table != nullptr && env_.catalog != nullptr &&
      !env_.catalog->empty()) {
    kill_policy_ = std::make_unique<core::EmotionalKillPolicy>(*env_.app_table);
    pm_ = std::make_unique<android::ProcessManager>(
        *env_.catalog, android::ProcessManagerConfig{}, *kill_policy_);
  }

  c_windows_ = &scope_.counter("serve.windows");
  c_frames_ = &scope_.counter("serve.frames_decoded");
  c_frames_dropped_ = &scope_.counter("serve.frames_dropped");
  c_nals_deleted_ = &scope_.counter("serve.nals_deleted");
  c_mode_switches_ = &scope_.counter("serve.mode_switches");
  c_faults_ = &scope_.counter("serve.faults_injected");
  c_decode_errors_ = &scope_.counter("serve.decode_errors");
  c_chunks_dropped_ = &scope_.counter("serve.audio_chunks_dropped");

  if (cfg_.simulcast.enabled) {
    sim_clip_ = env_.workload->simulcast_clip();
    if (sim_clip_ == nullptr) {
      throw std::invalid_argument(
          "Session: simulcast enabled but the workload built no clip "
          "(set WorkloadConfig::simulcast.layers)");
    }
    const std::size_t n = sim_clip_->layer_count();
    if (cfg_.transport.enabled &&
        static_cast<std::size_t>(cfg_.transport.layers) != n) {
      throw std::invalid_argument(
          "Session: transport.layers must equal the simulcast clip's "
          "layer count");
    }
    sim_policy_ = !cfg_.simulcast.use_default_policy
                      ? cfg_.simulcast.policy
                  : cfg_.simulcast.conference
                      ? simulcast::conference_switch_policy(n)
                      : simulcast::default_switch_policy(n);
    // Sessions join on the top layer; the first picture's join path
    // (sim_layer_valid_ starts false) tunes the decoder to it.
    sim_selector_ = simulcast::LayerSelector(n, n - 1);
    c_layer_switches_ = &scope_.counter("serve.sim.layer_switches");
    c_layer_wait_ = &scope_.counter("serve.sim.wait_pictures");
    c_downswitch_sheds_ = &scope_.counter("serve.sim.downswitch_sheds");
    for (std::size_t l = 0; l < n; ++l) {
      const std::string prefix = "serve.sim.layer" + std::to_string(l);
      c_layer_pictures_[l] = &scope_.counter(prefix + ".pictures");
      c_layer_bytes_[l] = &scope_.counter(prefix + ".bytes");
    }
  }

  if (cfg_.transport.enabled) {
    link_ = std::make_unique<net::TransportLink>(cfg_.transport, &fault_plan_,
                                                 &fault_counts_);
    c_packets_sent_ = &scope_.counter("serve.net.packets_sent");
    c_packets_lost_ = &scope_.counter("serve.net.packets_lost");
    c_packets_recovered_ = &scope_.counter("serve.net.packets_recovered");
    c_nals_lost_ = &scope_.counter("serve.net.nals_lost");
  }

  pipeline_.set_window_sink(
      [this](double t_end, std::span<const double> window) {
        on_window(t_end, window);
      });
}

void Session::fill_chunk(std::vector<double>& chunk) {
  for (double& sample : chunk) {
    const ScriptSegment* seg = &script_[script_idx_];
    std::size_t total_n = seg->speech_samples + seg->silence_samples;
    while (script_offset_ >= total_n) {
      script_offset_ = 0;
      script_idx_ = (script_idx_ + 1) % script_.size();
      seg = &script_[script_idx_];
      total_n = seg->speech_samples + seg->silence_samples;
    }
    if (script_offset_ < seg->speech_samples) {
      const std::span<const double> utt = env_.workload->utterance(seg->emotion);
      sample = utt[script_offset_ % utt.size()];
    } else {
      sample = 0.0;
    }
    ++script_offset_;
  }
}

void Session::update_rung(int ladder_pressure) {
  const LadderConfig* lc = env_.ladder;
  if (lc == nullptr || !lc->enabled) return;
  // Eligibility from the session's own emotion stability: the ladder
  // spends precision where the signal is volatile and saves it where
  // recent classifications were confident and calm.
  int eligible = 0;
  if (conf_ema_ >= lc->conf_int8 && calm_results_ >= lc->calm_windows) {
    eligible = 1;
  }
  if (conf_ema_ >= lc->conf_hdc && calm_results_ >= 2 * lc->calm_windows) {
    eligible = 2;
  }
  const int target = std::min({ladder_pressure, eligible,
                               static_cast<int>(env_.max_rung)});
  const int cur = static_cast<int>(rung_);
  if (target == cur) return;
  // Dwell hysteresis on the local clock: one step per move, no move
  // inside the dwell window — a session cannot flap between rungs
  // faster than hysteresis_ticks, whatever the backlog does.
  if (local_tick_ - last_rung_change_ < lc->hysteresis_ticks) return;
  rung_ = static_cast<Rung>(cur + (target > cur ? 1 : -1));
  last_rung_change_ = local_tick_;
  ++stats_.rung_switches;
  if (cfg_.record_trace) rung_trace_.emplace_back(local_tick_, rung_);
}

void Session::pump_audio(std::uint64_t tick, int ladder_pressure) {
  ++stats_.ticks;
  current_tick_ = tick;
  // A tick that delivers no audio (stall, dropped chunk) is silence to
  // the active-speaker detector.
  last_energy_ = 0.0;
  // Rung chosen before any audio is pushed, so every window this tick
  // stages (the sink fires inside push_audio) carries one rung.
  update_rung(ladder_pressure);
  if (fault_plan_.enabled()) {
    if (stall_remaining_ > 0) {
      // Injected stall: media time passes, no audio arrives.  The
      // pipeline sees the gap when audio resumes and resyncs.
      --stall_remaining_;
      ++stats_.stall_ticks;
      return;
    }
    if (fault_plan_.next(fault::kind_bit(fault::FaultKind::kSessionStall))) {
      fault_counts_.record(fault::FaultKind::kSessionStall);
      c_faults_->add(1);
      // 1-3 s of media time at the default 0.1 s tick — long enough to
      // exceed the pipeline's gap tolerance sometimes, not always.
      stall_remaining_ = 9 + fault_plan_.draw(21);
      ++stats_.stall_ticks;
      return;
    }
  }
  // Per-thread scratch: the chunk is consumed by push_audio() below
  // (the pipeline copies what it keeps), so sessions sharing a pool
  // thread can share the buffer.
  thread_local std::vector<double> chunk;
  chunk.resize(chunk_len_);
  fill_chunk(chunk);
  if (fault_plan_.enabled()) {
    const std::uint64_t before = fault_counts_.total;
    if (!fault::maybe_fault_audio(chunk, fault_plan_, fault_counts_)) {
      c_faults_->add(1);
      ++stats_.chunks_dropped;
      c_chunks_dropped_->add(1);
      return;  // capture gap: the chunk never reaches the pipeline
    }
    if (fault_counts_.total != before) c_faults_->add(1);
  }
  // Active-speaker observation: mean-square energy of the chunk that
  // actually reaches the pipeline (post-fault, so a zeroed chunk reads
  // as silence — the detector hears what the pipeline hears).
  if (!chunk.empty()) {
    double acc = 0.0;
    for (double s : chunk) acc += s * s;
    last_energy_ = acc / static_cast<double>(chunk.size());
  }
  // Media time runs on the *local* clock: under compat scheduling it
  // equals the server tick, under wheel scheduling it advances only on
  // ticks that run, so idle phases never appear as capture gaps.
  samples_pushed_ += chunk.size();
  pipeline_.push_audio(static_cast<double>(local_tick_) * cfg_.tick_s, chunk);
}

// The pipeline emits windows after the whole chunk is buffered, so
// every window this push produces ends exactly at samples_pushed_ —
// which pins the window's absolute script position for cached_row().
const nn::Matrix& Session::extract_features(std::span<const double> window) {
  // Per-thread scratch: on_window() copies the features out (staged
  // pool block or inline classify) before another session on this
  // thread can extract.
  thread_local affect::FeatureWorkspace ws;
  const affect::FeatureExtractor& fx = env_.classifier->extractor();
  if (use_cache_) {
    const FeatureBankCache& cache = *env_.feature_cache;
    const std::size_t hop = cache.hop();
    const std::size_t frame_len = cache.frame_len();
    const std::size_t start_abs = samples_pushed_ - window.size();
    if (window.size() <= samples_pushed_ && start_abs % hop == 0) {
      fx.prepare_workspace(ws);
      nn::Matrix& out = ws.features;
      const std::size_t frames =
          signal::frame_count(window.size(), frame_len, hop);
      const std::size_t T = std::min(frames, fx.timesteps());
      for (std::size_t t = 0; t < T; ++t) {
        const std::span<float> row = out.row(t);
        if (t * hop + frame_len <= window.size() &&
            cached_row(start_abs + t * hop, row)) {
          ++stats_.feature_rows_cached;
          continue;
        }
        // Boundary (or zero-padded tail) frame: compute live, exactly
        // as extract_into() would.
        signal::copy_frame(window, t, hop, ws.frame);
        fx.compute_frame_row(ws.frame, row, ws);
        ++stats_.feature_rows_live;
      }
      fx.standardize_rows(out, T);
      return out;
    }
  }
  return fx.extract_into(window, ws);
}

bool Session::cached_row(std::size_t abs, std::span<float> row) const {
  const FeatureBankCache& cache = *env_.feature_cache;
  const std::size_t frame_len = cache.frame_len();
  const std::size_t o = abs % script_len_;
  if (o + frame_len > script_len_) return false;  // wraps the script pass
  const auto it = std::upper_bound(seg_start_.begin(), seg_start_.end(), o);
  const std::size_t s = static_cast<std::size_t>(it - seg_start_.begin()) - 1;
  const ScriptSegment& seg = script_[s];
  const std::size_t rel = o - seg_start_[s];
  if (rel < seg.speech_samples) {
    // Interior-speech frame: the speech span plays the banked utterance
    // looped modulo its length, so the row is a pure function of the
    // phase within the utterance.
    if (o + frame_len > seg_start_[s] + seg.speech_samples) return false;
    const std::span<const float> src = cache.speech_row(
        seg.emotion, rel % cache.utterance_len(seg.emotion));
    std::memcpy(row.data(), src.data(), src.size() * sizeof(float));
    return true;
  }
  if (o + frame_len > seg_start_[s + 1]) return false;
  const std::span<const float> src = cache.silence_row();
  std::memcpy(row.data(), src.data(), src.size() * sizeof(float));
  return true;
}

void Session::on_window(double t_end, std::span<const double> window) {
  const nn::Matrix& features = extract_features(window);
  ++stats_.windows_enqueued;
  c_windows_->add(1);
  if (inline_inference_) {
    // Standalone reference path: classify at the sink, exactly where a
    // non-served pipeline would.
    record_result(next_seq_++, t_end,
                  env_.classifier->classify_features(features));
    return;
  }
  if (staged_count_ == staged_.size()) staged_.emplace_back();
  InferenceRequest& req = staged_[staged_count_++];
  req.session = id_;
  req.seq = next_seq_++;
  req.enqueue_tick = current_tick_;
  req.t_end = t_end;
  req.set_features(features, env_.feature_pool);
  req.rung = rung_;
  switch (rung_) {
    case Rung::kFp32: ++stats_.windows_fp32; break;
    case Rung::kInt8: ++stats_.windows_int8; break;
    case Rung::kHdc:  ++stats_.windows_hdc;  break;
  }
  // Approximate storage: the staged copy (the bytes that sit in the
  // pool and feed inference) is bit-truncated; bits == 0 — the default
  // — touches nothing, which the byte-identity tests pin.
  if (env_.ladder != nullptr && env_.ladder->truncate_bits > 0) {
    nn::truncate_mantissa(
        {reinterpret_cast<float*>(req.features.data()), req.size()},
        env_.ladder->truncate_bits);
  }
}

std::vector<InferenceRequest> Session::take_staged() {
  inflight_ += staged_count_;
  std::vector<InferenceRequest> out;
  out.reserve(staged_count_);
  for (std::size_t i = 0; i < staged_count_; ++i) {
    out.push_back(std::move(staged_[i]));
  }
  staged_count_ = 0;
  return out;
}

void Session::drain_staged(InferenceBatcher& b) {
  inflight_ += staged_count_;
  for (std::size_t i = 0; i < staged_count_; ++i) {
    b.enqueue(std::move(staged_[i]));
  }
  staged_count_ = 0;
}

void Session::apply_result(const RoutedResult& r) {
  if (inflight_ == 0) {
    throw std::logic_error("Session: result applied with nothing in flight");
  }
  --inflight_;
  record_result(r.seq, r.t_end, r.result);
}

void Session::record_result(std::uint64_t seq, double t_end,
                            const affect::ClassificationResult& res) {
  if (cfg_.record_trace) {
    windows_.push_back(WindowRecord{seq, t_end, res.emotion, res.confidence,
                                    res.probabilities});
  }
  ++stats_.results_applied;
  // Ladder stability inputs (pure bookkeeping: nothing downstream of
  // the classification reads these, so they are free to advance even
  // ladder-off).
  conf_ema_ = 0.75f * conf_ema_ + 0.25f * res.confidence;
  ++calm_results_;
  if (const auto stable = pipeline_.apply_label(t_end, res.emotion)) {
    if (cfg_.record_trace) stable_trace_.emplace_back(t_end, *stable);
    policy_mode_ = policy_.mode_for(*stable);
    if (kill_policy_) kill_policy_->set_emotion(*stable);
    ++stats_.mode_switches;
    c_mode_switches_->add(1);
    // A stable-emotion switch is volatility: the calm streak restarts,
    // pulling the session back toward the precise rungs.
    calm_results_ = 0;
  }
}

void Session::tick_media(std::uint64_t /*tick*/, int degrade_level) {
  const bool sim = cfg_.simulcast.enabled;
  // Simulcast sessions gain a degrade rung *below* NAL deletion: level 1
  // is downswitch-only (the policy sees pressure 1 but the decoder mode
  // is not forced yet), so the whole mode ladder shifts one level deeper.
  const int mode_level = sim ? std::max(0, degrade_level - 1) : degrade_level;
  effective_mode_ = adaptive::degraded_mode(policy_mode_, mode_level);
  frame_carry_ += cfg_.fps * cfg_.tick_s;
  const auto budget = static_cast<std::size_t>(frame_carry_);
  frame_carry_ -= static_cast<double>(budget);

  bool shed = degrade_level >= kFrameShedLevel;
  if (sim) shed = sim_request_layer(budget, degrade_level, shed);
  const adaptive::ModeConfig mc = adaptive::mode_config(
      effective_mode_, cfg_.selector.s_th, cfg_.selector.f);
  if (link_) {
    // Transport-fed media: under overload the *sender* sheds (nothing
    // is packetized, so shed frames cost no network bytes), but the
    // receive side still drains in-flight packets every tick.
    if (sim) {
      tick_sim_transport_media(shed ? 0 : budget, mc, local_tick_);
    } else {
      tick_transport_media(shed ? 0 : budget, mc, local_tick_);
    }
    if (shed) {
      stats_.frames_dropped += budget;
      c_frames_dropped_->add(budget);
    }
  } else if (shed) {
    // Every affect-adaptive knob is already exhausted at Combined;
    // beyond that the server sheds this tick's frames outright.
    stats_.frames_dropped += budget;
    c_frames_dropped_->add(budget);
  } else if (budget > 0) {
    if (sim) {
      decode_sim_pictures(budget, mc);
    } else {
      decode_pictures(budget, mc);
    }
  }
  if (sim) sim_sync_counters();

  if (pm_ && cfg_.app_launch_period_ticks != 0 &&
      local_tick_ % cfg_.app_launch_period_ticks == 0) {
    std::uniform_int_distribution<std::size_t> pick(0,
                                                    env_.catalog->size() - 1);
    pm_->launch((*env_.catalog)[pick(app_rng_)].id,
                static_cast<double>(local_tick_) * cfg_.tick_s);
    ++stats_.app_launches;
  }
  ++local_tick_;
}

void Session::decode_pictures(std::size_t budget,
                              const adaptive::ModeConfig& mc) {
  const std::vector<h264::NalUnit>& nals = env_.workload->nal_units();
  decoder_.set_deblock_enabled(mc.deblock);
  std::size_t pictures = 0;

  // Decodes one (possibly faulted) unit.  Every slice consumes its
  // display slot whether it decoded, erred or was skipped during
  // resync — a fault storm must not stall the tick loop.
  const auto decode_one = [&](const h264::NalUnit& unit) {
    if (decode_unit(unit)) ++pictures;
  };

  while (pictures < budget) {
    if (nal_cursor_ >= nals.size()) {
      // Loop the clip with fresh decoder/selector state so every pass
      // is decoded the same way (mode changes aside).
      nal_cursor_ = 0;
      decoder_.reset(h264::DecoderConfig{mc.deblock, /*resilient=*/true});
      selector_.reset();
    }
    const h264::NalUnit& nal = nals[nal_cursor_++];
    const bool slice = h264::is_slice(nal);
    if (slice && mc.delete_nals && !selector_.keeps(nal)) {
      ++stats_.nals_deleted;
      c_nals_deleted_->add(1);
      ++pictures;  // the deleted picture consumed its display slot
      continue;
    }
    if (fault_plan_.enabled()) {
      if (auto faulted =
              fault::maybe_fault_nal(nal, fault_plan_, fault_counts_)) {
        c_faults_->add(1);
        for (const h264::NalUnit& u : *faulted) decode_one(u);
        continue;
      }
    }
    decode_one(nal);
  }
}

// Decodes one unit, digesting decoded pixels.  Returns true when the
// unit consumed a display slot (every slice does — decoded, erred or
// skipped during resync).
bool Session::decode_unit(const h264::NalUnit& unit) {
  const std::uint64_t errs_before = decoder_.activity().nal_errors;
  if (auto pic = decoder_.decode_nal(unit)) {
    fnv_plane(digest_, pic->frame.y);
    fnv_plane(digest_, pic->frame.cb);
    fnv_plane(digest_, pic->frame.cr);
    decoder_.recycle(std::move(pic->frame));
    ++stats_.frames_decoded;
    c_frames_->add(1);
    return true;
  }
  if (h264::is_slice(unit)) {
    ++stats_.pictures_lost;
    if (decoder_.activity().nal_errors != errs_before) {
      ++stats_.decode_errors;
      c_decode_errors_->add(1);
    }
    return true;
  }
  return false;
}

// Transport-fed media tick: packetize `slots` display slots of the
// shared clip onto the link, then decode everything the network
// released at this tick.  Per-tick fault consultation order (see the
// SessionManager::tick contract): the net sites here run after stage
// A's stall/audio sites and before the receive side's per-NAL
// bitstream sites, all on this session's one plan.
void Session::tick_transport_media(std::size_t slots,
                                   const adaptive::ModeConfig& mc,
                                   std::uint64_t tick) {
  const std::vector<h264::NalUnit>& nals = env_.workload->nal_units();

  // Sender.  The Input Selector's NAL deletion happens here — sender-
  // side shedding — so a deleted slice never costs network bytes; any
  // parameter sets in front of it still ship.
  // Access units assemble into a reused ring (payload capacity kept
  // across ticks), so the steady-state sender never allocates.
  const auto append_au = [&](const h264::NalUnit& nal) {
    if (au_count_ < au_.size()) {
      au_[au_count_] = nal;  // copy-assign reuses payload capacity
    } else {
      au_.push_back(nal);
    }
    ++au_count_;
  };

  std::size_t sent_slots = 0;
  while (sent_slots < slots) {
    if (nal_cursor_ >= nals.size()) {
      // Clip wrap: new generation, fresh selector.  The receiver swaps
      // in a fresh decoder when it sees the generation change, so the
      // wrap behaves exactly like the in-process path's reset.
      nal_cursor_ = 0;
      ++send_gen_;
      send_au_ = 0;
      selector_.reset();
    }
    au_count_ = 0;
    bool have_slice = false;
    while (nal_cursor_ < nals.size()) {
      const h264::NalUnit& nal = nals[nal_cursor_++];
      if (!h264::is_slice(nal)) {
        append_au(nal);
        continue;
      }
      have_slice = true;
      if (mc.delete_nals && !selector_.keeps(nal)) {
        ++stats_.nals_deleted;
        c_nals_deleted_->add(1);
        break;  // slice shed before packetization
      }
      append_au(nal);
      break;
    }
    if (au_count_ > 0) {
      link_->send(std::span<const h264::NalUnit>(au_.data(), au_count_),
                  send_au_, send_gen_, tick);
    }
    ++send_au_;
    if (have_slice) ++sent_slots;
  }

  // Receiver: decode in release order.  Declared losses reach the
  // decoder as resync cues — a dropped packet yields *missing* data,
  // not malformed data, so without notify_loss it would drift silently.
  decoder_.set_deblock_enabled(mc.deblock);
  for (const net::DepacketizerEvent& ev : link_->receive(tick)) {
    if (ev.loss) {
      decoder_.notify_loss();
      ++stats_.nals_lost;
      c_nals_lost_->add(1);
      continue;
    }
    if (ev.nal.generation != rx_gen_) {
      rx_gen_ = ev.nal.generation;
      decoder_.reset(h264::DecoderConfig{mc.deblock, /*resilient=*/true});
    }
    const h264::NalUnit& nal = ev.nal.nal;
    if (fault_plan_.enabled()) {
      if (auto faulted =
              fault::maybe_fault_nal(nal, fault_plan_, fault_counts_)) {
        c_faults_->add(1);
        for (const h264::NalUnit& u : *faulted) decode_unit(u);
        continue;
      }
    }
    decode_unit(nal);
  }

  // Roll link totals into the stats block (obs counters get deltas —
  // stats_ still holds the previous tick's totals here).
  const net::TransportStats ts = link_->stats();
  const std::uint64_t sent = ts.packets_sent + ts.parity_sent;
  c_packets_sent_->add(sent - stats_.packets_sent);
  c_packets_lost_->add(ts.packets_lost - stats_.packets_lost);
  c_packets_recovered_->add(ts.packets_recovered - stats_.packets_recovered);
  stats_.packets_sent = sent;
  stats_.packets_lost = ts.packets_lost;
  stats_.packets_recovered = ts.packets_recovered;
}

// Evaluates the switch policy over this tick's context and applies the
// downswitch-before-shed override: a shed verdict from the server first
// becomes a request for the bottom layer, and only a session already
// locked there (switch complete, nothing pending) actually drops frames.
bool Session::sim_request_layer(std::size_t budget, int degrade_level,
                                bool shed) {
  simulcast::ContextVector ctx;
  ctx.pressure = degrade_level;
  if (link_) {
    const net::TransportStats ts = link_->stats();
    const std::uint64_t sent = ts.packets_sent + ts.parity_sent;
    ctx.loss_rate = sent != 0 ? static_cast<double>(ts.packets_lost) /
                                    static_cast<double>(sent)
                              : 0.0;
  }
  const power::DeviceState dev =
      power::device_state_at(cfg_.simulcast.device, local_tick_);
  ctx.battery = dev.battery;
  ctx.thermal_headroom = dev.thermal_headroom;
  ctx.speaker_role = speaker_role_;
  sim_selector_.request(
      sim_policy_.target_layer(policy_mode_, ctx, sim_clip_->layer_count()));
  if (shed) {
    if (sim_selector_.current() == 0 && !sim_selector_.waiting()) return true;
    sim_selector_.request(0);
    stats_.frames_downswitched += budget;
    c_downswitch_sheds_->add(budget);
    return false;
  }
  return shed;
}

// One picture boundary of the aligned clip: wraps the loop, runs the
// selector, and handles layer joins.  In-process joins retune the
// decoder (reset + parameter sets) here; transport joins only update
// the selector state — the caller ships the new layer's parameter sets
// in the same access unit so the receiver can retune.
std::size_t Session::sim_advance_picture(const adaptive::ModeConfig& mc,
                                         bool transport, bool& joined) {
  joined = false;
  if (sim_pic_ >= sim_clip_->pictures()) {
    // Clip wrap: fresh selector cadence and (in-process) decoder state,
    // exactly like the single-stream paths; the transport side bumps
    // the generation so the receiver resets on arrival.
    sim_pic_ = 0;
    sim_layer_valid_ = false;
    selector_.reset();
    if (transport) {
      ++send_gen_;
      send_au_ = 0;
    } else {
      decoder_.reset(h264::DecoderConfig{mc.deblock, /*resilient=*/true});
    }
  }
  const bool idr = sim_clip_->idr_at(sim_pic_);
  const std::size_t layer = sim_selector_.on_picture(idr);
  if (!sim_layer_valid_ || layer != sim_cur_layer_) {
    joined = true;
    sim_cur_layer_ = layer;
    sim_layer_valid_ = true;
    // Deletion thresholds are layer-relative: S_th calibrated for the
    // top layer rescales by this layer's mean P/B slice size.
    selector_.set_layer_scale(sim_clip_->selector_scale(layer));
    if (cfg_.record_trace) {
      layer_trace_.emplace_back(sim_pic_global_,
                                static_cast<std::uint8_t>(layer));
    }
    if (!transport) {
      decoder_.reset(h264::DecoderConfig{mc.deblock, /*resilient=*/true});
      for (const h264::NalUnit& p : sim_clip_->layer(layer).params) {
        decode_unit(p);
      }
    }
  }
  return layer;
}

void Session::decode_sim_pictures(std::size_t budget,
                                  const adaptive::ModeConfig& mc) {
  decoder_.set_deblock_enabled(mc.deblock);
  // Each walked picture index consumes exactly one display slot —
  // deleted, faulted or decoded — so a switch storm cannot stall the
  // tick loop.
  for (std::size_t pictures = 0; pictures < budget; ++pictures) {
    bool joined = false;  // in-process joins are handled inside
    const std::size_t layer = sim_advance_picture(mc, /*transport=*/false,
                                                  joined);
    const h264::NalUnit& nal = sim_clip_->layer(layer).slices[sim_pic_];
    ++sim_pic_;
    ++sim_pic_global_;
    ++stats_.layer_pictures[layer];
    c_layer_pictures_[layer]->add(1);
    if (mc.delete_nals && !selector_.keeps(nal)) {
      ++stats_.nals_deleted;
      c_nals_deleted_->add(1);
      continue;
    }
    stats_.layer_bytes[layer] += nal.byte_size();
    c_layer_bytes_[layer]->add(nal.byte_size());
    if (fault_plan_.enabled()) {
      if (auto faulted =
              fault::maybe_fault_nal(nal, fault_plan_, fault_counts_)) {
        c_faults_->add(1);
        for (const h264::NalUnit& u : *faulted) decode_unit(u);
        continue;
      }
    }
    decode_unit(nal);
  }
}

// Simulcast transport tick: the sender walks the aligned clip picture
// by picture, forwarding the selected layer on its own lane (per-layer
// sequence space), and the receiver follows lane changes at decodable
// entry points.  Layer_bytes counts exactly the slice bytes handed to
// the packetizer — the bytes-on-wire the benches compare against
// deletion-only shedding.
void Session::tick_sim_transport_media(std::size_t slots,
                                       const adaptive::ModeConfig& mc,
                                       std::uint64_t tick) {
  const auto append_au = [&](const h264::NalUnit& nal) {
    if (au_count_ < au_.size()) {
      au_[au_count_] = nal;  // copy-assign reuses payload capacity
    } else {
      au_.push_back(nal);
    }
    ++au_count_;
  };

  for (std::size_t sent_slots = 0; sent_slots < slots; ++sent_slots) {
    bool joined = false;
    const std::size_t layer = sim_advance_picture(mc, /*transport=*/true,
                                                  joined);
    const h264::NalUnit& nal = sim_clip_->layer(layer).slices[sim_pic_];
    ++sim_pic_;
    ++sim_pic_global_;
    ++stats_.layer_pictures[layer];
    c_layer_pictures_[layer]->add(1);
    au_count_ = 0;
    if (joined) {
      // New lane (or new generation): ship the layer's parameter sets
      // in front of the slice so the receiver can retune mid-stream.
      for (const h264::NalUnit& p : sim_clip_->layer(layer).params) {
        append_au(p);
      }
    }
    if (mc.delete_nals && !selector_.keeps(nal)) {
      ++stats_.nals_deleted;
      c_nals_deleted_->add(1);
    } else {
      append_au(nal);
      stats_.layer_bytes[layer] += nal.byte_size();
      c_layer_bytes_[layer]->add(nal.byte_size());
    }
    if (au_count_ > 0) {
      link_->send(std::span<const h264::NalUnit>(au_.data(), au_count_),
                  send_au_, send_gen_, tick, static_cast<std::uint8_t>(layer));
    }
    ++send_au_;
  }

  // Receiver: decode in release order, following the sender's lane.
  // Packets from a lane the decoder is not tuned to are adopted only at
  // a decodable entry point (SPS or IDR slice — exactly what the sender
  // ships on a join); anything else from a stale lane is skipped, as
  // are its loss events — a loss on a lane we stopped watching is not a
  // resync cue.
  decoder_.set_deblock_enabled(mc.deblock);
  for (const net::DepacketizerEvent& ev : link_->receive(tick)) {
    if (ev.loss) {
      if (!rx_layer_valid_ || ev.nal.layer != rx_layer_) continue;
      decoder_.notify_loss();
      ++stats_.nals_lost;
      c_nals_lost_->add(1);
      continue;
    }
    const h264::NalUnit& nal = ev.nal.nal;
    if (!rx_layer_valid_ || ev.nal.layer != rx_layer_) {
      const bool entry = nal.type == h264::NalType::kSps ||
                         nal.type == h264::NalType::kSliceIdr;
      if (!entry) continue;
      rx_layer_ = ev.nal.layer;
      rx_layer_valid_ = true;
      rx_gen_ = ev.nal.generation;
      decoder_.reset(h264::DecoderConfig{mc.deblock, /*resilient=*/true});
    } else if (ev.nal.generation != rx_gen_) {
      rx_gen_ = ev.nal.generation;
      decoder_.reset(h264::DecoderConfig{mc.deblock, /*resilient=*/true});
    }
    if (fault_plan_.enabled()) {
      if (auto faulted =
              fault::maybe_fault_nal(nal, fault_plan_, fault_counts_)) {
        c_faults_->add(1);
        for (const h264::NalUnit& u : *faulted) decode_unit(u);
        continue;
      }
    }
    decode_unit(nal);
  }

  const net::TransportStats ts = link_->stats();
  const std::uint64_t sent = ts.packets_sent + ts.parity_sent;
  c_packets_sent_->add(sent - stats_.packets_sent);
  c_packets_lost_->add(ts.packets_lost - stats_.packets_lost);
  c_packets_recovered_->add(ts.packets_recovered - stats_.packets_recovered);
  stats_.packets_sent = sent;
  stats_.packets_lost = ts.packets_lost;
  stats_.packets_recovered = ts.packets_recovered;
}

void Session::sim_sync_counters() {
  const simulcast::LayerSelectorStats& st = sim_selector_.stats();
  c_layer_switches_->add(st.switches_completed - stats_.layer_switches);
  c_layer_wait_->add(st.pictures_waited - stats_.layer_wait_pictures);
  stats_.layer_switches = st.switches_completed;
  stats_.layer_wait_pictures = st.pictures_waited;
}

SessionReport Session::report() const {
  SessionReport rep;
  rep.session_id = id_;
  rep.windows = windows_;
  rep.stable_trace = stable_trace_;
  rep.rung_trace = rung_trace_;
  rep.layer_trace = layer_trace_;
  if (cfg_.simulcast.enabled) rep.layer_selector = sim_selector_.stats();
  rep.decode_digest = digest_;
  rep.stats = stats_;
  rep.realtime = pipeline_.stats();
  if (pm_) rep.apps = pm_->metrics();
  if (link_) rep.transport = link_->stats();
  return rep;
}

}  // namespace affectsys::serve
