// Tests for the real-time pipeline: VAD gating, streaming classification,
// the audio ring against the sliding-vector reference, and the offload
// placement study.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <deque>
#include <random>

#include "affect/realtime.hpp"
#include "affect/speech_synth.hpp"
#include "core/thread_pool.hpp"
#include "nn/model.hpp"
#include "power/offload.hpp"

namespace affect = affectsys::affect;
namespace nn = affectsys::nn;
namespace power = affectsys::power;

// ---------------------------------------------------------------------- VAD

TEST(Vad, SilenceIsRejected) {
  affect::VoiceActivityDetector vad({});
  std::vector<double> silence(16000, 0.0);
  EXPECT_EQ(vad.speech_fraction(silence), 0.0);
}

TEST(Vad, SpeechIsAccepted) {
  affect::SpeechSynthesizer synth(1);
  const auto utt =
      synth.synthesize(affect::Emotion::kAngry, 0, 1.5, 16000.0, 0.1);
  affect::VoiceActivityDetector vad({});
  EXPECT_GT(vad.speech_fraction(utt.samples), 0.4);
}

TEST(Vad, NoiseFloorAdaptsToStationaryNoise) {
  affect::VadConfig cfg;
  affect::VoiceActivityDetector vad(cfg);
  std::mt19937 rng(2);
  std::normal_distribution<double> d(0.0, 0.01);
  std::vector<double> noise(32000);
  for (auto& v : noise) v = d(rng);
  // After adaptation, stationary low-level noise is mostly non-speech.
  vad.speech_fraction(noise);  // first pass adapts
  const double frac = vad.speech_fraction(noise);
  EXPECT_LT(frac, 0.4);
  EXPECT_GT(vad.noise_floor(), 1e-4);
}

TEST(Vad, HangoverBridgesShortPauses) {
  affect::VadConfig cfg;
  cfg.hangover_frames = 8;
  affect::VoiceActivityDetector vad(cfg);
  std::vector<double> loud(cfg.frame_len, 0.5);
  std::vector<double> quiet(cfg.frame_len, 0.0);
  EXPECT_TRUE(vad.process_frame(loud));
  // Hangover keeps the next few silent frames marked as speech.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(vad.process_frame(quiet)) << "frame " << i;
  }
  EXPECT_FALSE(vad.process_frame(quiet));
}

// ----------------------------------------------------------------- pipeline

class PipelineFixture : public ::testing::Test {
 protected:
  static affect::AffectClassifier& classifier() {
    static affect::AffectClassifier clf = [] {
      affect::CorpusProfile prof;
      prof.name = "rt";
      prof.num_speakers = 4;
      prof.emotions = {affect::Emotion::kAngry, affect::Emotion::kCalm};
      prof.utterances_per_speaker_emotion = 6;
      prof.utterance_seconds = 1.0;
      prof.speaker_spread = 0.1;
      nn::TrainConfig tc;
      tc.epochs = 8;
      tc.batch_size = 8;
      tc.learning_rate = 2e-3f;
      return affect::train_affect_classifier(nn::ModelKind::kMlp, prof, tc);
    }();
    return clf;
  }
};

TEST_F(PipelineFixture, SilenceNeverInvokesClassifier) {
  affect::RealtimeConfig cfg;
  affect::RealtimePipeline pipe(classifier(), cfg);
  std::vector<double> silence(1600, 0.0);
  double t = 0.0;
  for (int i = 0; i < 30; ++i) {
    pipe.push_audio(t, silence);
    t += 0.1;
  }
  EXPECT_GT(pipe.stats().windows_considered, 0u);
  EXPECT_EQ(pipe.stats().windows_classified, 0u);
}

TEST_F(PipelineFixture, SustainedSpeechConvergesToTruth) {
  affect::RealtimeConfig cfg;
  cfg.stream.vote_window = 3;
  cfg.stream.min_dwell_s = 0.0;
  affect::RealtimePipeline pipe(classifier(), cfg);

  affect::SpeechSynthesizer synth(3);
  double t = 0.0;
  int raw_labels = 0;
  pipe.on_raw_label([&](double, affect::Emotion, float) { ++raw_labels; });
  // Stream 8 seconds of angry speech in 100 ms chunks.
  for (int u = 0; u < 8; ++u) {
    const auto utt =
        synth.synthesize(affect::Emotion::kAngry, 80 + u, 1.0, 16000.0, 0.1);
    for (std::size_t off = 0; off < utt.samples.size(); off += 1600) {
      const std::size_t n = std::min<std::size_t>(1600, utt.samples.size() - off);
      pipe.push_audio(t, {utt.samples.data() + off, n});
      t += 0.1;
    }
  }
  EXPECT_GT(pipe.stats().windows_classified, 4u);
  EXPECT_GT(raw_labels, 0);
  EXPECT_EQ(pipe.stable_emotion(), affect::Emotion::kAngry);
}

// Regression test for the window-scheduler drift bug: the next deadline
// used to be anchored to buffer_end_t_, so the effective stride was
// quantized up to the chunk boundary (chunks not dividing the stride)
// and chunks longer than the stride considered only one window per
// chunk, silently skipping the rest.  The deadline clock must tick in
// exact strides from the moment the first full window is available,
// independent of chunk size.
TEST_F(PipelineFixture, WindowCountMatchesAnalyticRegardlessOfChunkSize) {
  // All durations are binary-representable so the analytic count below is
  // exact: window 1.0 s, stride 0.5 s, chunks of 0.375 s (< stride, not a
  // divisor of it) and 0.75 s (> stride).
  for (const double chunk_s : {0.375, 0.75}) {
    affect::RealtimeConfig cfg;
    ASSERT_EQ(cfg.window_s, 1.0);
    ASSERT_EQ(cfg.window_stride_s, 0.5);
    affect::RealtimePipeline pipe(classifier(), cfg);

    const auto chunk_len =
        static_cast<std::size_t>(chunk_s * cfg.sample_rate_hz);
    const std::vector<double> silence(chunk_len, 0.0);
    const std::size_t n_chunks =
        static_cast<std::size_t>(30.0 / chunk_s);  // 30 s total
    for (std::size_t i = 0; i < n_chunks; ++i) {
      pipe.push_audio(static_cast<double>(i) * chunk_s, silence);
    }

    // First window fires once one full window of audio has arrived, i.e.
    // after ceil(window / chunk) chunks; one more window per stride after
    // that, up to the stream end.
    const auto chunks_to_fill = static_cast<std::size_t>(
        std::ceil(cfg.window_s / chunk_s));
    const double t_first = static_cast<double>(chunks_to_fill) * chunk_s;
    const double total_s = static_cast<double>(n_chunks) * chunk_s;
    const auto expected =
        static_cast<std::uint64_t>((total_s - t_first) /
                                   cfg.window_stride_s) + 1;
    EXPECT_EQ(pipe.stats().windows_considered, expected)
        << "chunk_s=" << chunk_s;
    // Silence: the VAD gate saves every classifier invocation.
    EXPECT_EQ(pipe.stats().windows_classified, 0u);
  }
}

// -------------------------------------------------------------- audio ring

namespace {

/// The pre-ring RealtimePipeline::push_audio, kept as the reference the
/// ring must reproduce: a std::vector grown by insert and trimmed to one
/// window by erasing from the front.  Same deadline clock, VAD gate,
/// gap resync and drop-newest bound.  With a classifier it classifies
/// inline (sync mode); without one it records what a sink would
/// receive.
class SlidingVectorReference {
 public:
  struct Window {
    double t_end = 0.0;
    std::vector<double> samples;
  };
  struct Label {
    double t_end = 0.0;
    affect::Emotion emotion = affect::Emotion::kNeutral;
    float confidence = 0.0f;
  };

  SlidingVectorReference(affect::AffectClassifier* clf,
                         const affect::RealtimeConfig& cfg)
      : clf_(clf), cfg_(cfg), vad_(cfg.vad), stream_(cfg.stream) {}

  void push_audio(double t_s, std::span<const double> chunk) {
    if (cfg_.gap_tolerance_s > 0.0 && !buffer_.empty() &&
        t_s > buffer_end_t_ + cfg_.gap_tolerance_s) {
      buffer_.clear();
      window_clock_started_ = false;
      ++stats.gap_resyncs;
    }
    stats.samples_in += chunk.size();
    buffer_.insert(buffer_.end(), chunk.begin(), chunk.end());
    buffer_end_t_ =
        t_s + static_cast<double>(chunk.size()) / cfg_.sample_rate_hz;
    const auto window_len =
        static_cast<std::size_t>(cfg_.window_s * cfg_.sample_rate_hz);
    if (buffer_.size() > window_len) {
      buffer_.erase(buffer_.begin(),
                    buffer_.end() - static_cast<long>(window_len));
    }
    while (buffer_.size() >= window_len && buffer_end_t_ >= next_window_t_) {
      if (!window_clock_started_) {
        window_clock_started_ = true;
        next_window_t_ = buffer_end_t_;
      }
      next_window_t_ += cfg_.window_stride_s;
      ++stats.windows_considered;
      const std::span<const double> window{
          buffer_.data() + buffer_.size() - window_len, window_len};
      if (vad_.speech_fraction(window) < cfg_.min_speech_fraction) continue;
      if (clf_ == nullptr) {
        if (outstanding_ >= cfg_.max_inflight) {
          ++stats.windows_dropped;
          continue;
        }
        ++outstanding_;
        ++stats.windows_classified;
        windows.push_back({buffer_end_t_, {window.begin(), window.end()}});
        continue;
      }
      ++stats.windows_classified;
      const affect::ClassificationResult res = clf_->classify(window);
      labels.push_back({buffer_end_t_, res.emotion, res.confidence});
      push_label(buffer_end_t_, res.emotion);
    }
  }

  void apply_label(double t_end, affect::Emotion raw) {
    if (outstanding_ > 0) --outstanding_;
    push_label(t_end, raw);
  }

  affect::RealtimeStats stats;
  std::vector<Window> windows;  ///< sink mode
  std::vector<Label> labels;    ///< sync-classify mode

 private:
  void push_label(double t_end, affect::Emotion raw) {
    if (stream_.push(t_end, raw)) ++stats.stable_changes;
  }

  affect::AffectClassifier* clf_;
  affect::RealtimeConfig cfg_;
  affect::VoiceActivityDetector vad_;
  affect::EmotionStream stream_;
  std::vector<double> buffer_;
  double buffer_end_t_ = 0.0;
  double next_window_t_ = 0.0;
  bool window_clock_started_ = false;
  std::size_t outstanding_ = 0;
};

/// ~40 s of alternating angry and calm speech with silences between
/// utterances, so the VAD gate both passes and rejects windows.
std::vector<double> mixed_capture() {
  affect::SpeechSynthesizer synth(5);
  std::vector<double> audio;
  for (int u = 0; u < 16; ++u) {
    const auto e = (u % 3 == 2) ? affect::Emotion::kCalm
                                : affect::Emotion::kAngry;
    const auto utt = synth.synthesize(e, 70 + u, 2.0, 16000.0, 0.1);
    audio.insert(audio.end(), utt.samples.begin(), utt.samples.end());
    audio.insert(audio.end(), static_cast<std::size_t>(800 * (u % 5)), 0.0);
  }
  return audio;
}

bool bytes_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

class RealtimeRing : public PipelineFixture {};

// The ring replaces the sliding vector without changing one byte the
// pipeline hands out.  Seeded random chunk sizes cover chunks longer
// than the window, chunks that do not divide the stride and 1-sample
// chunks; capture gaps above the tolerance trigger resyncs and gaps
// below it do not.  Sink mode (with drop-newest backpressure and
// interleaved apply_label) and sync-classify mode are both compared.
TEST_F(RealtimeRing, MatchesSlidingVectorReference) {
  const std::vector<double> audio = mixed_capture();
  struct Geometry {
    double window_s, stride_s;
  };
  for (const Geometry g : {Geometry{1.0, 0.5}, Geometry{0.5, 0.3}}) {
    for (const bool sink : {true, false}) {
      SCOPED_TRACE(testing::Message() << "window_s=" << g.window_s
                                      << " sink=" << sink);
      affect::RealtimeConfig cfg;
      cfg.window_s = g.window_s;
      cfg.window_stride_s = g.stride_s;
      cfg.max_inflight = 3;
      cfg.stream.vote_window = 3;
      cfg.stream.min_dwell_s = 0.0;
      const auto window_len =
          static_cast<std::size_t>(cfg.window_s * cfg.sample_rate_hz);

      affect::RealtimePipeline pipe(classifier(), cfg);
      SlidingVectorReference ref(sink ? nullptr : &classifier(), cfg);
      std::vector<SlidingVectorReference::Window> got_windows;
      std::vector<SlidingVectorReference::Label> got_labels;
      std::deque<double> outstanding;
      if (sink) {
        pipe.set_window_sink([&](double t_end, std::span<const double> w) {
          got_windows.push_back({t_end, {w.begin(), w.end()}});
          outstanding.push_back(t_end);
        });
      } else {
        pipe.on_raw_label([&](double t_end, affect::Emotion e, float c) {
          got_labels.push_back({t_end, e, c});
        });
      }

      std::mt19937 rng(1234);
      std::size_t pos = 0;
      std::size_t long_chunks = 0;
      double gap_s = 0.0;
      while (pos < audio.size()) {
        const unsigned pick = rng() % 20;
        std::size_t n = 0;
        if (pick < 2) {
          n = window_len + rng() % (2 * window_len);  // longer than the window
          ++long_chunks;
        } else if (pick < 4) {
          n = 1;
        } else if (pick < 7) {
          n = 1600;
        } else {
          n = 1 + rng() % 3000;  // rarely divides the stride
        }
        if (pick == 19) gap_s += 1.5;           // above the gap tolerance
        if (rng() % 25 == 0) gap_s += 0.4;      // below it
        n = std::min(n, audio.size() - pos);
        const double t =
            static_cast<double>(pos) / cfg.sample_rate_hz + gap_s;
        const std::span<const double> chunk{audio.data() + pos, n};
        pipe.push_audio(t, chunk);
        ref.push_audio(t, chunk);
        pos += n;
        // Sink mode: retire the oldest outstanding window now and then,
        // on both sides, with a seeded label.
        if (sink && !outstanding.empty() && rng() % 2 == 0) {
          const auto e = (rng() % 3 == 0) ? affect::Emotion::kCalm
                                          : affect::Emotion::kAngry;
          pipe.apply_label(outstanding.front(), e);
          ref.apply_label(outstanding.front(), e);
          outstanding.pop_front();
        }
      }

      EXPECT_GT(long_chunks, 0u);
      EXPECT_EQ(std::memcmp(&pipe.stats(), &ref.stats, sizeof(ref.stats)), 0)
          << "considered " << pipe.stats().windows_considered << " vs "
          << ref.stats.windows_considered << ", classified "
          << pipe.stats().windows_classified << " vs "
          << ref.stats.windows_classified << ", resyncs "
          << pipe.stats().gap_resyncs << " vs " << ref.stats.gap_resyncs;
      EXPECT_GT(ref.stats.gap_resyncs, 0u);
      EXPECT_GT(ref.stats.windows_classified, 0u);
      EXPECT_LT(ref.stats.windows_classified, ref.stats.windows_considered);
      if (sink) {
        EXPECT_GT(ref.stats.windows_dropped, 0u);
        ASSERT_EQ(got_windows.size(), ref.windows.size());
        for (std::size_t i = 0; i < got_windows.size(); ++i) {
          EXPECT_EQ(got_windows[i].t_end, ref.windows[i].t_end) << i;
          EXPECT_TRUE(bytes_equal(got_windows[i].samples,
                                  ref.windows[i].samples))
              << "window " << i;
        }
      } else {
        ASSERT_EQ(got_labels.size(), ref.labels.size());
        for (std::size_t i = 0; i < got_labels.size(); ++i) {
          EXPECT_EQ(got_labels[i].t_end, ref.labels[i].t_end) << i;
          EXPECT_EQ(got_labels[i].emotion, ref.labels[i].emotion) << i;
          EXPECT_EQ(std::memcmp(&got_labels[i].confidence,
                                &ref.labels[i].confidence, sizeof(float)),
                    0)
              << "label " << i;
        }
        EXPECT_GT(ref.stats.stable_changes, 0u);
      }
    }
  }
}

// ------------------------------------------------------------ async pipeline

namespace {

namespace core = affectsys::core;

/// Restores the global pool to its default size on scope exit.
struct GlobalPoolGuard {
  ~GlobalPoolGuard() { core::set_global_threads(core::default_thread_count()); }
};

/// Streams 6 seconds of angry speech into `pipe` in 100 ms chunks.
/// Returns the raw-label timestamps observed via the callback.
std::vector<double> feed_angry_speech(affect::RealtimePipeline& pipe,
                                      bool async) {
  std::vector<double> label_times;
  pipe.on_raw_label(
      [&](double t, affect::Emotion, float) { label_times.push_back(t); });
  affect::SpeechSynthesizer synth(3);
  double t = 0.0;
  for (int u = 0; u < 6; ++u) {
    const auto utt =
        synth.synthesize(affect::Emotion::kAngry, 40 + u, 1.0, 16000.0, 0.1);
    for (std::size_t off = 0; off < utt.samples.size(); off += 1600) {
      const std::size_t n =
          std::min<std::size_t>(1600, utt.samples.size() - off);
      const auto changed = pipe.push_audio(t, {utt.samples.data() + off, n});
      // Async mode defers classification, so the capture path can never
      // report a stable change inline.
      if (async) {
        EXPECT_FALSE(changed.has_value());
      }
      t += 0.1;
    }
  }
  // The worker may still be appending to label_times; drain before the
  // vector leaves this scope (idempotent, no-op in sync mode).
  pipe.drain();
  return label_times;
}

}  // namespace

TEST_F(PipelineFixture, AsyncMatchesSyncAfterDrain) {
  GlobalPoolGuard guard;
  core::set_global_threads(2);

  affect::RealtimeConfig sync_cfg;
  sync_cfg.stream.vote_window = 3;
  sync_cfg.stream.min_dwell_s = 0.0;
  affect::RealtimeConfig async_cfg = sync_cfg;
  async_cfg.async = true;
  async_cfg.max_inflight = 64;  // deep enough that nothing sheds

  affect::RealtimePipeline sync_pipe(classifier(), sync_cfg);
  affect::RealtimePipeline async_pipe(classifier(), async_cfg);
  const auto sync_labels = feed_angry_speech(sync_pipe, false);
  const auto async_labels = feed_angry_speech(async_pipe, true);
  async_pipe.drain();

  // The single in-order worker makes the async run equivalent to the
  // sync one: same windows, same classifications, same smoothing.
  EXPECT_EQ(async_pipe.stats().windows_considered,
            sync_pipe.stats().windows_considered);
  EXPECT_EQ(async_pipe.stats().windows_classified,
            sync_pipe.stats().windows_classified);
  EXPECT_EQ(async_pipe.stats().stable_changes,
            sync_pipe.stats().stable_changes);
  EXPECT_EQ(async_pipe.stats().windows_dropped, 0u);
  EXPECT_EQ(async_pipe.stable_emotion(), sync_pipe.stable_emotion());
  EXPECT_EQ(async_labels, sync_labels);  // FIFO worker: same order, same times
}

TEST_F(PipelineFixture, AsyncZeroInflightShedsEveryWindow) {
  GlobalPoolGuard guard;
  core::set_global_threads(2);
  affect::RealtimeConfig cfg;
  cfg.async = true;
  cfg.max_inflight = 0;  // queue admits nothing: every window sheds
  affect::RealtimePipeline pipe(classifier(), cfg);
  const auto labels = feed_angry_speech(pipe, true);
  pipe.drain();
  EXPECT_GT(pipe.stats().windows_classified, 0u);
  EXPECT_EQ(pipe.stats().windows_dropped, pipe.stats().windows_classified);
  EXPECT_EQ(pipe.stats().stable_changes, 0u);
  EXPECT_TRUE(labels.empty());
}

TEST_F(PipelineFixture, DrainIsIdempotentAndSyncNoop) {
  affect::RealtimeConfig cfg;
  affect::RealtimePipeline sync_pipe(classifier(), cfg);
  sync_pipe.drain();  // no async work: must return immediately
  sync_pipe.drain();

  GlobalPoolGuard guard;
  core::set_global_threads(1);
  cfg.async = true;
  affect::RealtimePipeline async_pipe(classifier(), cfg);
  feed_angry_speech(async_pipe, true);
  async_pipe.drain();
  const auto classified = async_pipe.stats().windows_classified;
  async_pipe.drain();  // second drain on an idle pipeline is a no-op
  EXPECT_EQ(async_pipe.stats().windows_classified, classified);
}

// ------------------------------------------------------------------ offload

TEST(EstimateMacs, ScalesWithModelAndHeads) {
  nn::ClassifierSpec spec{17, 64, 7};
  std::mt19937 rng(4);
  auto mlp = nn::build_mlp(spec, rng);
  auto lstm = nn::build_lstm(spec, rng);
  // The MLP is one flat pass (macs ~ params); the LSTM touches its
  // recurrent weights every timestep, so macs >> params.
  EXPECT_LT(nn::estimate_inference_macs(mlp, 64),
            2 * mlp.param_count());
  EXPECT_GT(nn::estimate_inference_macs(lstm, 64),
            20 * lstm.param_count());
}

TEST(Offload, TinyModelStaysOnWatch) {
  power::OffloadPlanner planner;
  // 10k MACs, 100-byte features: local inference is cheaper than radio.
  const auto r = planner.plan(10000, 100);
  EXPECT_EQ(r.watch_optimal, power::ExecutionTarget::kWatch);
  EXPECT_LT(r.local_watch_nj, r.offload_watch_nj);
}

TEST(Offload, PaperScaleModelOffloadsToPhone) {
  power::OffloadPlanner planner;
  // The paper's LSTM at 64 timesteps: ~28M MACs per window.
  nn::ClassifierSpec spec{17, 64, 7};
  std::mt19937 rng(5);
  auto lstm = nn::build_lstm(spec, rng);
  const std::size_t macs = nn::estimate_inference_macs(lstm, 64);
  // Feature payload: 64 x 17 floats.
  const auto r = planner.plan(macs, 64 * 17 * 4);
  EXPECT_EQ(r.watch_optimal, power::ExecutionTarget::kPhone)
      << "macs=" << macs;
  EXPECT_EQ(r.system_optimal, power::ExecutionTarget::kPhone);
}

TEST(Offload, CrossoverMonotoneInPayload) {
  power::OffloadPlanner planner;
  EXPECT_LT(planner.watch_crossover_macs(100),
            planner.watch_crossover_macs(10000));
  // Consistency: exactly at the crossover the two costs are equal.
  const double macs = planner.watch_crossover_macs(1000);
  const auto r = planner.plan(static_cast<std::size_t>(macs), 1000);
  EXPECT_NEAR(r.local_watch_nj, r.offload_watch_nj,
              r.local_watch_nj * 0.01);
}

// ---------------------------------------------------- sink (server) mode

// Sink mode is the session server's attachment point: windows that
// survive the VAD gate are handed out for external (batched) inference
// and results come back through apply_label().

TEST_F(PipelineFixture, SinkReceivesEveryVadSurvivingWindow) {
  affect::RealtimeConfig cfg;
  affect::RealtimePipeline pipe(classifier(), cfg);
  std::vector<std::pair<double, std::size_t>> delivered;
  pipe.set_window_sink([&](double t_end, std::span<const double> w) {
    delivered.emplace_back(t_end, w.size());
    // Apply a result immediately, as an unloaded server would.
    pipe.apply_label(t_end, affect::Emotion::kAngry);
  });

  affect::SpeechSynthesizer synth(3);
  double t = 0.0;
  for (int u = 0; u < 4; ++u) {
    const auto utt =
        synth.synthesize(affect::Emotion::kAngry, 60 + u, 1.0, 16000.0, 0.1);
    for (std::size_t off = 0; off < utt.samples.size(); off += 1600) {
      const std::size_t n =
          std::min<std::size_t>(1600, utt.samples.size() - off);
      pipe.push_audio(t, {utt.samples.data() + off, n});
      t += 0.1;
    }
  }
  ASSERT_FALSE(delivered.empty());
  EXPECT_EQ(delivered.size(), pipe.stats().windows_classified);
  EXPECT_EQ(pipe.dropped(), 0u);
  const std::size_t window_len = static_cast<std::size_t>(16000.0 * 1.0);
  for (const auto& [t_end, n] : delivered) EXPECT_EQ(n, window_len);
  // Labels applied through apply_label() drive the smoothing stream
  // exactly like internal classification would.
  EXPECT_EQ(pipe.stable_emotion(), affect::Emotion::kAngry);
  EXPECT_GT(pipe.stats().stable_changes, 0u);
}

TEST_F(PipelineFixture, SinkModeShedsNewestWindowBeyondMaxInflight) {
  affect::RealtimeConfig cfg;
  cfg.max_inflight = 2;
  cfg.obs_scope = "rt.test.shed";  // unique per test: registry is global
  affect::RealtimePipeline pipe(classifier(), cfg);
  std::vector<double> pending_t;
  pipe.set_window_sink(
      [&](double t_end, std::span<const double>) { pending_t.push_back(t_end); });

  affect::SpeechSynthesizer synth(3);
  double t = 0.0;
  for (int u = 0; u < 6; ++u) {
    const auto utt =
        synth.synthesize(affect::Emotion::kAngry, 30 + u, 1.0, 16000.0, 0.1);
    for (std::size_t off = 0; off < utt.samples.size(); off += 1600) {
      const std::size_t n =
          std::min<std::size_t>(1600, utt.samples.size() - off);
      pipe.push_audio(t, {utt.samples.data() + off, n});
      t += 0.1;
    }
  }
  // Nobody applied results, so only max_inflight windows were ever
  // delivered; the rest were shed (drop-newest) and counted.
  EXPECT_EQ(pending_t.size(), cfg.max_inflight);
  EXPECT_GT(pipe.dropped(), 0u);
  EXPECT_EQ(pipe.dropped(), pipe.stats().windows_dropped);
  // The scoped per-session counter saw the same sheds as the aggregate.
  EXPECT_EQ(affectsys::obs::Registry::global()
                .counter("rt.test.shed.affect.windows_dropped")
                .value(),
            pipe.dropped());

  // Applying a result frees a slot: the next surviving window flows.
  pipe.apply_label(pending_t.front(), affect::Emotion::kAngry);
  const auto before = pending_t.size();
  const auto utt =
      synth.synthesize(affect::Emotion::kAngry, 99, 1.5, 16000.0, 0.1);
  for (std::size_t off = 0; off < utt.samples.size(); off += 1600) {
    const std::size_t n = std::min<std::size_t>(1600, utt.samples.size() - off);
    pipe.push_audio(t, {utt.samples.data() + off, n});
    t += 0.1;
  }
  EXPECT_GT(pending_t.size(), before);
}

TEST_F(PipelineFixture, SinkModeRejectsAsyncConfig) {
  affect::RealtimeConfig cfg;
  cfg.async = true;
  affect::RealtimePipeline pipe(classifier(), cfg);
  EXPECT_THROW(pipe.set_window_sink([](double, std::span<const double>) {}),
               std::logic_error);
}
