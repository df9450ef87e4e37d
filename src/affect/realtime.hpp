// Real-time classification pipeline: audio ring buffer -> VAD gate ->
// windowed classification -> EmotionStream smoothing.
//
// This is the runtime shape of the Fig 4 signal flow: samples arrive in
// small device-driver chunks, a sliding window is classified only when
// the VAD saw enough speech, and stable emotions pop out the other end.
// The pipeline also counts classifier invocations, which the offload
// energy study consumes.
//
// Async mode (RealtimeConfig::async): windows surviving the VAD gate
// are copied into a bounded pending queue and classified by a single
// in-order worker task on the global thread pool, so push_audio() —
// the capture path — never blocks on inference.  At most one worker
// runs at a time (the model caches activations, so inference is not
// reentrant), which also keeps the EmotionStream update order identical
// to the synchronous pipeline; after drain() the stable emotion and
// stats match the sync run exactly.  When the queue is full the newest
// window is dropped and counted, mirroring what a saturated capture
// path must do on-device.
//
// Audio history is an exact-size ring: window_len samples, allocated at
// the first push, written in place — a pushed chunk costs its own size
// in copies, not a shift of the whole window.  A considered window is
// linearised once per push into a per-thread buffer (skipped when the
// ring happens to start at slot 0) and handed to the VAD and the sink
// as one contiguous span, valid until push_audio() returns.
//
// Steady-state the per-window path is allocation-free: feature
// extraction reuses the FeatureWorkspace owned by the AffectClassifier
// (classify() is serialized, so one workspace suffices) and VAD stages
// frames through a reused buffer; only the window copy into the async
// queue allocates, and only until the deque's nodes are warm.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "affect/classifier.hpp"
#include "affect/stream.hpp"
#include "affect/vad.hpp"
#include "obs/metrics.hpp"

namespace affectsys::affect {

struct RealtimeConfig {
  double sample_rate_hz = 16000.0;
  double window_s = 1.0;        ///< classification window
  double window_stride_s = 0.5; ///< stride between classification attempts
  /// Minimum VAD speech fraction inside a window to spend a classifier
  /// invocation on it.
  double min_speech_fraction = 0.3;
  VadConfig vad{};
  StreamConfig stream{3, 2.0};
  /// Capture-gap tolerance: when a pushed chunk starts more than this
  /// many seconds after the end of the buffered audio (a stalled or
  /// faulted capture path), the stale window buffer is discarded and
  /// the window deadline clock re-anchors at the next full window,
  /// instead of spinning stride-by-stride over stale samples to catch
  /// the clock up.  <= 0 disables gap detection (pre-existing
  /// behaviour).  Contiguous feeds never trigger it.
  double gap_tolerance_s = 1.0;
  /// Classify on the global thread pool instead of inside push_audio().
  bool async = false;
  /// Bound on pending (accepted, not yet classified) windows in async
  /// or sink mode; overflow drops the newest window and counts it.
  std::size_t max_inflight = 8;
  /// Optional obs namespace (e.g. "serve.s3"): when non-empty, shed
  /// windows are additionally counted into
  /// `<obs_scope>.affect.windows_dropped`, so concurrent pipelines stay
  /// distinguishable.  The un-prefixed aggregate names are recorded
  /// either way (single-session tools keep working unchanged).
  std::string obs_scope;
};

struct RealtimeStats {
  std::uint64_t samples_in = 0;
  std::uint64_t windows_considered = 0;
  std::uint64_t windows_classified = 0;  ///< survived the VAD gate
  std::uint64_t windows_dropped = 0;     ///< async queue overflow
  std::uint64_t stable_changes = 0;
  std::uint64_t gap_resyncs = 0;  ///< buffer resets after capture gaps
};

class RealtimePipeline {
 public:
  /// The classifier must outlive the pipeline.
  RealtimePipeline(AffectClassifier& classifier, const RealtimeConfig& cfg);
  /// Drains outstanding async work before destruction.
  ~RealtimePipeline();

  RealtimePipeline(const RealtimePipeline&) = delete;
  RealtimePipeline& operator=(const RealtimePipeline&) = delete;

  /// Feeds a chunk of audio stamped at `t_s` (chunk start).  Returns the
  /// new stable emotion if this chunk's processing changed it.  In async
  /// mode classification completes in the background, so this always
  /// returns nullopt; observe results via drain() + stable_emotion() or
  /// the raw-label callback.
  std::optional<Emotion> push_audio(double t_s,
                                    std::span<const double> chunk);

  /// Barrier: blocks until every accepted window has been classified
  /// and applied to the stream.  No-op in sync mode.  Makes async runs
  /// deterministic for tests and benchmarks.
  void drain();

  Emotion stable_emotion() const;
  /// In async mode, call drain() first — the worker updates the
  /// smoothing stream and stable-change counters concurrently.
  const RealtimeStats& stats() const { return stats_; }

  /// Observer of every raw (pre-smoothing) classification.  In async
  /// mode it is invoked from the pool worker (windows in order, calls
  /// never overlapping) and must not call back into the pipeline.
  /// Set before the first push_audio().
  void on_raw_label(std::function<void(double, Emotion, float)> cb) {
    raw_cb_ = std::move(cb);
  }

  /// External-inference (sink) mode: windows surviving the VAD gate are
  /// handed to `sink` instead of being classified here — the session
  /// server routes them through its cross-session batcher and reports
  /// each result back via apply_label().  The drop-newest bound applies
  /// unchanged: while max_inflight windows are outstanding (delivered
  /// to the sink, result not yet applied), further windows are shed and
  /// counted exactly like the async queue overflow.  Sync mode only
  /// (throws std::logic_error if cfg.async); set before the first
  /// push_audio().  The sink runs inline inside push_audio; the span it
  /// receives is valid only for that call and must not be read after
  /// the sink pushes audio into any pipeline on the same thread.
  using WindowSink = std::function<void(double, std::span<const double>)>;
  void set_window_sink(WindowSink sink);

  /// Applies one externally-classified raw label (sink mode): retires
  /// the oldest outstanding window and pushes the label through the
  /// smoothing stream, returning the new stable emotion on change —
  /// byte-identical stream evolution to the in-pipeline classify path.
  std::optional<Emotion> apply_label(double t_end, Emotion raw);

  /// Windows shed by the drop-newest bound (async queue overflow or
  /// sink-mode backpressure).  Thread-safe, unlike stats(): the session
  /// server's overload logic polls it while the pipeline runs.
  std::uint64_t dropped() const;

 private:
  struct PendingWindow {
    double t_end = 0.0;
    std::vector<double> samples;
  };

  /// Classifies one window and pushes it through the smoothing stream;
  /// returns the new stable emotion on change.
  std::optional<Emotion> classify_and_apply(double t_end,
                                            std::span<const double> window);
  void enqueue_window(double t_end, std::span<const double> window);
  /// Counts one shed window (aggregate + scoped obs).  Caller holds mu_.
  void record_drop();
  /// Worker body: classifies pending windows FIFO until the queue is
  /// empty, then retires itself.
  void drain_queue();
  /// Appends a chunk to the ring, keeping only its last window_len
  /// samples when it is longer than the window.
  void ring_write(std::span<const double> chunk);
  /// The full ring (fill_ == window_len) in time order, contiguous.
  std::span<const double> ring_window() const;

  AffectClassifier& classifier_;
  RealtimeConfig cfg_;
  VoiceActivityDetector vad_;
  EmotionStream stream_;
  RealtimeStats stats_;
  std::size_t window_len_ = 0;  ///< samples per classification window
  /// Ring of the most recent samples: window_len_ slots once the first
  /// chunk arrives, of which the fill_ ending just before write_ are
  /// valid (oldest at write_ once full).
  std::vector<double> ring_;
  std::size_t write_ = 0;
  std::size_t fill_ = 0;
  double buffer_end_t_ = 0.0;
  double next_window_t_ = 0.0;
  /// False until the first full window fires; the first deadline anchors
  /// to that moment and subsequent ones advance by exactly one stride.
  bool window_clock_started_ = false;
  std::function<void(double, Emotion, float)> raw_cb_;
  WindowSink sink_;
  /// Sink-mode windows delivered but not yet retired by apply_label();
  /// guarded by mu_.
  std::size_t outstanding_ = 0;
  /// Scoped drop counter resolved once at construction when
  /// cfg.obs_scope is set (null otherwise).
  obs::Counter* scoped_dropped_ = nullptr;

  /// Guards pending_, worker_active_, stream_ and stats_.stable_changes
  /// against the async worker; uncontended (and the worker path unused)
  /// in sync mode.
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::deque<PendingWindow> pending_;
  bool worker_active_ = false;
};

}  // namespace affectsys::affect
