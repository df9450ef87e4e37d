#include "affect/realtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace affectsys::affect {

RealtimePipeline::RealtimePipeline(AffectClassifier& classifier,
                                   const RealtimeConfig& cfg)
    : classifier_(classifier), cfg_(cfg), vad_(cfg.vad),
      stream_(cfg.stream),
      window_len_(static_cast<std::size_t>(cfg.window_s * cfg.sample_rate_hz)) {
  if (!cfg_.obs_scope.empty()) {
    scoped_dropped_ =
        &obs::MetricScope(cfg_.obs_scope).counter("affect.windows_dropped");
  }
}

void RealtimePipeline::set_window_sink(WindowSink sink) {
  if (cfg_.async && sink) {
    throw std::logic_error(
        "RealtimePipeline: window sink requires sync mode (async=false)");
  }
  sink_ = std::move(sink);
}

RealtimePipeline::~RealtimePipeline() { drain(); }

void RealtimePipeline::ring_write(std::span<const double> chunk) {
  const std::size_t w = window_len_;
  if (w == 0 || chunk.empty()) return;
  if (ring_.empty()) ring_.resize(w);
  if (chunk.size() >= w) {
    // Only the newest window of a long chunk can ever be read.
    const auto tail = chunk.last(w);
    std::copy(tail.begin(), tail.end(), ring_.begin());
    write_ = 0;
    fill_ = w;
    return;
  }
  const std::size_t first = std::min(chunk.size(), w - write_);
  std::copy_n(chunk.begin(), first, ring_.begin() + static_cast<long>(write_));
  std::copy(chunk.begin() + static_cast<long>(first), chunk.end(),
            ring_.begin());
  write_ = (write_ + chunk.size()) % w;
  fill_ = std::min(w, fill_ + chunk.size());
}

std::span<const double> RealtimePipeline::ring_window() const {
  if (write_ == 0) return ring_;  // already in time order
  // One buffer per thread, shared by every pipeline that thread drives:
  // a window is consumed (VAD, sink or classify) before push_audio()
  // returns, so nothing outlives the call.
  thread_local std::vector<double> linear;
  linear.resize(window_len_);
  const auto split = ring_.begin() + static_cast<long>(write_);
  std::copy(ring_.begin(), split,
            std::copy(split, ring_.end(), linear.begin()));
  return linear;
}

std::optional<Emotion> RealtimePipeline::push_audio(
    double t_s, std::span<const double> chunk) {
  if (cfg_.gap_tolerance_s > 0.0 && fill_ > 0 &&
      t_s > buffer_end_t_ + cfg_.gap_tolerance_s) {
    // Capture gap: the buffered tail is stale audio from before the
    // stall.  Windows spanning the gap would splice unrelated speech,
    // and the anchored deadline clock would classify stride-by-stride
    // through the dead time — drop the tail and re-anchor instead.
    write_ = 0;
    fill_ = 0;
    window_clock_started_ = false;
    ++stats_.gap_resyncs;
    AFFECTSYS_COUNT("affect.gap_resyncs", 1);
  }
  stats_.samples_in += chunk.size();
  AFFECTSYS_COUNT("affect.samples_in", chunk.size());
  ring_write(chunk);
  buffer_end_t_ =
      t_s + static_cast<double>(chunk.size()) / cfg_.sample_rate_hz;

  std::optional<Emotion> changed;
  // Every window this push considers is the same newest window_len
  // samples; linearise it at most once.
  std::optional<std::span<const double>> window;
  while (fill_ >= window_len_ && buffer_end_t_ >= next_window_t_) {
    // The deadline clock is anchored once, when the first full window is
    // available, and then advances by exactly one stride per considered
    // window.  Advancing from buffer_end_t_ instead would quantize the
    // stride up to the chunk boundary (drift), and a chunk longer than
    // the stride would silently skip classification windows.
    if (!window_clock_started_) {
      window_clock_started_ = true;
      next_window_t_ = buffer_end_t_;
    }
    next_window_t_ += cfg_.window_stride_s;
    ++stats_.windows_considered;
    AFFECTSYS_COUNT("affect.windows_considered", 1);
    if (!window) window = ring_window();
    if (vad_.speech_fraction(*window) < cfg_.min_speech_fraction) {
      continue;  // silence: save the classifier invocation
    }
    if (sink_) {
      // Sink mode: the window is classified externally (the session
      // server's batcher); enforce the same drop-newest bound the async
      // queue applies, against the count of results not yet returned
      // via apply_label().
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (outstanding_ >= cfg_.max_inflight) {
          record_drop();
          continue;
        }
        ++outstanding_;
      }
      ++stats_.windows_classified;
      AFFECTSYS_COUNT("affect.windows_classified", 1);
      sink_(buffer_end_t_, *window);
      continue;
    }
    ++stats_.windows_classified;
    AFFECTSYS_COUNT("affect.windows_classified", 1);
    if (cfg_.async) {
      enqueue_window(buffer_end_t_, *window);
      continue;
    }
    if (auto c = classify_and_apply(buffer_end_t_, *window)) changed = c;
  }
  return changed;
}

std::optional<Emotion> RealtimePipeline::classify_and_apply(
    double t_end, std::span<const double> window) {
  AFFECTSYS_TIME_SCOPE("affect.window_classify_ns");
  const ClassificationResult res = classifier_.classify(window);
  if (raw_cb_) raw_cb_(t_end, res.emotion, res.confidence);
  std::lock_guard<std::mutex> lk(mu_);
  if (auto c = stream_.push(t_end, res.emotion)) {
    ++stats_.stable_changes;
    AFFECTSYS_COUNT("affect.stable_changes", 1);
    return c;
  }
  return std::nullopt;
}

void RealtimePipeline::enqueue_window(double t_end,
                                      std::span<const double> window) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (pending_.size() >= cfg_.max_inflight) {
      // Capture must not block on a saturated classifier: shed the
      // newest window and account for it.
      record_drop();
      return;
    }
    pending_.push_back(
        PendingWindow{t_end, std::vector<double>(window.begin(), window.end())});
    AFFECTSYS_GAUGE_SET("affect.inflight_windows", pending_.size());
    if (worker_active_) return;  // running worker will pick it up
    worker_active_ = true;
  }
  // One worker at a time: inference mutates layer activation caches, and
  // FIFO application keeps smoothing identical to the sync pipeline.
  // With an inline (serial) pool this executes before submit returns,
  // degrading async mode to the synchronous behaviour.
  core::global_pool().submit([this] { drain_queue(); });
}

void RealtimePipeline::drain_queue() {
  for (;;) {
    PendingWindow w;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (pending_.empty()) {
        worker_active_ = false;
        idle_cv_.notify_all();
        return;
      }
      w = std::move(pending_.front());
      pending_.pop_front();
      AFFECTSYS_GAUGE_SET("affect.inflight_windows", pending_.size());
    }
    try {
      classify_and_apply(w.t_end, w.samples);
    } catch (...) {
      // A window that fails to classify must not wedge the worker (and
      // with it drain()); count it and keep consuming.
      AFFECTSYS_COUNT("affect.async_classify_errors", 1);
    }
  }
}

void RealtimePipeline::record_drop() {
  // Caller holds mu_.
  ++stats_.windows_dropped;
  AFFECTSYS_COUNT("affect.windows_dropped", 1);
  if (scoped_dropped_) scoped_dropped_->add(1);
}

std::optional<Emotion> RealtimePipeline::apply_label(double t_end,
                                                     Emotion raw) {
  std::lock_guard<std::mutex> lk(mu_);
  if (outstanding_ > 0) --outstanding_;
  if (auto c = stream_.push(t_end, raw)) {
    ++stats_.stable_changes;
    AFFECTSYS_COUNT("affect.stable_changes", 1);
    return c;
  }
  return std::nullopt;
}

std::uint64_t RealtimePipeline::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_.windows_dropped;
}

void RealtimePipeline::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return pending_.empty() && !worker_active_; });
}

Emotion RealtimePipeline::stable_emotion() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stream_.stable();
}

}  // namespace affectsys::affect
