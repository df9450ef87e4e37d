#include "core/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/metrics.hpp"

namespace affectsys::core {
namespace {

/// Owning pool of the current thread, for nested-parallel_for detection.
thread_local const ThreadPool* tls_pool = nullptr;

constexpr bool threads_enabled() {
#if defined(AFFECTSYS_THREADS) && AFFECTSYS_THREADS
  return true;
#else
  return false;
#endif
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (!threads_enabled()) threads = 0;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::on_pool_thread() const { return tls_pool == this; }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    tasks_.push_back(std::move(task));
    AFFECTSYS_GAUGE_SET("core.pool_queue_depth", tasks_.size());
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  tls_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
      AFFECTSYS_GAUGE_SET("core.pool_queue_depth", tasks_.size());
    }
    AFFECTSYS_COUNT("core.pool_tasks", 1);
    {
      // Tasks never throw: submit() routes exceptions through the
      // packaged_task future and parallel_for chunks catch internally.
      AFFECTSYS_TIME_SCOPE("core.pool_task_ns");
      task();
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  // Inline when serial, when the range is one chunk, or when nested
  // inside a task of this pool (workers waiting on workers deadlocks a
  // bounded pool; inner loops of an already-parallel outer loop gain
  // nothing from further splitting).  The inline path still walks the
  // same chunk boundaries as the pooled path, keeping fn invocations a
  // pure function of (begin, end, grain) at every thread count.
  if (workers_.empty() || n <= grain || on_pool_thread()) {
    for (std::size_t lo = begin; lo < end; lo += grain) {
      fn(lo, std::min(end, lo + grain));
    }
    return;
  }

  struct State {
    std::size_t begin, end, grain, n_chunks;
    const std::function<void(std::size_t, std::size_t)>* fn;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::size_t done = 0;  // guarded by mu
    std::exception_ptr eptr;  // guarded by mu
    std::mutex mu;
    std::condition_variable cv;
  };
  auto st = std::make_shared<State>();
  st->begin = begin;
  st->end = end;
  st->grain = grain;
  st->n_chunks = (n + grain - 1) / grain;
  st->fn = &fn;

  auto run_chunks = [st] {
    for (;;) {
      const std::size_t i = st->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= st->n_chunks) return;
      if (!st->failed.load(std::memory_order_acquire)) {
        const std::size_t lo = st->begin + i * st->grain;
        const std::size_t hi = std::min(st->end, lo + st->grain);
        try {
          (*st->fn)(lo, hi);
        } catch (...) {
          std::lock_guard<std::mutex> lk(st->mu);
          if (!st->eptr) st->eptr = std::current_exception();
          st->failed.store(true, std::memory_order_release);
        }
      }
      std::lock_guard<std::mutex> lk(st->mu);
      if (++st->done == st->n_chunks) st->cv.notify_all();
    }
  };

  // Helpers share the chunk counter; the caller participates too, so
  // progress is guaranteed even if no worker ever picks a helper up.
  const std::size_t helpers = std::min(workers_.size(), st->n_chunks - 1);
  for (std::size_t i = 0; i < helpers; ++i) enqueue(run_chunks);
  // While the caller runs chunks it counts as on-pool, so a parallel_for
  // nested in one of its chunks runs inline like one nested in a
  // worker's chunk instead of enqueueing helpers of its own.
  const ThreadPool* const outer = tls_pool;
  tls_pool = this;
  run_chunks();
  tls_pool = outer;

  std::unique_lock<std::mutex> lk(st->mu);
  st->cv.wait(lk, [&] { return st->done == st->n_chunks; });
  if (st->eptr) std::rethrow_exception(st->eptr);
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;

ThreadPool* ensure_global_pool() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(default_thread_count());
  return g_pool.get();
}

}  // namespace

ThreadPool& global_pool() { return *ensure_global_pool(); }

void set_global_threads(std::size_t n) {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  g_pool = std::make_unique<ThreadPool>(n);
  AFFECTSYS_GAUGE_SET("core.pool_threads", g_pool->size());
}

std::size_t global_threads() { return ensure_global_pool()->size(); }

std::size_t default_thread_count() {
  if (!threads_enabled()) return 0;
  if (const char* env = std::getenv("AFFECTSYS_NUM_THREADS")) {
    char* tail = nullptr;
    const long v = std::strtol(env, &tail, 10);
    if (tail != env && v >= 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  // On a single-core host a pool cannot add throughput, only dispatch
  // overhead, so the default is the inline path.
  return hw > 1 ? hw : 0;
}

}  // namespace affectsys::core
