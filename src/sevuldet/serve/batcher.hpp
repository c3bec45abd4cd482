// Cross-request micro-batching in front of the CNN forward pass. Request
// workers submit encoded gadgets (token-id sequences) and block on the
// result; a dedicated flusher thread collects submissions into batches
// and scores each batch over the PR 1 ThreadPool with per-worker model
// clones, each running the length-bucketed predict_batch engine (scratch
// reuse — zero heap allocation per gadget after warmup). A batch flushes
// when it reaches
// `max_batch` entries or when its oldest entry has waited `window_ms`,
// whichever comes first, so a lone request never stalls behind an
// unfilled batch for long.
//
// Eval-mode forward passes are deterministic and per-gadget independent,
// so batched scores (and the captured attention weights) are identical
// to scoring each gadget inline with Detector::predict_batch — serve_test
// asserts this bitwise. Batching buys throughput, not different numbers: the clones
// and their arenas are built once, and a burst of R requests × G gadgets
// costs one warm arena pass per gadget instead of R model-sized cache
// refills interleaved at request granularity.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sevuldet/models/model.hpp"
#include "sevuldet/util/thread_pool.hpp"

namespace sevuldet::serve {

struct BatcherOptions {
  int max_batch = 32;        // flush when this many gadgets are pending
  double window_ms = 2.0;    // ... or when the oldest has waited this long
  int threads = 1;           // ThreadPool width for scoring one batch
};

class MicroBatcher {
 public:
  /// Clones `model` once per inference thread (any Detector backend).
  /// The reference must stay valid for the batcher's lifetime (the
  /// Server owns both).
  MicroBatcher(const models::Detector& model, BatcherOptions options);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Score one gadget; blocks until its batch is flushed. Thread-safe.
  /// `ids` must stay valid until this returns (it is not copied).
  models::Prediction predict(const std::vector<int>& ids, bool capture_spatial);

  /// Score a request's gadgets in one submission: all entries join the
  /// pending batch together (one window wait for the whole request, and
  /// a request with >= max_batch gadgets flushes immediately), and the
  /// call blocks until every one is scored. Results are positional.
  /// Each item's pointed-to tokens/graph must stay valid until return.
  std::vector<models::Prediction> predict_many(
      const std::vector<models::BatchItem>& items);
  /// Token-only convenience (no gadget graphs attached).
  std::vector<models::Prediction> predict_many(
      const std::vector<const std::vector<int>*>& ids, bool capture_spatial);

  /// Stop the flusher after it drains every pending entry. Idempotent;
  /// the destructor calls it. predict() after stop() throws.
  void stop();

  // Counters for serve.report-status (monotonic, approximate reads).
  long long batches_flushed() const;
  long long gadgets_scored() const;
  long long full_flushes() const;  // flushed at max_batch (vs window/drain)
  /// Peak activation-scratch bytes across the inference clones — the
  /// daemon's steady-state inference memory footprint (the batched
  /// engine's recycled buffers; capacity only grows).
  std::size_t arena_high_water_bytes() const;

 private:
  struct Entry {
    models::BatchItem item;
    models::Prediction result;
    bool done = false;
    std::exception_ptr error;
  };

  void flusher_loop();
  void run_batch(std::vector<Entry*>& batch);

  BatcherOptions options_;
  util::ThreadPool pool_;
  std::vector<std::unique_ptr<models::Detector>> clones_;

  std::mutex mu_;
  std::condition_variable pending_cv_;  // wakes the flusher
  std::condition_variable done_cv_;     // wakes blocked predict() callers
  std::vector<Entry*> pending_;
  std::chrono::steady_clock::time_point oldest_pending_;
  bool stopping_ = false;

  long long batches_ = 0;
  long long gadgets_ = 0;
  long long full_flushes_ = 0;

  std::thread flusher_;
};

}  // namespace sevuldet::serve
