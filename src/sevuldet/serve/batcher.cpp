#include "sevuldet/serve/batcher.hpp"

#include <algorithm>
#include <stdexcept>

#include "sevuldet/util/metrics.hpp"
#include "sevuldet/util/trace.hpp"

namespace sevuldet::serve {

MicroBatcher::MicroBatcher(const models::Detector& model,
                           BatcherOptions options)
    : options_(options), pool_(std::max(1, options.threads)) {
  options_.max_batch = std::max(1, options_.max_batch);
  options_.window_ms = std::max(0.0, options_.window_ms);
  clones_.reserve(static_cast<std::size_t>(pool_.size()));
  for (int i = 0; i < pool_.size(); ++i) {
    clones_.push_back(model.clone());
  }
  flusher_ = std::thread([this] { flusher_loop(); });
}

MicroBatcher::~MicroBatcher() { stop(); }

void MicroBatcher::stop() {
  {
    std::lock_guard lock(mu_);
    if (stopping_) {
      // Already stopped (or stopping); just make sure the thread is gone.
    }
    stopping_ = true;
  }
  pending_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

models::Prediction MicroBatcher::predict(const std::vector<int>& ids,
                                         bool capture_spatial) {
  std::vector<models::Prediction> results = predict_many({&ids}, capture_spatial);
  return std::move(results.front());
}

std::vector<models::Prediction> MicroBatcher::predict_many(
    const std::vector<const std::vector<int>*>& ids, bool capture_spatial) {
  std::vector<models::BatchItem> items;
  items.reserve(ids.size());
  for (const std::vector<int>* gadget : ids) {
    items.push_back({gadget, capture_spatial, nullptr});
  }
  return predict_many(items);
}

std::vector<models::Prediction> MicroBatcher::predict_many(
    const std::vector<models::BatchItem>& items) {
  if (items.empty()) return {};
  std::vector<Entry> entries(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    entries[i].item = items[i];
  }
  {
    std::unique_lock lock(mu_);
    if (stopping_) throw std::logic_error("MicroBatcher::predict after stop");
    if (pending_.empty()) {
      oldest_pending_ = std::chrono::steady_clock::now();
    }
    for (Entry& entry : entries) pending_.push_back(&entry);
  }
  pending_cv_.notify_one();
  std::unique_lock lock(mu_);
  done_cv_.wait(lock, [&] {
    for (const Entry& entry : entries) {
      if (!entry.done) return false;
    }
    return true;
  });
  std::vector<models::Prediction> results;
  results.reserve(entries.size());
  for (Entry& entry : entries) {
    if (entry.error) std::rethrow_exception(entry.error);
    results.push_back(std::move(entry.result));
  }
  return results;
}

void MicroBatcher::flusher_loop() {
  std::vector<Entry*> batch;
  std::unique_lock lock(mu_);
  for (;;) {
    pending_cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
    if (pending_.empty()) {
      if (stopping_) return;  // drained — predict() after stop() throws
      continue;
    }
    // Give the batch a chance to fill: wait until max_batch entries are
    // pending or the oldest one has waited window_ms. Draining skips the
    // wait so shutdown never sleeps on the window.
    if (!stopping_ && static_cast<int>(pending_.size()) < options_.max_batch) {
      const auto deadline =
          oldest_pending_ +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(options_.window_ms));
      pending_cv_.wait_until(lock, deadline, [&] {
        return stopping_ ||
               static_cast<int>(pending_.size()) >= options_.max_batch;
      });
    }
    // Take at most max_batch entries, oldest first; later entries stay
    // queued and restart the window.
    const std::size_t take =
        std::min(pending_.size(), static_cast<std::size_t>(options_.max_batch));
    if (take == static_cast<std::size_t>(options_.max_batch)) ++full_flushes_;
    batch.assign(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(take));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(take));
    if (!pending_.empty()) oldest_pending_ = std::chrono::steady_clock::now();
    ++batches_;
    gadgets_ += static_cast<long long>(take);
    lock.unlock();  // score outside mu_ so new submissions keep queueing
    run_batch(batch);
    lock.lock();
  }
}

void MicroBatcher::run_batch(std::vector<Entry*>& batch) {
  util::trace::ScopedSpan span("serve.batch");
  util::metrics::counter_add("serve.batch.flushes");
  util::metrics::counter_add("serve.batch.gadgets",
                             static_cast<long long>(batch.size()));
  // Score outside mu_ so new submissions queue up behind this batch.
  // parallel_chunks gives each ThreadPool worker a contiguous slice and
  // its own clone; a pool of size 1 runs inline on this thread. Each
  // chunk is scored with one length-bucketed predict_batch call —
  // bitwise-identical to the base class's per-item loop. If the batched
  // call throws (e.g. an out-of-range token id),
  // the chunk is rescored one entry at a time so a bad gadget only
  // fails its own entry, exactly as before.
  auto score_range = [&](models::Detector& model, std::size_t begin,
                         std::size_t end) {
    std::vector<models::BatchItem> items;
    items.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      items.push_back(batch[i]->item);
    }
    std::vector<models::Prediction> predictions(items.size());
    try {
      model.predict_batch(items.data(), items.size(), predictions.data());
      for (std::size_t i = begin; i < end; ++i) {
        batch[i]->result = std::move(predictions[i - begin]);
      }
      return;
    } catch (...) {
    }
    for (std::size_t i = begin; i < end; ++i) {
      try {
        model.predict_batch(&items[i - begin], 1, predictions.data());
        batch[i]->result = std::move(predictions[0]);
      } catch (...) {
        batch[i]->error = std::current_exception();
      }
    }
  };
  if (pool_.size() > 1 && batch.size() > 1) {
    pool_.parallel_chunks(batch.size(), [&](int worker, std::size_t begin,
                                            std::size_t end) {
      score_range(*clones_[static_cast<std::size_t>(worker)], begin, end);
    });
  } else {
    score_range(*clones_[0], 0, batch.size());
  }
  {
    std::lock_guard lock(mu_);
    for (Entry* entry : batch) entry->done = true;
  }
  done_cv_.notify_all();
}

long long MicroBatcher::batches_flushed() const {
  std::lock_guard lock(const_cast<std::mutex&>(mu_));
  return batches_;
}

long long MicroBatcher::gadgets_scored() const {
  std::lock_guard lock(const_cast<std::mutex&>(mu_));
  return gadgets_;
}

long long MicroBatcher::full_flushes() const {
  std::lock_guard lock(const_cast<std::mutex&>(mu_));
  return full_flushes_;
}

std::size_t MicroBatcher::arena_high_water_bytes() const {
  std::size_t total = 0;
  for (const auto& clone : clones_) total += clone->scratch_bytes();
  return total;
}

}  // namespace sevuldet::serve
