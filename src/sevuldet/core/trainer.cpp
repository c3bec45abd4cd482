#include "sevuldet/core/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "sevuldet/nn/autograd.hpp"
#include "sevuldet/nn/optim.hpp"
#include "sevuldet/util/log.hpp"
#include "sevuldet/util/metrics.hpp"
#include "sevuldet/util/strings.hpp"
#include "sevuldet/util/thread_pool.hpp"
#include "sevuldet/util/trace.hpp"

namespace sevuldet::core {

SampleRefs sample_refs(const dataset::Corpus& corpus,
                       const std::vector<std::size_t>& idx) {
  SampleRefs refs;
  refs.reserve(idx.size());
  for (std::size_t i : idx) refs.push_back(&corpus.samples[i]);
  return refs;
}

SampleRefs all_sample_refs(const dataset::Corpus& corpus) {
  SampleRefs refs;
  refs.reserve(corpus.samples.size());
  for (const auto& s : corpus.samples) refs.push_back(&s);
  return refs;
}

SampleRefs filter_category(const SampleRefs& refs, slicer::TokenCategory category) {
  SampleRefs out;
  for (const auto* s : refs) {
    if (s->category == category) out.push_back(s);
  }
  return out;
}

TrainResult train_detector(models::Detector& detector, const SampleRefs& train,
                           const TrainConfig& config) {
  util::trace::ScopedSpan train_span("train");
  TrainResult result;
  result.samples = train.size();
  if (train.empty()) return result;

  float pos_weight = config.pos_weight;
  if (pos_weight <= 0.0f) {
    long long pos = 0;
    for (const auto* s : train) pos += s->label;
    const long long neg = static_cast<long long>(train.size()) - pos;
    pos_weight = pos == 0 ? 1.0f
                          : std::min(10.0f, static_cast<float>(neg) /
                                                static_cast<float>(std::max(1LL, pos)));
  }

  nn::Adam opt(detector.params(), config.lr);
  util::Rng shuffle_rng(config.seed);
  std::vector<std::size_t> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  // One arena-backed graph reused for every sample: after the first pass
  // over the largest gadget, a train step performs no heap allocation.
  // Classification threshold in logit space: sigmoid(z) > t <=> z > ln(t/(1-t)).
  const float threshold = detector.config().threshold;
  const float logit_threshold =
      std::log(threshold / std::max(1e-7f, 1.0f - threshold));

  nn::Graph graph;
  const auto start = std::chrono::steady_clock::now();
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    util::trace::ScopedSpan epoch_span("train.epoch");
    shuffle_rng.shuffle(order);
    double loss_sum = 0.0;
    long long correct = 0, counted = 0;
    for (std::size_t i : order) {
      const auto& sample = *train[i];
      if (sample.ids.empty()) continue;
      util::metrics::counter_add("train.steps");
      nn::GraphScope scope(graph);
      // Graph backends see the sample's PDG projection; sequence
      // backends read only the tokens.
      const models::BatchItem item{&sample.ids, false, &sample.graph};
      nn::NodePtr logit = detector.forward_logit(item, /*train=*/true);
      const bool predicted = logit->value.at(0, 0) > logit_threshold;
      correct += predicted == (sample.label == 1) ? 1 : 0;
      ++counted;
      nn::NodePtr loss =
          nn::bce_with_logits(logit, static_cast<float>(sample.label));
      if (sample.label == 1 && pos_weight != 1.0f) {
        loss = nn::scale(loss, pos_weight);
      }
      loss_sum += loss->value.at(0, 0);
      opt.zero_grad();
      nn::backward(loss);
      opt.clip_grad_norm(config.grad_clip);
      opt.step();
    }
    const float mean_loss =
        static_cast<float>(loss_sum / static_cast<double>(train.size()));
    result.epoch_losses.push_back(mean_loss);
    result.epoch_accuracies.push_back(
        counted == 0 ? 0.0f
                     : static_cast<float>(correct) / static_cast<float>(counted));
    util::metrics::counter_add("train.epochs");
    if (config.verbose) {
      util::log_info(detector.name() + " epoch " + std::to_string(epoch + 1) +
                     "/" + std::to_string(config.epochs) + " loss=" +
                     util::fmt(mean_loss, 4));
    }
  }
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

namespace {

/// Score test[begin,end) in one predict_batch call (length-bucketed
/// large GEMMs for SeVulDetNet, a per-sample loop for the RNN baselines)
/// and tally the confusion. Same skips and threshold compare as the old
/// per-sample loop — identical counts.
dataset::Confusion evaluate_chunk(models::Detector& model,
                                  const SampleRefs& test, std::size_t begin,
                                  std::size_t end) {
  std::vector<models::BatchItem> items;
  std::vector<bool> truths;
  items.reserve(end - begin);
  truths.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    const auto* sample = test[i];
    if (sample->ids.empty()) continue;
    items.push_back({&sample->ids, false, &sample->graph});
    truths.push_back(sample->label == 1);
  }
  std::vector<models::Prediction> predictions(items.size());
  model.predict_batch(items.data(), items.size(), predictions.data());
  dataset::Confusion confusion;
  const float threshold = model.config().threshold;
  for (std::size_t j = 0; j < items.size(); ++j) {
    confusion.record(predictions[j].probability > threshold, truths[j]);
  }
  return confusion;
}

}  // namespace

dataset::Confusion evaluate_detector(models::Detector& detector,
                                     const SampleRefs& test, int threads) {
  util::trace::ScopedSpan span("eval");
  util::metrics::counter_add("eval.samples",
                             static_cast<long long>(test.size()));
  const int workers = util::resolve_threads(threads);
  if (workers <= 1 || test.size() < 2) {
    return evaluate_chunk(detector, test, 0, test.size());
  }

  util::ThreadPool pool(workers);
  std::vector<std::unique_ptr<models::Detector>> clones(
      static_cast<std::size_t>(pool.size()));
  std::vector<dataset::Confusion> partial(static_cast<std::size_t>(pool.size()));
  for (auto& clone : clones) clone = detector.clone();
  pool.parallel_chunks(test.size(), [&](int worker, std::size_t begin,
                                        std::size_t end) {
    partial[static_cast<std::size_t>(worker)] =
        evaluate_chunk(*clones[static_cast<std::size_t>(worker)], test, begin,
                       end);
  });
  dataset::Confusion confusion;
  for (const auto& p : partial) confusion += p;
  return confusion;
}

}  // namespace sevuldet::core
