#include "sevuldet/core/multiclass.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <stdexcept>

#include "sevuldet/nn/autograd.hpp"
#include "sevuldet/nn/optim.hpp"
#include "sevuldet/util/log.hpp"
#include "sevuldet/util/strings.hpp"

namespace sevuldet::core {

CweClassMap CweClassMap::from_samples(const SampleRefs& samples) {
  CweClassMap map;
  map.names_.push_back("benign");
  std::set<std::string> cwes;
  for (const auto* s : samples) {
    if (s->label == 1 && !s->cwe.empty()) cwes.insert(s->cwe);
  }
  for (const auto& cwe : cwes) {  // std::set iterates sorted -> stable ids
    map.class_by_cwe_[cwe] = static_cast<int>(map.names_.size());
    map.names_.push_back(cwe);
  }
  return map;
}

int CweClassMap::class_of(const dataset::GadgetSample& sample) const {
  if (sample.label != 1) return 0;
  return class_of_cwe(sample.cwe);
}

int CweClassMap::class_of_cwe(const std::string& cwe) const {
  auto it = class_by_cwe_.find(cwe);
  return it == class_by_cwe_.end() ? 0 : it->second;
}

const std::string& CweClassMap::name_of(int class_id) const {
  return names_.at(static_cast<std::size_t>(class_id));
}

namespace {

/// Argmax class of one eval-mode forward over the softmax probabilities
/// (class 0 is "benign").
int argmax_class(models::Detector& detector, const models::BatchItem& item) {
  const nn::NodePtr logits = detector.forward_logit(item, /*train=*/false);
  const std::vector<float> probs = nn::softmax_row_values(logits->value);
  int best = 0;
  for (std::size_t j = 1; j < probs.size(); ++j) {
    if (probs[j] > probs[static_cast<std::size_t>(best)]) best = static_cast<int>(j);
  }
  return best;
}

}  // namespace

TrainResult train_multiclass(models::Detector& detector, const SampleRefs& train,
                             const CweClassMap& classes,
                             const TrainConfig& config) {
  if (detector.config().num_classes != classes.num_classes()) {
    throw std::invalid_argument("train_multiclass: model has " +
                                std::to_string(detector.config().num_classes) +
                                " classes, map has " +
                                std::to_string(classes.num_classes()));
  }
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

  nn::Graph graph;  // arena-backed autograd storage, reused per sample
  const auto start = std::chrono::steady_clock::now();
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    shuffle_rng.shuffle(order);
    double loss_sum = 0.0;
    for (std::size_t i : order) {
      const auto& sample = *train[i];
      if (sample.ids.empty()) continue;
      nn::GraphScope scope(graph);
      const models::BatchItem item{&sample.ids, false, &sample.graph};
      nn::NodePtr logits = detector.forward_logit(item, /*train=*/true);
      const int target = classes.class_of(sample);
      nn::NodePtr loss = nn::cross_entropy_with_logits(logits, target);
      if (target != 0 && pos_weight != 1.0f) loss = nn::scale(loss, pos_weight);
      loss_sum += loss->value.at(0, 0);
      opt.zero_grad();
      nn::backward(loss);
      opt.clip_grad_norm(config.grad_clip);
      opt.step();
    }
    const float mean_loss =
        static_cast<float>(loss_sum / static_cast<double>(train.size()));
    result.epoch_losses.push_back(mean_loss);
    if (config.verbose) {
      util::log_info(detector.name() + " [multiclass] epoch " +
                     std::to_string(epoch + 1) + "/" +
                     std::to_string(config.epochs) + " loss=" +
                     util::fmt(mean_loss, 4));
    }
  }
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

MulticlassEval evaluate_multiclass(models::Detector& detector,
                                   const SampleRefs& test,
                                   const CweClassMap& classes) {
  const int n = classes.num_classes();
  MulticlassEval eval;
  eval.confusion.assign(static_cast<std::size_t>(n),
                        std::vector<long long>(static_cast<std::size_t>(n), 0));
  long long correct = 0, total = 0;
  nn::Graph graph;
  for (const auto* sample : test) {
    if (sample->ids.empty()) continue;
    nn::GraphScope scope(graph);
    const int truth = classes.class_of(*sample);
    const int predicted =
        argmax_class(detector, {&sample->ids, false, &sample->graph});
    ++eval.confusion[static_cast<std::size_t>(truth)][static_cast<std::size_t>(predicted)];
    if (truth == predicted) ++correct;
    ++total;
  }
  eval.accuracy = total == 0 ? 0.0 : static_cast<double>(correct) / total;

  eval.per_class_precision.resize(static_cast<std::size_t>(n));
  eval.per_class_recall.resize(static_cast<std::size_t>(n));
  eval.per_class_f1.resize(static_cast<std::size_t>(n));
  double f1_sum = 0.0;
  for (int c = 0; c < n; ++c) {
    long long tp = eval.confusion[static_cast<std::size_t>(c)][static_cast<std::size_t>(c)];
    long long pred_c = 0, truth_c = 0;
    for (int o = 0; o < n; ++o) {
      pred_c += eval.confusion[static_cast<std::size_t>(o)][static_cast<std::size_t>(c)];
      truth_c += eval.confusion[static_cast<std::size_t>(c)][static_cast<std::size_t>(o)];
    }
    const double precision = pred_c == 0 ? 0.0 : static_cast<double>(tp) / pred_c;
    const double recall = truth_c == 0 ? 0.0 : static_cast<double>(tp) / truth_c;
    const double f1 =
        precision + recall == 0.0 ? 0.0 : 2 * precision * recall / (precision + recall);
    eval.per_class_precision[static_cast<std::size_t>(c)] = precision;
    eval.per_class_recall[static_cast<std::size_t>(c)] = recall;
    eval.per_class_f1[static_cast<std::size_t>(c)] = f1;
    f1_sum += f1;
  }
  eval.macro_f1 = n == 0 ? 0.0 : f1_sum / n;
  return eval;
}

}  // namespace sevuldet::core
