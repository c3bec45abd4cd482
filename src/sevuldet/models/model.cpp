#include "sevuldet/models/model.hpp"

#include <cmath>
#include <stdexcept>

namespace sevuldet::models {

const std::vector<float>& Detector::last_token_weights() const {
  static const std::vector<float> kEmpty;
  return kEmpty;
}

const std::vector<float>& Detector::last_spatial_weights() const {
  static const std::vector<float> kEmpty;
  return kEmpty;
}

void Detector::predict_one(const BatchItem& item, Prediction& out) {
  const nn::NodePtr logit = forward_logit(item, /*train=*/false);
  out.probability = config_.num_classes > 1
                        ? 1.0f - nn::softmax_row_values(logit->value)[0]
                        : 1.0f / (1.0f + std::exp(-logit->value.at(0, 0)));
  // Empty for models without an attention head.
  out.token_weights = last_token_weights();
  out.spatial_weights =
      item.capture_spatial ? last_spatial_weights() : std::vector<float>{};
}

void Detector::predict_batch(const BatchItem* items, std::size_t count,
                             Prediction* out) {
  // Each item gets its own graph scope so the autograd arena is recycled
  // per forward, exactly like the serial eval loop.
  nn::Graph graph;
  for (std::size_t i = 0; i < count; ++i) {
    nn::GraphScope scope(graph);
    predict_one(items[i], out[i]);
  }
}

void copy_parameters(const nn::ParamStore& from, nn::ParamStore& to) {
  for (const auto& [name, node] : from.all()) {
    nn::NodePtr target = to.find(name);
    if (target == nullptr) {
      throw std::invalid_argument("copy_parameters: missing parameter " + name);
    }
    if (!target->value.same_shape(node->value)) {
      throw std::invalid_argument("copy_parameters: shape mismatch for " + name);
    }
    target->value = node->value;
  }
}

void load_pretrained_embeddings(nn::ParamStore& store,
                                const std::string& param_name,
                                const nn::Tensor& vectors) {
  nn::NodePtr embed = store.find(param_name);
  if (embed == nullptr) {
    throw std::invalid_argument("no embedding parameter named " + param_name);
  }
  if (embed->value.cols() != vectors.cols()) {
    throw std::invalid_argument("embedding dim mismatch");
  }
  const int rows = std::min(embed->value.rows(), vectors.rows());
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < vectors.cols(); ++c) {
      embed->value.at(r, c) = vectors.at(r, c);
    }
  }
}

}  // namespace sevuldet::models
