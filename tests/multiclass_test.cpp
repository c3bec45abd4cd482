#include <gtest/gtest.h>

#include <cmath>

#include "sevuldet/core/multiclass.hpp"
#include "sevuldet/dataset/corpus.hpp"
#include "sevuldet/dataset/kfold.hpp"
#include "sevuldet/dataset/sard_generator.hpp"
#include "sevuldet/models/sevuldet_net.hpp"
#include "sevuldet/nn/autograd.hpp"

namespace sc = sevuldet::core;
namespace sd = sevuldet::dataset;
namespace sm = sevuldet::models;
namespace nn = sevuldet::nn;

TEST(CrossEntropy, ValueAndGradient) {
  // Uniform logits over 4 classes -> loss = log(4).
  auto logits = nn::param(nn::Tensor(1, 4));
  auto loss = nn::cross_entropy_with_logits(logits, 2);
  EXPECT_NEAR(loss->value.at(0, 0), std::log(4.0f), 1e-5f);
  nn::backward(loss);
  // Gradient = softmax - onehot: 0.25 everywhere except target 0.25-1.
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(logits->grad.at(0, j), j == 2 ? -0.75f : 0.25f, 1e-5f);
  }
}

TEST(CrossEntropy, NumericGradient) {
  sevuldet::util::Rng rng(4);
  auto make = [&]() { return nn::Tensor::randn(1, 5, rng, 0.7f); };
  nn::Tensor init = make();
  auto p = nn::param(init);
  auto loss = nn::cross_entropy_with_logits(p, 3);
  nn::backward(loss);
  const float eps = 1e-2f;
  for (int j = 0; j < 5; ++j) {
    nn::Tensor plus = init, minus = init;
    plus.at(0, j) += eps;
    minus.at(0, j) -= eps;
    float up = nn::cross_entropy_with_logits(nn::constant(plus), 3)->value.at(0, 0);
    float down = nn::cross_entropy_with_logits(nn::constant(minus), 3)->value.at(0, 0);
    EXPECT_NEAR(p->grad.at(0, j), (up - down) / (2 * eps), 1e-2f);
  }
}

TEST(CrossEntropy, RejectsBadInput) {
  auto logits = nn::constant(nn::Tensor(1, 3));
  EXPECT_THROW(nn::cross_entropy_with_logits(logits, 3), std::out_of_range);
  EXPECT_THROW(nn::cross_entropy_with_logits(logits, -1), std::out_of_range);
  auto matrix = nn::constant(nn::Tensor(2, 3));
  EXPECT_THROW(nn::cross_entropy_with_logits(matrix, 0), std::invalid_argument);
}

TEST(SoftmaxRow, SumsToOneAndOrders) {
  nn::Tensor logits(1, 3);
  logits.at(0, 0) = 1.0f;
  logits.at(0, 1) = 3.0f;
  logits.at(0, 2) = 2.0f;
  auto probs = nn::softmax_row_values(logits);
  EXPECT_NEAR(probs[0] + probs[1] + probs[2], 1.0f, 1e-5f);
  EXPECT_GT(probs[1], probs[2]);
  EXPECT_GT(probs[2], probs[0]);
}

TEST(CweClassMap, StableMapping) {
  sd::GadgetSample a, b, clean;
  a.label = 1;
  a.cwe = "CWE-121";
  b.label = 1;
  b.cwe = "CWE-835";
  clean.label = 0;
  sc::SampleRefs refs = {&a, &b, &clean};
  auto map = sc::CweClassMap::from_samples(refs);
  EXPECT_EQ(map.num_classes(), 3);
  EXPECT_EQ(map.name_of(0), "benign");
  EXPECT_EQ(map.class_of(clean), 0);
  EXPECT_NE(map.class_of(a), map.class_of(b));
  EXPECT_EQ(map.class_of_cwe("CWE-999"), 0);  // unseen CWE -> benign
}

TEST(MulticlassDetector, PredictClassShapes) {
  sm::ModelConfig config;
  config.vocab_size = 30;
  config.embed_dim = 8;
  config.conv_channels = 8;
  config.attn_dim = 8;
  config.dense1 = 16;
  config.dense2 = 8;
  config.num_classes = 4;
  sm::SeVulDetNet net(config);
  const std::vector<int> ids = {2, 3, 4, 5};
  const sm::BatchItem item{&ids};
  EXPECT_EQ(net.forward_logit(item, /*train=*/false)->value.cols(), 4);
  // predict_batch reports 1 - P(benign) for multiclass models, bitwise
  // equal on the batched engine and the per-item base loop.
  sm::Prediction batched, loop;
  net.predict_batch(&item, 1, &batched);
  net.Detector::predict_batch(&item, 1, &loop);
  EXPECT_GE(batched.probability, 0.0f);
  EXPECT_LE(batched.probability, 1.0f);
  EXPECT_EQ(batched.probability, loop.probability);
}

TEST(Multiclass, EndToEndLearnsTypes) {
  sd::SardConfig gen_config;
  gen_config.pairs_per_category = 10;
  gen_config.long_fraction = 0.0;
  auto corpus = sd::build_corpus(sd::generate_sard_like(gen_config));
  sd::encode_corpus(corpus);
  auto refs = sc::all_sample_refs(corpus);
  auto classes = sc::CweClassMap::from_samples(refs);
  ASSERT_GT(classes.num_classes(), 3);

  sm::ModelConfig config;
  config.vocab_size = corpus.vocab.size();
  config.embed_dim = 12;
  config.conv_channels = 8;
  config.attn_dim = 8;
  config.dense1 = 24;
  config.dense2 = 12;
  config.num_classes = classes.num_classes();
  sm::SeVulDetNet net(config);

  sc::TrainConfig tc;
  tc.epochs = 4;
  tc.lr = 0.003f;
  auto result = sc::train_multiclass(net, refs, classes, tc);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());

  auto eval = sc::evaluate_multiclass(net, refs, classes);
  EXPECT_GT(eval.accuracy, 0.85);  // train-set accuracy after fitting
  // Confusion matrix row sums equal per-class truth counts.
  long long total = 0;
  for (const auto& row : eval.confusion) {
    for (long long v : row) total += v;
  }
  EXPECT_EQ(total, static_cast<long long>(refs.size()));
}

TEST(Multiclass, MismatchedClassCountThrows) {
  sd::GadgetSample a;
  a.label = 1;
  a.cwe = "CWE-121";
  a.ids = {1, 2};
  sc::SampleRefs refs = {&a};
  auto classes = sc::CweClassMap::from_samples(refs);
  sm::ModelConfig config;
  config.vocab_size = 10;
  config.embed_dim = 4;
  config.conv_channels = 4;
  config.attn_dim = 4;
  config.dense1 = 8;
  config.dense2 = 4;
  config.num_classes = 7;  // != classes.num_classes()
  sm::SeVulDetNet net(config);
  sc::TrainConfig tc;
  EXPECT_THROW(sc::train_multiclass(net, refs, classes, tc),
               std::invalid_argument);
}
