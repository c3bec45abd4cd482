#include <gtest/gtest.h>

#include "sevuldet/models/birnn_net.hpp"
#include "sevuldet/models/sevuldet_net.hpp"
#include "sevuldet/nn/optim.hpp"

namespace nm = sevuldet::models;
namespace nn = sevuldet::nn;

namespace {

nm::ModelConfig tiny_config() {
  nm::ModelConfig c;
  c.vocab_size = 20;
  c.embed_dim = 8;
  c.conv_channels = 8;
  c.attn_dim = 8;
  c.dense1 = 16;
  c.dense2 = 8;
  c.rnn_hidden = 8;
  c.fixed_length = 12;
  return c;
}

/// One gadget through the scoring entry point.
nm::Prediction score(nm::Detector& net, const std::vector<int>& ids) {
  const nm::BatchItem item{&ids};
  nm::Prediction out;
  net.predict_batch(&item, 1, &out);
  return out;
}

float probability(nm::Detector& net, const std::vector<int>& ids) {
  return score(net, ids).probability;
}

}  // namespace

TEST(SeVulDetNet, HandlesFlexibleLengths) {
  nm::SeVulDetNet net(tiny_config());
  for (std::size_t len : {1u, 2u, 5u, 40u, 300u}) {
    std::vector<int> ids(len, 3);
    float p = probability(net, ids);
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(SeVulDetNet, AblationNamesAndShapes) {
  auto cfg = tiny_config();
  cfg.multilayer_attention = true;
  EXPECT_EQ(nm::SeVulDetNet(cfg).name(), "SEVulDet(CNN-MultiATT)");
  cfg.multilayer_attention = false;
  cfg.token_attention = true;
  EXPECT_EQ(nm::SeVulDetNet(cfg).name(), "CNN-TokenATT");
  cfg.token_attention = false;
  EXPECT_EQ(nm::SeVulDetNet(cfg).name(), "CNN");
}

TEST(SeVulDetNet, PlainCnnHasFewerParams) {
  auto cfg = tiny_config();
  cfg.multilayer_attention = false;
  cfg.token_attention = false;
  nm::SeVulDetNet plain(cfg);
  nm::SeVulDetNet full(tiny_config());
  EXPECT_LT(plain.params().parameter_count(), full.params().parameter_count());
}

TEST(SeVulDetNet, TokenWeightsMatchInputLength) {
  nm::SeVulDetNet net(tiny_config());
  std::vector<int> ids(17, 2);
  EXPECT_EQ(score(net, ids).token_weights.size(), 17u);
}

TEST(SeVulDetNet, NoTokenAttentionMeansNoWeights) {
  auto cfg = tiny_config();
  cfg.multilayer_attention = false;
  cfg.token_attention = false;
  nm::SeVulDetNet net(cfg);
  EXPECT_TRUE(score(net, {1, 2, 3}).token_weights.empty());
}

TEST(SeVulDetNet, RequiresVocabSize) {
  nm::ModelConfig cfg = tiny_config();
  cfg.vocab_size = 0;
  EXPECT_THROW(nm::SeVulDetNet{cfg}, std::invalid_argument);
}

TEST(SeVulDetNet, LearnsSimplePattern) {
  // Token 5 anywhere in the sequence => vulnerable. A few dozen Adam
  // steps should push the model well past chance.
  auto cfg = tiny_config();
  nm::SeVulDetNet net(cfg);
  nn::Adam opt(net.params(), 0.005f);
  sevuldet::util::Rng rng(3);
  for (int step = 0; step < 400; ++step) {
    const bool positive = rng.bernoulli(0.5);
    std::vector<int> ids;
    const int len = 6 + static_cast<int>(rng.uniform(10));
    for (int i = 0; i < len; ++i) {
      int tok = 2 + static_cast<int>(rng.uniform(3));  // 2..4
      ids.push_back(tok);
    }
    if (positive) ids[rng.uniform(ids.size())] = 5;
    auto logit = net.forward_logit({&ids}, true);
    auto loss = nn::bce_with_logits(logit, positive ? 1.0f : 0.0f);
    opt.zero_grad();
    nn::backward(loss);
    opt.step();
  }
  int correct = 0;
  const int trials = 100;
  for (int i = 0; i < trials; ++i) {
    const bool positive = i % 2 == 0;
    std::vector<int> ids(8, 3);
    if (positive) ids[4] = 5;
    if ((probability(net, ids) > 0.5f) == positive) ++correct;
  }
  EXPECT_GE(correct, 90) << "model failed to learn a trivial pattern";
}

TEST(BiRnnNet, FixLengthTruncatesAndPads) {
  auto cfg = tiny_config();
  cfg.fixed_length = 5;
  nm::BiRnnNet net(cfg, nn::RnnKind::Lstm, "BLSTM");
  auto longer = net.fix_length({1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(longer, (std::vector<int>{1, 2, 3, 4, 5}));
  auto shorter = net.fix_length({1, 2});
  EXPECT_EQ(shorter, (std::vector<int>{1, 2, 0, 0, 0}));
}

TEST(BiRnnNet, TruncationLosesTailSignal) {
  // Definition 8's failure mode made concrete: when the discriminative
  // token sits past the time-step cutoff, the fixed-length net computes
  // IDENTICAL logits for positive and negative sequences.
  auto cfg = tiny_config();
  cfg.fixed_length = 6;
  nm::BiRnnNet net(cfg, nn::RnnKind::Gru, "BGRU");
  std::vector<int> base(10, 3);
  std::vector<int> with_signal = base;
  with_signal[8] = 5;  // beyond the 6-token window
  EXPECT_FLOAT_EQ(probability(net, base), probability(net, with_signal));
  // Inside the window the logits must differ.
  std::vector<int> visible = base;
  visible[2] = 5;
  EXPECT_NE(probability(net, base), probability(net, visible));
}

TEST(BiRnnNet, Factories) {
  auto cfg = tiny_config();
  EXPECT_EQ(nm::make_blstm(cfg)->name(), "BLSTM");
  EXPECT_EQ(nm::make_bgru(cfg)->name(), "BGRU");
  auto vdp = nm::make_vuldeepecker(cfg);
  EXPECT_EQ(vdp->name(), "VulDeePecker");
  EXPECT_EQ(vdp->config().embed_dim, 50);      // Table IV
  EXPECT_FLOAT_EQ(vdp->config().dropout, 0.5f);
  auto sys = nm::make_sysevr(cfg);
  EXPECT_EQ(sys->name(), "SySeVR");
  EXPECT_EQ(sys->config().embed_dim, 30);
}

TEST(Detector, ThresholdIsPoint8) {
  auto cfg = tiny_config();
  nm::SeVulDetNet net(cfg);
  EXPECT_FLOAT_EQ(net.config().threshold, 0.8f);
}
