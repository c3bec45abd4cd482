#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <string_view>

#include "sevuldet/nn/layers.hpp"
#include "sevuldet/nn/optim.hpp"
#include "sevuldet/nn/serialize.hpp"

namespace nn = sevuldet::nn;
namespace su = sevuldet::util;

namespace {
nn::Tensor make_tensor(int rows, int cols, std::uint64_t seed = 7) {
  su::Rng rng(seed);
  return nn::Tensor::randn(rows, cols, rng, 0.5f);
}
}  // namespace

TEST(ParamStore, RegistersAndFinds) {
  nn::ParamStore store;
  su::Rng rng(1);
  nn::Dense dense(store, "fc", 4, 3, rng);
  EXPECT_EQ(store.all().size(), 2u);
  EXPECT_NE(store.find("fc.w"), nullptr);
  EXPECT_NE(store.find("fc.b"), nullptr);
  EXPECT_EQ(store.find("nope"), nullptr);
  EXPECT_EQ(store.parameter_count(), 4u * 3u + 3u);
  EXPECT_THROW(nn::Dense(store, "fc", 2, 2, rng), std::invalid_argument);
}

TEST(Dense, ShapeAndLinearity) {
  nn::ParamStore store;
  su::Rng rng(2);
  nn::Dense dense(store, "fc", 5, 3, rng);
  auto x = nn::constant(make_tensor(4, 5));
  auto y = dense.forward(x);
  EXPECT_EQ(y->value.rows(), 4);
  EXPECT_EQ(y->value.cols(), 3);
  // f(2x) - f(0) == 2 (f(x) - f(0))
  auto x2 = nn::constant([&] {
    nn::Tensor t = x->value;
    for (std::size_t i = 0; i < t.size(); ++i) t[i] *= 2.0f;
    return t;
  }());
  auto zero = nn::constant(nn::Tensor(4, 5));
  auto y2 = dense.forward(x2);
  auto y0 = dense.forward(zero);
  for (std::size_t i = 0; i < y->value.size(); ++i) {
    EXPECT_NEAR(y2->value[i] - y0->value[i], 2.0f * (y->value[i] - y0->value[i]),
                1e-4f);
  }
}

TEST(Conv1d, SamePaddingPreservesLength) {
  nn::ParamStore store;
  su::Rng rng(3);
  nn::Conv1d conv(store, "conv", 4, 8, 3, 1, rng);
  auto x = nn::constant(make_tensor(11, 4));
  auto y = conv.forward(x);
  EXPECT_EQ(y->value.rows(), 11);
  EXPECT_EQ(y->value.cols(), 8);
}

TEST(Conv1d, ValidPaddingShrinks) {
  nn::ParamStore store;
  su::Rng rng(3);
  nn::Conv1d conv(store, "conv", 2, 5, 3, 0, rng);
  auto y = conv.forward(nn::constant(make_tensor(10, 2)));
  EXPECT_EQ(y->value.rows(), 8);
}

TEST(TokenAttention, WeightsSumToOne) {
  nn::ParamStore store;
  su::Rng rng(4);
  nn::TokenAttention attn(store, "tok", 6, 8, rng);
  auto x = nn::constant(make_tensor(9, 6));
  auto y = attn.forward(x);
  EXPECT_EQ(y->value.rows(), 9);
  EXPECT_EQ(y->value.cols(), 6);
  const auto& w = attn.last_weights();
  ASSERT_EQ(w.size(), 9u);
  float sum = 0.0f;
  for (float v : w) {
    EXPECT_GT(v, 0.0f);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST(TokenAttention, TrainsToFocusOnInformativeToken) {
  // Sequences where only the token at a marked position determines the
  // label; attention should learn weights and the model should fit.
  nn::ParamStore store;
  su::Rng rng(5);
  const int e = 4;
  nn::TokenAttention attn(store, "tok", e, 8, rng);
  nn::Dense head(store, "head", e, 1, rng);
  nn::Adam opt(store, 0.01f);

  su::Rng data_rng(6);
  float initial_loss = 0.0f, final_loss = 0.0f;
  const int steps = 300;
  for (int step = 0; step < steps; ++step) {
    // Build a random sequence; signal token has col-0 = +/-3.
    const int t = 5 + static_cast<int>(data_rng.uniform(6));
    nn::Tensor x(t, e);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<float>(data_rng.normal()) * 0.3f;
    }
    const int pos = static_cast<int>(data_rng.uniform(static_cast<std::uint64_t>(t)));
    const bool positive = data_rng.bernoulli(0.5);
    x.at(pos, 0) = positive ? 3.0f : -3.0f;
    x.at(pos, 1) = 3.0f;  // marks "this is the signal token"

    auto weighted = attn.forward(nn::constant(x));
    auto pooled = nn::reduce_rows_mean(weighted);
    auto logit = head.forward(pooled);
    auto loss = nn::bce_with_logits(logit, positive ? 1.0f : 0.0f);
    if (step < 20) initial_loss += loss->value.at(0, 0) / 20.0f;
    if (step >= steps - 20) final_loss += loss->value.at(0, 0) / 20.0f;
    opt.zero_grad();
    nn::backward(loss);
    opt.step();
  }
  EXPECT_LT(final_loss, initial_loss * 0.7f);
}

TEST(Cbam, PreservesShape) {
  nn::ParamStore store;
  su::Rng rng(7);
  nn::Cbam cbam(store, "cbam", 8, 4, rng, /*sequential=*/true);
  auto x = nn::constant(make_tensor(13, 8));
  auto y = cbam.forward(x);
  EXPECT_EQ(y->value.rows(), 13);
  EXPECT_EQ(y->value.cols(), 8);
}

TEST(Cbam, ParallelVariantAlsoWorks) {
  nn::ParamStore store;
  su::Rng rng(8);
  nn::Cbam cbam(store, "cbam", 6, 2, rng, /*sequential=*/false);
  auto y = cbam.forward(nn::constant(make_tensor(5, 6)));
  EXPECT_EQ(y->value.rows(), 5);
  EXPECT_EQ(y->value.cols(), 6);
}

TEST(Cbam, AttenuatesNotAmplifies) {
  // Sigmoid gates are in (0,1): |F''| <= |F| elementwise for the
  // sequential variant.
  nn::ParamStore store;
  su::Rng rng(9);
  nn::Cbam cbam(store, "cbam", 4, 2, rng);
  auto x = nn::constant(make_tensor(6, 4));
  auto y = cbam.forward(x);
  for (std::size_t i = 0; i < y->value.size(); ++i) {
    EXPECT_LE(std::fabs(y->value[i]), std::fabs(x->value[i]) + 1e-6f);
  }
}

TEST(LstmCell, StepShapesAndGradientFlow) {
  nn::ParamStore store;
  su::Rng rng(10);
  nn::LstmCell cell(store, "lstm", 3, 5, rng);
  auto state = cell.initial();
  auto x = nn::constant(make_tensor(1, 3));
  for (int i = 0; i < 4; ++i) state = cell.step(x, state);
  EXPECT_EQ(state.h->value.cols(), 5);
  auto loss = nn::sum_all(state.h);
  nn::backward(loss);
  auto w = store.find("lstm.w");
  float gnorm = 0.0f;
  for (std::size_t i = 0; i < w->grad.size(); ++i) gnorm += std::fabs(w->grad[i]);
  EXPECT_GT(gnorm, 0.0f);
}

TEST(GruCell, StepShapesAndGradientFlow) {
  nn::ParamStore store;
  su::Rng rng(11);
  nn::GruCell cell(store, "gru", 3, 4, rng);
  auto h = cell.initial();
  auto x = nn::constant(make_tensor(1, 3));
  for (int i = 0; i < 4; ++i) h = cell.step(x, h);
  EXPECT_EQ(h->value.cols(), 4);
  auto loss = nn::sum_all(h);
  nn::backward(loss);
  auto w = store.find("gru.wh");
  float gnorm = 0.0f;
  for (std::size_t i = 0; i < w->grad.size(); ++i) gnorm += std::fabs(w->grad[i]);
  EXPECT_GT(gnorm, 0.0f);
}

TEST(BiRnn, OutputDimAndDirectionality) {
  nn::ParamStore store;
  su::Rng rng(12);
  nn::BiRnn rnn(store, "birnn", nn::RnnKind::Lstm, 3, 6, rng);
  EXPECT_EQ(rnn.output_dim(), 12);
  auto x = nn::constant(make_tensor(7, 3));
  auto y = rnn.forward(x);
  EXPECT_EQ(y->value.rows(), 1);
  EXPECT_EQ(y->value.cols(), 12);
  // Reversing the sequence swaps the roles of the two directions, so the
  // output must change (weights differ per direction).
  nn::Tensor rev(7, 3);
  for (int i = 0; i < 7; ++i) {
    for (int j = 0; j < 3; ++j) rev.at(i, j) = x->value.at(6 - i, j);
  }
  auto y_rev = rnn.forward(nn::constant(rev));
  bool differs = false;
  for (std::size_t i = 0; i < y->value.size(); ++i) {
    if (std::fabs(y->value[i] - y_rev->value[i]) > 1e-6f) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(BiRnn, GruVariant) {
  nn::ParamStore store;
  su::Rng rng(13);
  nn::BiRnn rnn(store, "bgru", nn::RnnKind::Gru, 4, 5, rng);
  auto y = rnn.forward(nn::constant(make_tensor(9, 4)));
  EXPECT_EQ(y->value.cols(), 10);
}

TEST(Optim, SgdConvergesOnQuadratic) {
  nn::ParamStore store;
  auto p = store.add("x", nn::Tensor::scalar(5.0f));
  nn::Sgd opt(store, 0.1f);
  for (int i = 0; i < 200; ++i) {
    auto loss = nn::sum_all(nn::mul(p, p));
    opt.zero_grad();
    nn::backward(loss);
    opt.step();
  }
  EXPECT_NEAR(p->value.at(0, 0), 0.0f, 1e-3f);
}

TEST(Optim, AdamConvergesOnQuadratic) {
  nn::ParamStore store;
  auto p = store.add("x", nn::Tensor::scalar(-4.0f));
  nn::Adam opt(store, 0.1f);
  for (int i = 0; i < 300; ++i) {
    auto shifted = nn::sub(p, nn::constant(nn::Tensor::scalar(2.0f)));
    auto loss = nn::sum_all(nn::mul(shifted, shifted));
    opt.zero_grad();
    nn::backward(loss);
    opt.step();
  }
  EXPECT_NEAR(p->value.at(0, 0), 2.0f, 1e-2f);
}

TEST(Optim, GradClipBoundsNorm) {
  nn::ParamStore store;
  auto p = store.add("x", nn::Tensor::scalar(1.0f));
  nn::Sgd opt(store, 0.1f);
  auto loss = nn::sum_all(nn::scale(p, 100.0f));
  opt.zero_grad();
  nn::backward(loss);
  float pre = opt.clip_grad_norm(1.0f);
  EXPECT_NEAR(pre, 100.0f, 1e-3f);
  EXPECT_NEAR(p->grad.at(0, 0), 1.0f, 1e-4f);
}

TEST(Serialize, RoundTrip) {
  nn::ParamStore store;
  su::Rng rng(14);
  nn::Dense dense(store, "fc", 3, 2, rng);
  su::ByteWriter out;
  nn::serialize_params_binary(store, out);

  nn::ParamStore store2;
  su::Rng rng2(999);  // different init
  nn::Dense dense2(store2, "fc", 3, 2, rng2);
  su::ByteReader in(out.data());
  nn::deserialize_params_binary(store2, in);
  EXPECT_TRUE(in.done());
  for (const char* name : {"fc.w", "fc.b"}) {
    const nn::Tensor& a = store.find(name)->value;
    const nn::Tensor& b = store2.find(name)->value;
    ASSERT_TRUE(a.same_shape(b));
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << name;
  }
}

TEST(Serialize, RejectsMismatch) {
  nn::ParamStore store;
  su::Rng rng(15);
  nn::Dense dense(store, "fc", 3, 2, rng);
  su::ByteWriter out;
  nn::serialize_params_binary(store, out);
  const std::string blob = out.data();

  nn::ParamStore other;
  nn::Dense dense2(other, "different", 3, 2, rng);
  su::ByteReader other_in(blob);
  EXPECT_THROW(nn::deserialize_params_binary(other, other_in),
               std::runtime_error);

  nn::ParamStore wrong_shape;
  nn::Dense dense3(wrong_shape, "fc", 4, 2, rng);
  su::ByteReader shape_in(blob);
  EXPECT_THROW(nn::deserialize_params_binary(wrong_shape, shape_in),
               std::runtime_error);

  su::ByteReader truncated(std::string_view(blob).substr(0, blob.size() / 2));
  nn::ParamStore store2;
  nn::Dense dense4(store2, "fc", 3, 2, rng);
  EXPECT_THROW(nn::deserialize_params_binary(store2, truncated),
               std::runtime_error);
}
