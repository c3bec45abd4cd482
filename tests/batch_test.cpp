// The length-bucketed batched inference engine's load-bearing contract:
// SeVulDetNet::predict_batch is BITWISE identical to the base class's
// per-item loop (Detector::predict_batch) — across bucket boundaries,
// odd batch sizes, every attention ablation, multiclass heads, and the
// explain capture (attention read-outs travel with the scores). Models
// without a native batched engine run the base loop itself, which must
// score a batch exactly like one gadget at a time. Daemon-level
// byte-identity (client bytes vs in-process detect) is pinned in
// serve_test.cpp — the daemon scores through this same engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "sevuldet/models/birnn_net.hpp"
#include "sevuldet/models/sevuldet_net.hpp"

namespace sm = sevuldet::models;

namespace {

/// Deterministic token sequences with deliberate length collisions:
/// lengths cycle through a template set (multi-gadget buckets) with
/// every fourth gadget on a one-off length (single-segment buckets),
/// including lengths below the conv kernel (padding path).
std::vector<std::vector<int>> make_gadgets(int count, int vocab) {
  constexpr int kTemplateLens[] = {2, 7, 12, 20, 33, 50};
  std::vector<std::vector<int>> gadgets;
  gadgets.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int len =
        i % 4 == 3 ? 1 + (i * 17) % 61 : kTemplateLens[(i / 4) % 6];
    std::vector<int> ids(static_cast<std::size_t>(len));
    for (int j = 0; j < len; ++j) {
      ids[static_cast<std::size_t>(j)] = 1 + (i * 29 + j * 7) % (vocab - 2);
    }
    gadgets.push_back(std::move(ids));
  }
  return gadgets;
}

bool bits_equal(float a, float b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Score every item in one predict_batch call.
std::vector<sm::Prediction> score(sm::Detector& net,
                                  const std::vector<sm::BatchItem>& items) {
  std::vector<sm::Prediction> out(items.size());
  net.predict_batch(items.data(), items.size(), out.data());
  return out;
}

/// Per-gadget reference: the base class's arena-scoped eval loop, the
/// exact path the pipeline ran before the batched engine existed.
std::vector<sm::Prediction> reference_predictions(
    sm::SeVulDetNet& net, const std::vector<std::vector<int>>& gadgets,
    bool capture_spatial = false) {
  std::vector<sm::BatchItem> items;
  for (const auto& ids : gadgets) items.push_back({&ids, capture_spatial});
  std::vector<sm::Prediction> out(items.size());
  net.Detector::predict_batch(items.data(), items.size(), out.data());
  return out;
}

void expect_batched_bitwise(sm::SeVulDetNet& net,
                            const std::vector<std::vector<int>>& gadgets,
                            int batch, bool capture_spatial = false) {
  std::vector<sm::BatchItem> items;
  items.reserve(gadgets.size());
  for (const auto& ids : gadgets) items.push_back({&ids, capture_spatial});
  std::vector<sm::Prediction> batched(gadgets.size());
  for (std::size_t off = 0; off < items.size();
       off += static_cast<std::size_t>(batch)) {
    const std::size_t n =
        std::min(static_cast<std::size_t>(batch), items.size() - off);
    net.predict_batch(items.data() + off, n, batched.data() + off);
  }
  const auto expected = reference_predictions(net, gadgets, capture_spatial);
  for (std::size_t i = 0; i < gadgets.size(); ++i) {
    EXPECT_TRUE(bits_equal(batched[i].probability, expected[i].probability))
        << "gadget " << i << " batch " << batch << ": " << batched[i].probability
        << " vs " << expected[i].probability;
    EXPECT_TRUE(bits_equal(batched[i].token_weights, expected[i].token_weights))
        << "token_weights diverge at gadget " << i;
    EXPECT_TRUE(
        bits_equal(batched[i].spatial_weights, expected[i].spatial_weights))
        << "spatial_weights diverge at gadget " << i;
  }
}

sm::ModelConfig small_config() {
  sm::ModelConfig config;
  config.vocab_size = 120;
  config.embed_dim = 12;
  config.conv_channels = 8;
  config.attn_dim = 10;
  config.dense1 = 24;
  config.dense2 = 12;
  return config;
}

}  // namespace

// ---------------------------------------------------------------------------
// batched == per-gadget, bitwise
// ---------------------------------------------------------------------------

TEST(BatchTest, BatchedMatchesPerGadgetBitwise) {
  sm::SeVulDetNet net(small_config());
  const auto gadgets = make_gadgets(37, net.config().vocab_size);
  // Odd batch sizes straddle bucket boundaries: a bucket of same-length
  // gadgets split across two predict_batch calls must score identically.
  for (const int batch : {1, 2, 3, 5, 17, 37}) {
    expect_batched_bitwise(net, gadgets, batch);
  }
}

TEST(BatchTest, AblationsMatchPerGadgetBitwise) {
  // The RQ2 ablations exercise every engine branch: no token attention
  // (no alpha stage), no CBAM (conv1 -> conv2 direct), parallel CBAM
  // order, and the bare CNN.
  for (const bool token_attention : {true, false}) {
    for (const bool multilayer : {true, false}) {
      for (const bool sequential : {true, false}) {
        sm::ModelConfig config = small_config();
        config.token_attention = token_attention;
        config.multilayer_attention = multilayer;
        config.cbam_sequential = sequential;
        sm::SeVulDetNet net(config);
        const auto gadgets = make_gadgets(13, config.vocab_size);
        expect_batched_bitwise(net, gadgets, 5);
      }
    }
  }
}

TEST(BatchTest, MulticlassMatchesPerGadgetBitwise) {
  sm::ModelConfig config = small_config();
  config.num_classes = 4;
  sm::SeVulDetNet net(config);
  const auto gadgets = make_gadgets(11, config.vocab_size);
  expect_batched_bitwise(net, gadgets, 4);
}

TEST(BatchTest, ExplainCaptureIdenticalUnderBatching) {
  // capture_spatial is the `explain` path: the CBAM spatial map must
  // travel with each prediction and match the per-gadget read-out.
  sm::SeVulDetNet net(small_config());
  const auto gadgets = make_gadgets(9, net.config().vocab_size);
  expect_batched_bitwise(net, gadgets, 4, /*capture_spatial=*/true);
  // Mixed capture flags within one batch: only flagged items pay for
  // the copy, the rest stay empty.
  std::vector<sm::BatchItem> items;
  for (std::size_t i = 0; i < gadgets.size(); ++i) {
    items.push_back({&gadgets[i], i % 2 == 0});
  }
  const auto batched = score(net, items);
  const auto expected = reference_predictions(net, gadgets, true);
  for (std::size_t i = 0; i < gadgets.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(
          bits_equal(batched[i].spatial_weights, expected[i].spatial_weights));
      EXPECT_FALSE(batched[i].spatial_weights.empty());
    } else {
      EXPECT_TRUE(batched[i].spatial_weights.empty());
    }
  }
}

TEST(BatchTest, RepeatedCallsReuseScratchAndStayIdentical) {
  // Steady-state reuse: the engine recycles its scratch across calls;
  // a second pass over the same gadgets must reproduce the first bit
  // for bit (stale scratch contents must never leak into results).
  sm::SeVulDetNet net(small_config());
  const auto gadgets = make_gadgets(21, net.config().vocab_size);
  std::vector<sm::BatchItem> items;
  for (const auto& ids : gadgets) items.push_back({&ids, false});
  const auto first = score(net, items);
  const auto second = score(net, items);
  for (std::size_t i = 0; i < gadgets.size(); ++i) {
    EXPECT_TRUE(bits_equal(first[i].probability, second[i].probability));
    EXPECT_TRUE(bits_equal(first[i].token_weights, second[i].token_weights));
  }
  EXPECT_GT(net.scratch_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// base-class fallback (models without a native batched engine)
// ---------------------------------------------------------------------------

TEST(BatchTest, BiRnnFallbackMatchesRepeatedPredict) {
  sm::ModelConfig config = small_config();
  config.fixed_length = 20;
  const auto net = sm::make_bgru(config);
  const auto gadgets = make_gadgets(15, config.vocab_size);
  std::vector<sm::BatchItem> items;
  for (const auto& ids : gadgets) items.push_back({&ids, false});
  const auto batched = score(*net, items);
  for (std::size_t i = 0; i < gadgets.size(); ++i) {
    sm::Prediction single;
    net->predict_batch(&items[i], 1, &single);
    EXPECT_TRUE(bits_equal(batched[i].probability, single.probability))
        << "BiRnn fallback diverges at gadget " << i;
    EXPECT_TRUE(batched[i].token_weights.empty());
  }
}

TEST(BatchTest, ClonesScoreIdentically) {
  // The serve daemon scores on per-worker clones: a clone must produce
  // the same bytes as the model it was cloned from.
  sm::SeVulDetNet net(small_config());
  const auto clone = net.clone_net();
  const auto gadgets = make_gadgets(7, net.config().vocab_size);
  std::vector<sm::BatchItem> items;
  for (const auto& ids : gadgets) items.push_back({&ids, false});
  const auto a = score(net, items);
  const auto b = score(*clone, items);
  for (std::size_t i = 0; i < gadgets.size(); ++i) {
    EXPECT_TRUE(bits_equal(a[i].probability, b[i].probability));
  }
}
