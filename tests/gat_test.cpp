// GAT backbone suite: the graph message-passing kernels (hand-computed
// segment softmax, blocked == naive bitwise), the GatNet Detector
// (edge-case graphs, node-α token expansion, node-bucketed
// predict_batch == per-item loop bitwise, clone independence under the
// thread pool), the backend registry, and the v3 model-file round-trip
// through the pipeline. The in-file scalar references follow the same
// contraction rule as the kernels library (-ffp-contract=off, see
// tests/CMakeLists.txt), mirroring kernels_test.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "sevuldet/core/pipeline.hpp"
#include "sevuldet/dataset/sard_generator.hpp"
#include "sevuldet/models/gat_net.hpp"
#include "sevuldet/models/registry.hpp"
#include "sevuldet/nn/graph_kernels.hpp"
#include "sevuldet/util/rng.hpp"
#include "sevuldet/util/thread_pool.hpp"

namespace sc = sevuldet::core;
namespace sd = sevuldet::dataset;
namespace sg = sevuldet::graph;
namespace sm = sevuldet::models;
namespace nk = sevuldet::nn::kernels;
namespace util = sevuldet::util;

namespace {

sm::ModelConfig tiny_gat_config() {
  sm::ModelConfig config;
  config.vocab_size = 40;
  config.embed_dim = 8;
  config.attn_dim = 8;
  config.dense2 = 8;
  config.gat_layers = 2;
  config.gat_hidden = 8;
  return config;
}

/// Two-node graph over a 5-token stream: tokens [0,3) are node 0,
/// [3,5) node 1; one data edge 0 -> 1 (stored sorted by (to, from)).
sg::GadgetGraph two_node_graph() {
  sg::GadgetGraph graph;
  graph.node_offsets = {0, 3, 5};
  graph.edges = {{0, 1, sg::GadgetEdgeType::kData}};
  return graph;
}

/// Probability of one item through the scoring entry point.
float probability(sm::Detector& net, const sm::BatchItem& item) {
  sm::Prediction out;
  net.predict_batch(&item, 1, &out);
  return out.probability;
}

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(rng.uniform_real(-2.0, 2.0));
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// graph kernels
// ---------------------------------------------------------------------------

TEST(GatKernels, SegmentSoftmaxHandComputed) {
  // Segment 0 = {0, ln 2, 0}: exp shifted by max -> {1/2, 1, 1/2},
  // sum 2 -> {0.25, 0.5, 0.25}. Segment 1 = {1, 1} -> {0.5, 0.5}.
  const std::vector<int> offsets = {0, 3, 5};
  const std::vector<float> x = {0.0f, std::log(2.0f), 0.0f, 1.0f, 1.0f};
  std::vector<float> out(x.size(), -1.0f);
  nk::segment_softmax(2, offsets.data(), x.data(), out.data());
  EXPECT_FLOAT_EQ(out[0], 0.25f);
  EXPECT_FLOAT_EQ(out[1], 0.5f);
  EXPECT_FLOAT_EQ(out[2], 0.25f);
  EXPECT_FLOAT_EQ(out[3], 0.5f);
  EXPECT_FLOAT_EQ(out[4], 0.5f);
}

TEST(GatKernels, SegmentSoftmaxMasksEmptySegments) {
  // The middle segment is empty: its (nonexistent) outputs are never
  // touched, and the neighbors normalize independently.
  const std::vector<int> offsets = {0, 2, 2, 3};
  const std::vector<float> x = {3.0f, 3.0f, 7.0f};
  std::vector<float> out(x.size(), -1.0f);
  nk::segment_softmax(3, offsets.data(), x.data(), out.data());
  EXPECT_FLOAT_EQ(out[0], 0.5f);
  EXPECT_FLOAT_EQ(out[1], 0.5f);
  EXPECT_FLOAT_EQ(out[2], 1.0f);
}

TEST(GatKernels, BlockedMatchesNaiveBitwise) {
  const std::size_t n = 37, cols = 19, rows = 11;
  const std::vector<float> src = random_floats(rows * cols, 7);
  std::vector<int> idx(n);
  util::Rng rng(13);
  for (std::size_t i = 0; i < n; ++i) {
    idx[i] = static_cast<int>(rng.uniform(rows));
  }

  std::vector<float> a(n * cols, 0.0f), b(n * cols, 0.0f);
  nk::gather_rows(n, cols, idx.data(), src.data(), a.data());
  nk::gather_rows_naive(n, cols, idx.data(), src.data(), b.data());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << i;

  const std::vector<float> edge_vals = random_floats(n * cols, 23);
  std::vector<float> sa(rows * cols, 0.125f), sb(rows * cols, 0.125f);
  nk::scatter_add_rows(n, cols, idx.data(), edge_vals.data(), sa.data());
  nk::scatter_add_rows_naive(n, cols, idx.data(), edge_vals.data(), sb.data());
  for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_EQ(sa[i], sb[i]) << i;

  const std::vector<int> offsets = {0, 5, 5, 16, 30, 37};
  const std::vector<float> scores = random_floats(n, 31);
  std::vector<float> fa(n, 0.0f), fb(n, 0.0f);
  nk::segment_softmax(5, offsets.data(), scores.data(), fa.data());
  nk::segment_softmax_naive(5, offsets.data(), scores.data(), fb.data());
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(fa[i], fb[i]) << i;

  const std::vector<int> moff = {0, 4, 4, 11};
  const std::vector<float> mrows = random_floats(11 * cols, 43);
  std::vector<float> ma(3 * cols, 0.0f), mb(3 * cols, 0.0f);
  nk::segment_mean(3, moff.data(), cols, mrows.data(), ma.data());
  nk::segment_mean_naive(3, moff.data(), cols, mrows.data(), mb.data());
  for (std::size_t i = 0; i < ma.size(); ++i) ASSERT_EQ(ma[i], mb[i]) << i;
}

// ---------------------------------------------------------------------------
// backend registry
// ---------------------------------------------------------------------------

TEST(Registry, KnowsBothBackendsAndRejectsUnknown) {
  EXPECT_TRUE(sm::valid_backend("cnn"));
  EXPECT_TRUE(sm::valid_backend("gat"));
  EXPECT_FALSE(sm::valid_backend("transformer"));
  EXPECT_EQ(std::string(sm::kDefaultBackend), "cnn");

  sm::ModelConfig config = tiny_gat_config();
  auto cnn = sm::make_detector("cnn", config);
  auto gat = sm::make_detector("gat", config);
  EXPECT_EQ(cnn->name(), "SEVulDet(CNN-MultiATT)");
  EXPECT_EQ(gat->name(), "SEVulDet(GAT)");
  EXPECT_THROW(sm::make_detector("transformer", config),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GatNet forward
// ---------------------------------------------------------------------------

TEST(GatNet, HandlesEmptySingleTokenAndGraphlessInput) {
  sm::GatNet net(tiny_gat_config());
  const std::vector<int> no_tokens;
  const std::vector<int> one_token = {5};
  const float empty = probability(net, {&no_tokens});
  const float single = probability(net, {&one_token});
  EXPECT_TRUE(std::isfinite(empty));
  EXPECT_GT(empty, 0.0f);
  EXPECT_LT(empty, 1.0f);
  EXPECT_TRUE(std::isfinite(single));

  // A null graph and an empty graph both take the exact token-only path.
  const std::vector<int> tokens = {2, 9, 4, 7};
  const sg::GadgetGraph empty_graph;
  EXPECT_EQ(probability(net, {&tokens, false, &empty_graph}),
            probability(net, {&tokens, false, nullptr}));
}

TEST(GatNet, AcceptsStoredSelfLoopEdges) {
  // build_gadget_graph never emits self-edges, but a hand-built graph
  // may: the forward must treat them like any other stored edge (they
  // simply join the node's in-segment next to the injected loop).
  sm::GatNet net(tiny_gat_config());
  const std::vector<int> tokens = {1, 2, 3, 4, 5};
  sg::GadgetGraph graph = two_node_graph();
  graph.edges = {{0, 0, sg::GadgetEdgeType::kData},
                 {0, 1, sg::GadgetEdgeType::kControl}};
  const float p = probability(net, {&tokens, false, &graph});
  EXPECT_TRUE(std::isfinite(p));
  EXPECT_GT(p, 0.0f);
  EXPECT_LT(p, 1.0f);
}

TEST(GatNet, InconsistentGraphFallsBackToTokenPath) {
  sm::GatNet net(tiny_gat_config());
  const std::vector<int> tokens = {1, 2, 3, 4, 5, 6, 7};
  sg::GadgetGraph graph = two_node_graph();  // spans 5 tokens, not 7
  EXPECT_EQ(probability(net, {&tokens, false, &graph}),
            probability(net, {&tokens, false, nullptr}));
}

TEST(GatNet, TokenWeightsExpandNodeAttention) {
  sm::GatNet net(tiny_gat_config());
  const std::vector<int> tokens = {1, 2, 3, 4, 5};
  const sg::GadgetGraph graph = two_node_graph();
  const sm::BatchItem item{&tokens, false, &graph};
  sm::Prediction prediction;
  net.predict_batch(&item, 1, &prediction);
  ASSERT_EQ(prediction.token_weights.size(), tokens.size());
  // Every token of a node carries the node's α...
  EXPECT_EQ(prediction.token_weights[0], prediction.token_weights[1]);
  EXPECT_EQ(prediction.token_weights[1], prediction.token_weights[2]);
  EXPECT_EQ(prediction.token_weights[3], prediction.token_weights[4]);
  // ...and the node weights are a softmax over the two nodes.
  EXPECT_NEAR(prediction.token_weights[0] + prediction.token_weights[3], 1.0f,
              1e-5f);
  EXPECT_GT(prediction.token_weights[0], 0.0f);
  EXPECT_GT(prediction.token_weights[3], 0.0f);
}

TEST(GatNet, GraphStructureChangesTheScore) {
  // Same tokens, different node segmentation: the graph path must
  // actually consume the structure (if it collapsed to the token path
  // these would be equal).
  sm::GatNet net(tiny_gat_config());
  const std::vector<int> tokens = {1, 2, 3, 4, 5};
  const sg::GadgetGraph graph = two_node_graph();
  const float with_graph = probability(net, {&tokens, false, &graph});
  const float token_only = probability(net, {&tokens, false, nullptr});
  EXPECT_NE(with_graph, token_only);
}

// ---------------------------------------------------------------------------
// batched inference + clones
// ---------------------------------------------------------------------------

TEST(GatNet, PredictBatchBitwiseEqualsPerItemLoop) {
  sm::GatNet net(tiny_gat_config());
  const std::vector<std::vector<int>> streams = {
      {1, 2, 3, 4, 5}, {9, 8}, {4, 4, 4, 4, 4, 4, 4, 4, 4},
      {1, 2, 3, 4, 5}, {7},
  };
  const sg::GadgetGraph graph = two_node_graph();
  std::vector<sm::BatchItem> items;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    // Mix graph-backed and graph-less items; the graph only matches the
    // 5-token streams, the rest take the fallback path.
    items.push_back({&streams[i], false, i % 2 == 0 ? &graph : nullptr});
  }

  std::vector<sm::Prediction> batched(items.size());
  net.predict_batch(items.data(), items.size(), batched.data());

  // Base-class loop on an identical clone (predict_batch mutates the
  // net's read-out state, so the reference needs its own instance).
  std::unique_ptr<sm::Detector> reference = net.clone();
  std::vector<sm::Prediction> reference_out(items.size());
  reference->Detector::predict_batch(items.data(), items.size(),
                                     reference_out.data());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const sm::Prediction& expected = reference_out[i];
    EXPECT_EQ(batched[i].probability, expected.probability) << i;
    ASSERT_EQ(batched[i].token_weights.size(), expected.token_weights.size())
        << i;
    for (std::size_t t = 0; t < expected.token_weights.size(); ++t) {
      EXPECT_EQ(batched[i].token_weights[t], expected.token_weights[t]);
    }
    EXPECT_TRUE(batched[i].spatial_weights.empty());
  }
}

TEST(GatNet, ClonesScoreIdenticallyAndIndependentlyUnderThreadPool) {
  sm::GatNet net(tiny_gat_config());
  const std::vector<std::vector<int>> streams = {
      {1, 2, 3, 4, 5}, {6, 7, 8}, {9, 1, 2, 3, 4, 5, 6, 7}, {2, 2, 2},
      {1, 2, 3, 4, 5}, {8, 8},    {3, 1, 4, 1, 5},          {9},
  };
  const sg::GadgetGraph graph = two_node_graph();
  std::vector<sm::BatchItem> items;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    items.push_back(
        {&streams[i], false,
         streams[i].size() == graph.node_offsets.back() ? &graph : nullptr});
  }

  std::vector<float> serial(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    serial[i] = probability(net, items[i]);
  }

  util::ThreadPool pool(4);
  std::vector<std::unique_ptr<sm::Detector>> clones;
  for (int w = 0; w < pool.size(); ++w) clones.push_back(net.clone());
  std::vector<float> parallel(items.size(), -1.0f);
  pool.parallel_chunks(items.size(), [&](int worker, std::size_t begin,
                                         std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      parallel[i] =
          probability(*clones[static_cast<std::size_t>(worker)], items[i]);
    }
  });
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// pipeline round-trip (v3 model files)
// ---------------------------------------------------------------------------

namespace {

sc::PipelineConfig tiny_gat_pipeline_config() {
  sc::PipelineConfig config;
  config.backend = "gat";
  config.model.embed_dim = 12;
  config.model.attn_dim = 8;
  config.model.dense2 = 8;
  config.model.gat_hidden = 12;
  config.train.epochs = 3;
  config.train.lr = 0.002f;
  config.word2vec.epochs = 2;
  return config;
}

std::vector<sd::TestCase> tiny_cases() {
  sd::SardConfig config;
  config.pairs_per_category = 8;
  config.long_fraction = 0.0;
  config.seed = 11;
  return sd::generate_sard_like(config);
}

std::string first_line(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string line;
  std::getline(in, line);
  return line;
}

}  // namespace

TEST(GatPipeline, TrainsSavesV3AndReloadsIdentically) {
  auto cases = tiny_cases();
  sc::SeVulDet detector(tiny_gat_pipeline_config());
  detector.train(cases);
  EXPECT_TRUE(detector.trained());
  EXPECT_EQ(detector.model().name(), "SEVulDet(GAT)");

  const std::string path = ::testing::TempDir() + "gat_roundtrip_model.bin";
  detector.save(path);
  // Non-default backends persist as v3 frames (backend name in the
  // payload); the cnn backend keeps writing byte-stable v2 files.
  EXPECT_EQ(first_line(path), "SEVULDET-MODEL v3");

  // Load with a default (cnn-backend) config: the file must restore the
  // gat backend by itself.
  sc::PipelineConfig fresh = tiny_gat_pipeline_config();
  fresh.backend = sm::kDefaultBackend;
  sc::SeVulDet restored(fresh);
  restored.load(path);
  std::remove(path.c_str());
  EXPECT_EQ(restored.model().name(), "SEVulDet(GAT)");

  std::vector<int> probe = {2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(probability(detector.model(), {&probe}),
            probability(restored.model(), {&probe}));

  // Full detection parity on a vulnerable training program.
  for (const auto& tc : cases) {
    if (!tc.vulnerable) continue;
    auto expected = detector.detect(tc.source);
    auto actual = restored.detect(tc.source);
    ASSERT_EQ(expected.size(), actual.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].line, actual[i].line);
      EXPECT_EQ(expected[i].probability, actual[i].probability);
    }
    break;
  }
}
