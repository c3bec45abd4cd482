// End-to-end integration tests: source programs -> gadgets -> training ->
// detection, plus model persistence. Kept deliberately small so the whole
// suite stays fast.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sevuldet/core/pipeline.hpp"
#include "sevuldet/dataset/kfold.hpp"
#include "sevuldet/dataset/sard_generator.hpp"

namespace sc = sevuldet::core;
namespace sd = sevuldet::dataset;

namespace {

sc::PipelineConfig tiny_pipeline_config() {
  sc::PipelineConfig config;
  config.model.embed_dim = 12;
  config.model.conv_channels = 8;
  config.model.attn_dim = 8;
  config.model.dense1 = 24;
  config.model.dense2 = 8;
  config.train.epochs = 5;
  config.train.lr = 0.002f;
  config.word2vec.epochs = 2;
  return config;
}

std::vector<sd::TestCase> tiny_cases() {
  sd::SardConfig config;
  config.pairs_per_category = 8;
  config.long_fraction = 0.0;  // keep sequences short for test speed
  config.seed = 11;
  return sd::generate_sard_like(config);
}

/// Probability of one encoded gadget through the scoring entry point.
float probability(sc::SeVulDet& detector, const std::vector<int>& ids) {
  const sevuldet::models::BatchItem item{&ids};
  sevuldet::models::Prediction out;
  detector.model().predict_batch(&item, 1, &out);
  return out.probability;
}

std::string read_all(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string bytes;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

void write_all(const std::string& path, const std::string& bytes) {
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

}  // namespace

TEST(Pipeline, TrainsAndBeatsChance) {
  auto cases = tiny_cases();
  sc::SeVulDet detector(tiny_pipeline_config());
  auto result = detector.train(cases);
  EXPECT_TRUE(detector.trained());
  ASSERT_EQ(result.epoch_losses.size(), 5u);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
}

TEST(Pipeline, DetectFindsPlantedFlaw) {
  auto cases = tiny_cases();
  sc::SeVulDet detector(tiny_pipeline_config());
  detector.train(cases);

  // Detect on vulnerable programs drawn from the training distribution —
  // at minimum the detector must flag flaws it has trained on.
  std::vector<sc::Finding> findings;
  for (const auto& tc : cases) {
    if (!tc.vulnerable) continue;
    auto found = detector.detect(tc.source);
    findings.insert(findings.end(), found.begin(), found.end());
    if (!findings.empty()) break;
  }
  // The detector should flag something in the vulnerable program...
  ASSERT_FALSE(findings.empty());
  EXPECT_GT(findings[0].probability, detector.config().model.threshold);
  EXPECT_FALSE(findings[0].function.empty());
  EXPECT_GT(findings[0].line, 0);
  // ...and attach attention explanations.
  EXPECT_FALSE(findings[0].top_tokens.empty());
  EXPECT_FLOAT_EQ(findings[0].top_tokens[0].second, 1.0f);  // normalized to max
}

TEST(Pipeline, DetectBeforeTrainThrows) {
  sc::SeVulDet detector(tiny_pipeline_config());
  EXPECT_THROW(detector.detect("void f() { }"), std::logic_error);
}

TEST(Pipeline, SaveLoadRoundTrip) {
  auto cases = tiny_cases();
  sc::SeVulDet detector(tiny_pipeline_config());
  detector.train(cases);

  const std::string path = ::testing::TempDir() + "sevuldet_test_model.bin";
  detector.save(path);

  sc::SeVulDet restored(tiny_pipeline_config());
  restored.load(path);
  std::remove(path.c_str());

  // Identical predictions on identical input.
  std::vector<int> probe = {2, 3, 4, 5, 6, 7, 8};
  EXPECT_FLOAT_EQ(probability(detector, probe), probability(restored, probe));
  EXPECT_EQ(detector.vocab().size(), restored.vocab().size());
}

// A reloaded detector must reproduce the original's detection findings
// exactly — lines, probabilities, and attention explanations.
TEST(Pipeline, FindingsIdenticalAfterReload) {
  auto cases = tiny_cases();
  sc::PipelineConfig config = tiny_pipeline_config();
  config.model.threshold = 0.3f;  // low bar so the scan yields findings
  sc::SeVulDet detector(config);
  detector.train(cases);

  std::string source;
  std::vector<sc::Finding> expected;
  for (const auto& tc : cases) {
    if (!tc.vulnerable) continue;
    expected = detector.detect(tc.source);
    if (!expected.empty()) {
      source = tc.source;
      break;
    }
  }
  ASSERT_FALSE(expected.empty());

  const std::string path = ::testing::TempDir() + "reload_findings_model.bin";
  detector.save(path);
  sc::SeVulDet restored(config);
  restored.load(path);
  std::remove(path.c_str());

  const auto actual = restored.detect(source);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].function, expected[i].function);
    EXPECT_EQ(actual[i].line, expected[i].line);
    EXPECT_EQ(actual[i].category, expected[i].category);
    EXPECT_EQ(actual[i].token, expected[i].token);
    EXPECT_FLOAT_EQ(actual[i].probability, expected[i].probability);
    EXPECT_EQ(actual[i].top_tokens, expected[i].top_tokens);
  }
}

// A file can be intact (checksum-valid) yet saved under another
// ModelConfig. Loading it must throw and leave the detector exactly as it
// was: same vocabulary, same weights, same findings.
TEST(Pipeline, FailedLoadKeepsPreviousModel) {
  auto cases = tiny_cases();
  sc::PipelineConfig config = tiny_pipeline_config();
  config.model.threshold = 0.3f;  // low bar so the scan yields findings
  sc::SeVulDet trained(config);
  trained.train(cases);
  const std::string good = ::testing::TempDir() + "failed_load_good.bin";
  trained.save(good);

  sc::PipelineConfig other_config = tiny_pipeline_config();
  other_config.model.embed_dim = 10;
  other_config.train.epochs = 1;
  other_config.pretrain_embeddings = false;
  sc::SeVulDet other(other_config);
  other.train(cases);
  const std::string mismatched = ::testing::TempDir() + "failed_load_other.bin";
  other.save(mismatched);

  sc::SeVulDet detector(config);
  detector.load(good);
  std::string source;
  std::vector<sc::Finding> expected;
  for (const auto& tc : cases) {
    if (!tc.vulnerable) continue;
    expected = detector.detect(tc.source);
    if (!expected.empty()) {
      source = tc.source;
      break;
    }
  }
  ASSERT_FALSE(expected.empty());
  const int vocab_size = detector.vocab().size();

  EXPECT_THROW(detector.load(mismatched), std::runtime_error);
  EXPECT_TRUE(detector.trained());
  EXPECT_EQ(detector.vocab().size(), vocab_size);
  const auto actual = detector.detect(source);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].line, expected[i].line);
    EXPECT_EQ(actual[i].token, expected[i].token);
    EXPECT_EQ(actual[i].probability, expected[i].probability);
    EXPECT_EQ(actual[i].top_tokens, expected[i].top_tokens);
  }

  // An untrained detector stays untrained.
  sc::SeVulDet fresh(config);
  EXPECT_THROW(fresh.load(mismatched), std::runtime_error);
  EXPECT_FALSE(fresh.trained());
  std::remove(good.c_str());
  std::remove(mismatched.c_str());
}

TEST(Pipeline, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "sevuldet_test_garbage.bin";
  // Unknown text, and the header of the retired v1 text format.
  for (const char* bytes : {"not a model\n", "SEVULDET-MODEL v1\nvocab 0\n"}) {
    write_all(path, bytes);
    sc::SeVulDet detector(tiny_pipeline_config());
    try {
      detector.load(path);
      ADD_FAILURE() << "loaded " << bytes;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bad model file header"),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

// Truncated or bit-flipped model files must throw, not load half-written
// weights.
TEST(Pipeline, LoadRejectsTruncatedAndCorruptFiles) {
  auto cases = tiny_cases();
  sc::SeVulDet detector(tiny_pipeline_config());
  detector.train(cases);

  const std::string v2_path = ::testing::TempDir() + "trunc_model.bin";
  detector.save(v2_path);
  const std::string v2_bytes = read_all(v2_path);
  const std::string probe_path = ::testing::TempDir() + "probe_model.bin";

  // v2: cut at several depths (header, mid-payload, missing checksum).
  for (std::size_t keep :
       {std::size_t{10}, v2_bytes.size() / 2, v2_bytes.size() - 4}) {
    write_all(probe_path, v2_bytes.substr(0, keep));
    sc::SeVulDet probe(tiny_pipeline_config());
    EXPECT_THROW(probe.load(probe_path), std::runtime_error) << "kept " << keep;
  }
  // v2: single corrupt byte mid-payload fails the checksum.
  {
    std::string corrupt = v2_bytes;
    corrupt[corrupt.size() / 2] ^= 0x40;
    write_all(probe_path, corrupt);
    sc::SeVulDet probe(tiny_pipeline_config());
    EXPECT_THROW(probe.load(probe_path), std::runtime_error);
  }

  std::remove(v2_path.c_str());
  std::remove(probe_path.c_str());
}

TEST(Trainer, CategoryFilter) {
  auto cases = tiny_cases();
  auto corpus = sd::build_corpus(cases);
  sd::encode_corpus(corpus);
  auto all = sc::all_sample_refs(corpus);
  auto fc = sc::filter_category(all, sevuldet::slicer::TokenCategory::FunctionCall);
  EXPECT_FALSE(fc.empty());
  EXPECT_LT(fc.size(), all.size());
  for (const auto* s : fc) {
    EXPECT_EQ(s->category, sevuldet::slicer::TokenCategory::FunctionCall);
  }
}

TEST(Trainer, EvaluateCountsMatchTestSet) {
  auto cases = tiny_cases();
  auto corpus = sd::build_corpus(cases);
  sd::encode_corpus(corpus);
  auto splits = sd::k_fold_splits(corpus.samples.size(), 5, 1);

  sc::PipelineConfig cfg = tiny_pipeline_config();
  sc::SeVulDet detector(cfg);
  detector.train_on_corpus(corpus, sc::sample_refs(corpus, splits[0].train));
  auto test_refs = sc::sample_refs(corpus, splits[0].test);
  auto confusion = sc::evaluate_detector(detector.model(), test_refs);
  EXPECT_EQ(confusion.total(), static_cast<long long>(test_refs.size()));
}

// Registry-refactor pin: the default backend is still the CNN, its name
// and its on-disk format are unchanged, and saving the same trained
// detector twice is byte-identical (deterministic v2 frames — the file
// bytes a pre-registry build produced for this config). The gat backend
// writes v3 frames; only non-default backends pay the new header.
TEST(Pipeline, DefaultBackendIsCnnWithByteStableV2Files) {
  sc::PipelineConfig config = tiny_pipeline_config();
  EXPECT_EQ(config.backend, "cnn");

  auto cases = tiny_cases();
  sc::SeVulDet detector(config);
  detector.train(cases);
  EXPECT_EQ(detector.model().name(), "SEVulDet(CNN-MultiATT)");

  const std::string a = ::testing::TempDir() + "cnn_pin_a.bin";
  const std::string b = ::testing::TempDir() + "cnn_pin_b.bin";
  detector.save(a);
  detector.save(b);

  const std::string bytes_a = read_all(a);
  const std::string bytes_b = read_all(b);
  std::remove(a.c_str());
  std::remove(b.c_str());

  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a.substr(0, 18), "SEVULDET-MODEL v2\n");
  EXPECT_EQ(bytes_a, bytes_b);
}
