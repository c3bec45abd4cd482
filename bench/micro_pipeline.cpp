// Microbenchmarks (google-benchmark) for the preprocessing pipeline and
// network stages: lexing, parsing, PDG construction, path-sensitive
// slicing, normalization, and the SPP-CNN forward pass across sequence
// lengths — plus the end-to-end phase split (preprocess cold/warm
// through the corpus cache, train, evaluate, model save/load)
// that tracks the pipeline's perf trajectory. Record a machine's
// baseline with:
//   ./bench/micro_pipeline --benchmark_format=json > bench/BENCH_pipeline.json
// These measure library throughput, not paper tables.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>

#include "bench_observability.hpp"
#include "sevuldet/core/pipeline.hpp"
#include "sevuldet/core/trainer.hpp"
#include "sevuldet/dataset/corpus.hpp"
#include "sevuldet/dataset/sard_generator.hpp"
#include "sevuldet/frontend/lexer.hpp"
#include "sevuldet/frontend/parser.hpp"
#include "sevuldet/graph/pdg.hpp"
#include "sevuldet/models/sevuldet_net.hpp"
#include "sevuldet/nn/word2vec.hpp"
#include "sevuldet/normalize/normalize.hpp"
#include "sevuldet/slicer/gadget.hpp"

namespace {

using namespace sevuldet;

const dataset::TestCase& sample_case() {
  static dataset::TestCase tc = [] {
    dataset::TemplateSpec spec;
    spec.category = slicer::TokenCategory::FunctionCall;
    spec.vulnerable = true;
    spec.long_variant = true;
    spec.filler = 25;
    spec.seed = 9;
    return dataset::generate_case(spec);
  }();
  return tc;
}

void BM_Lex(benchmark::State& state) {
  const auto& tc = sample_case();
  for (auto _ : state) {
    benchmark::DoNotOptimize(frontend::lex_tokens(tc.source));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(tc.source.size()));
}
BENCHMARK(BM_Lex);

void BM_Parse(benchmark::State& state) {
  const auto& tc = sample_case();
  for (auto _ : state) {
    benchmark::DoNotOptimize(frontend::parse(tc.source));
  }
}
BENCHMARK(BM_Parse);

void BM_BuildProgramGraph(benchmark::State& state) {
  const auto& tc = sample_case();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_program_graph(tc.source));
  }
}
BENCHMARK(BM_BuildProgramGraph);

void BM_PathSensitiveGadgets(benchmark::State& state) {
  const auto& tc = sample_case();
  auto program = graph::build_program_graph(tc.source);
  for (auto _ : state) {
    benchmark::DoNotOptimize(slicer::generate_gadgets(program));
  }
}
BENCHMARK(BM_PathSensitiveGadgets);

void BM_Normalize(benchmark::State& state) {
  const auto& tc = sample_case();
  auto program = graph::build_program_graph(tc.source);
  auto gadgets = slicer::generate_gadgets(program);
  for (auto _ : state) {
    for (const auto& g : gadgets) {
      benchmark::DoNotOptimize(normalize::normalize_gadget(g));
    }
  }
}
BENCHMARK(BM_Normalize);

void BM_SeVulDetForward(benchmark::State& state) {
  models::ModelConfig config;
  config.vocab_size = 200;
  config.embed_dim = 24;
  config.conv_channels = 16;
  config.attn_dim = 24;
  config.dense1 = 64;
  config.dense2 = 32;
  models::SeVulDetNet net(config);
  std::vector<int> ids(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = 2 + static_cast<int>(i % 190);
  const models::BatchItem item{&ids};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward_logit(item, /*train=*/false));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SeVulDetForward)->Arg(30)->Arg(100)->Arg(300)->Arg(1000);

// --- end-to-end phase split ------------------------------------------------
// One small fixed workload (generated once) timed phase by phase:
// preprocessing with a cold vs warm corpus cache, detector training per
// epoch, evaluation, and model persistence. Together the
// rows give the preprocess / train / eval wall-clock split a full run
// pays.

const std::vector<dataset::TestCase>& phase_cases() {
  static const std::vector<dataset::TestCase> cases = [] {
    dataset::SardConfig config;
    config.pairs_per_category = 6;
    return dataset::generate_sard_like(config);
  }();
  return cases;
}

std::filesystem::path bench_tmp(const char* name) {
  return std::filesystem::temp_directory_path() /
         ("sevuldet-micro-pipeline." + std::to_string(::getpid()) + "." + name);
}

void BM_BuildCorpusCold(benchmark::State& state) {
  const auto& cases = phase_cases();
  dataset::CorpusOptions options;  // no cache: every iteration re-slices
  std::size_t samples = 0;
  for (auto _ : state) {
    dataset::Corpus corpus = dataset::build_corpus(cases, options);
    samples = corpus.samples.size();
    benchmark::DoNotOptimize(corpus.samples.data());
  }
  state.counters["samples"] = static_cast<double>(samples);
}
BENCHMARK(BM_BuildCorpusCold)->Unit(benchmark::kMillisecond);

void BM_BuildCorpusWarm(benchmark::State& state) {
  const auto& cases = phase_cases();
  const auto dir = bench_tmp("warm-cache");
  std::filesystem::remove_all(dir);
  dataset::CorpusOptions options;
  options.cache_dir = dir.string();
  dataset::build_corpus(cases, options);  // populate
  double hit_rate = 0.0;
  for (auto _ : state) {
    dataset::Corpus corpus = dataset::build_corpus(cases, options);
    const long long probes = corpus.stats.cache_hits + corpus.stats.cache_misses;
    hit_rate = probes == 0 ? 0.0
                           : static_cast<double>(corpus.stats.cache_hits) /
                                 static_cast<double>(probes);
    benchmark::DoNotOptimize(corpus.samples.data());
  }
  state.counters["hit_rate"] = hit_rate;
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_BuildCorpusWarm)->Unit(benchmark::kMillisecond);

core::PipelineConfig phase_pipeline_config() {
  core::PipelineConfig config;
  config.model.embed_dim = 24;
  config.model.conv_channels = 16;
  config.train.epochs = 1;
  config.pretrain_embeddings = false;
  return config;
}

const dataset::Corpus& phase_corpus() {
  static const dataset::Corpus corpus = [] {
    dataset::Corpus c = dataset::build_corpus(phase_cases());
    dataset::encode_corpus(c);
    return c;
  }();
  return corpus;
}

void BM_Word2Vec(benchmark::State& state) {
  const dataset::Corpus& corpus = phase_corpus();
  std::vector<std::vector<int>> sentences;
  sentences.reserve(corpus.samples.size());
  for (const auto& s : corpus.samples) sentences.push_back(s.ids);
  nn::Word2VecConfig config;
  config.dim = 24;
  config.epochs = 1;
  for (auto _ : state) {
    nn::Word2Vec w2v(corpus.vocab, config);
    w2v.train(sentences);
    benchmark::DoNotOptimize(&w2v.embeddings());
  }
  state.counters["sentences"] = static_cast<double>(sentences.size());
}
BENCHMARK(BM_Word2Vec)->Unit(benchmark::kMillisecond);

void BM_TrainEpoch(benchmark::State& state) {
  const dataset::Corpus& corpus = phase_corpus();
  const core::SampleRefs refs = core::all_sample_refs(corpus);
  for (auto _ : state) {
    core::SeVulDet detector(phase_pipeline_config());
    auto result = detector.train_on_corpus(corpus, refs);
    benchmark::DoNotOptimize(result.epoch_losses.data());
  }
  state.counters["gadgets"] = static_cast<double>(phase_corpus().samples.size());
}
BENCHMARK(BM_TrainEpoch)->Unit(benchmark::kMillisecond);

core::SeVulDet& phase_detector() {
  static core::SeVulDet detector = [] {
    core::SeVulDet d(phase_pipeline_config());
    d.train_on_corpus(phase_corpus(), core::all_sample_refs(phase_corpus()));
    return d;
  }();
  return detector;
}

void BM_Evaluate(benchmark::State& state) {
  core::SeVulDet& detector = phase_detector();
  const core::SampleRefs refs = core::all_sample_refs(phase_corpus());
  for (auto _ : state) {
    auto confusion = core::evaluate_detector(detector.model(), refs);
    benchmark::DoNotOptimize(confusion.tp);
  }
}
BENCHMARK(BM_Evaluate)->Unit(benchmark::kMillisecond);

// Detection with and without attention provenance on one vulnerable
// program. The pair keeps the explain read-out honest: capture is a copy
// of already-computed weights, so the explain variant must track the
// plain one (and both feed the detect/detect.explain phase spans the CI
// span manifest requires).
const std::string& detect_source() {
  static const std::string source = [] {
    for (const auto& tc : phase_cases()) {
      if (tc.vulnerable) return tc.source;
    }
    return phase_cases().front().source;
  }();
  return source;
}

void BM_Detect(benchmark::State& state) {
  core::SeVulDet& detector = phase_detector();
  for (auto _ : state) {
    auto findings = detector.detect(detect_source());
    benchmark::DoNotOptimize(findings.data());
  }
}
BENCHMARK(BM_Detect)->Unit(benchmark::kMillisecond);

void BM_DetectExplain(benchmark::State& state) {
  // Threshold 0 so every gadget becomes a finding: the benchmark then
  // measures the attribution path itself (and reliably feeds the
  // detect.explain span) instead of depending on what the quickly
  // trained phase model happens to flag.
  static core::SeVulDet& detector = []() -> core::SeVulDet& {
    static core::PipelineConfig config = phase_pipeline_config();
    config.model.threshold = 0.0f;
    static core::SeVulDet d(config);
    d.train_on_corpus(phase_corpus(), core::all_sample_refs(phase_corpus()));
    return d;
  }();
  core::DetectOptions options;
  options.explain = true;
  std::size_t attributions = 0;
  for (auto _ : state) {
    auto findings = detector.detect(detect_source(), options);
    attributions = 0;
    for (const auto& f : findings) attributions += f.attributions.size();
    benchmark::DoNotOptimize(findings.data());
  }
  state.counters["attributions"] = static_cast<double>(attributions);
  if (attributions == 0) {
    state.SkipWithError("explain produced no attributions");
  }
}
BENCHMARK(BM_DetectExplain)->Unit(benchmark::kMillisecond);

// Model persistence: the v2 checksummed binary format.
void BM_ModelSaveV2(benchmark::State& state) {
  const auto path = bench_tmp("model-v2").string();
  for (auto _ : state) phase_detector().save(path);
  std::filesystem::remove(path);
}
BENCHMARK(BM_ModelSaveV2)->Unit(benchmark::kMillisecond);

void BM_ModelLoadV2(benchmark::State& state) {
  const auto path = bench_tmp("model-v2-load").string();
  phase_detector().save(path);
  core::SeVulDet restored(phase_pipeline_config());
  for (auto _ : state) restored.load(path);
  std::filesystem::remove(path);
}
BENCHMARK(BM_ModelLoadV2)->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN() with observability in front: strip
// --metrics-out/--trace-out (enabling the registries and arranging the
// atexit write) before benchmark::Initialize sees argv.
int main(int argc, char** argv) {
  bench::strip_observability_flags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
