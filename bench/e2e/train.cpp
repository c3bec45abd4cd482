// train: SeVulDet::train on a seeded SARD-like corpus plus a small
// device-style slice (corpus threads 4, word2vec threads 1), repeated
// for the measured time; the last model is then evaluated on a held-out
// corpus generated from seed + 1. It runs the same nn/dataset layers as
// the other workloads the other way round: backward passes, optimizer
// writes and corpus building instead of eval-mode predict_batch, so a
// kernel change that helps inference but costs training shows here.
//
// Training is deterministic, so every job must save the same model
// bytes, and the traced composition must save them too.
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "sevuldet/core/trainer.hpp"
#include "sevuldet/dataset/corpus.hpp"
#include "sevuldet/dataset/realworld.hpp"
#include "sevuldet/models/registry.hpp"
#include "sevuldet/nn/serialize.hpp"
#include "sevuldet/nn/word2vec.hpp"
#include "sevuldet/util/binary_io.hpp"
#include "sevuldet/util/trace.hpp"

namespace e2e {

namespace sc = sevuldet::core;
namespace sd = sevuldet::dataset;
namespace sm = sevuldet::models;
namespace nn = sevuldet::nn;
namespace su = sevuldet::util;
using Span = su::trace::ScopedSpan;

namespace {

constexpr const char* kModel = "job.bin";
// Fingerprint of the default seed's full-size corpora (see check_inputs).
constexpr std::string_view kTrainPin = "8b9617bebe655821";

/// Training programs from `seed`: 8 SARD-like pairs per category plus a
/// device-style slice (~1400 gadgets).
std::vector<sd::TestCase> programs(const Options& options, std::uint64_t seed) {
  std::vector<sd::TestCase> cases = sard_programs(options.smoke ? 1 : 8, seed);
  sd::RealWorldConfig device;
  device.variant_pairs = options.smoke ? 1 : 2;
  device.clean_functions = options.smoke ? 1 : 16;
  device.seed = seed;
  for (sd::TestCase& tc : sd::generate_realworld(device).cases) cases.push_back(std::move(tc));
  return cases;
}

sc::PipelineConfig job_config(const Options& options) {
  sc::PipelineConfig config = serving_config();
  config.train.epochs = options.smoke ? 1 : 2;
  config.train.lr = 0.002f;
  config.corpus.threads = 4;
  config.word2vec.threads = 1;
  return config;
}

/// What SeVulDet::save writes for a "cnn" model: the v2 header and the
/// framed vocabulary + parameters.
std::string model_bytes(const sevuldet::normalize::Vocabulary& vocab, const sm::Detector& model) {
  su::ByteWriter payload;
  payload.str(vocab.serialize());
  nn::serialize_params_binary(model.params(), payload);
  return "SEVULDET-MODEL v2\n" + su::frame_payload("SVDMODL\n", 2, payload.data());
}

/// SeVulDet::train composed from its public steps, each in a span;
/// returns the bytes save() would write.
std::string compose_train(const sc::PipelineConfig& config,
                          const std::vector<sd::TestCase>& cases) {
  Span op("bench.op");
  sd::Corpus corpus;
  {
    Span span("bench.dataset.build_corpus");
    corpus = sd::build_corpus(cases, config.corpus);
  }
  {
    Span span("bench.dataset.encode_corpus");
    sd::encode_corpus(corpus, config.corpus.min_token_count);
  }
  const sc::SampleRefs refs = sc::all_sample_refs(corpus);
  sm::ModelConfig model_config = config.model;
  model_config.vocab_size = corpus.vocab.size();
  std::unique_ptr<sm::Detector> model;
  {
    Span span("bench.models.build");
    model = sm::make_detector(config.backend, model_config);
  }
  {
    Span span("bench.nn.word2vec");
    nn::Word2VecConfig w2v_config = config.word2vec;
    w2v_config.dim = config.model.embed_dim;
    nn::Word2Vec w2v(corpus.vocab, w2v_config);
    std::vector<std::vector<int>> sentences;
    sentences.reserve(refs.size());
    for (const auto* sample : refs) sentences.push_back(sample->ids);
    w2v.train(sentences);
    sm::load_pretrained_embeddings(model->params(), "embedding", w2v.embeddings());
  }
  {
    Span span("bench.nn.train");
    sc::train_detector(*model, refs, config.train);
  }
  Span span("bench.nn.serialize");
  return model_bytes(corpus.vocab, *model);
}

/// Held-out F1 of a trained detector; `heldout` is encoded in place
/// with the detector's vocabulary.
double heldout_f1(sc::SeVulDet& detector, sd::Corpus& heldout) {
  Span op("bench.op");
  Span span("bench.core.evaluate");
  for (sd::GadgetSample& sample : heldout.samples) {
    sample.ids = detector.vocab().encode(sample.tokens);
  }
  return sc::evaluate_detector(detector.model(), sc::all_sample_refs(heldout), 4).f1();
}

}  // namespace

RunResult run_train(const Options& options) {
  RunResult result;
  EndToEnd e2e;
  const sc::PipelineConfig config = job_config(options);
  std::vector<sd::TestCase> cases;
  sd::Corpus heldout;
  for (int rep = 0; rep < setup_reps(options); ++rep) {
    const auto start = rep == 0 ? options.start : Clock::now();
    cases = programs(options, options.seed);
    const std::vector<sd::TestCase> heldout_cases = programs(options, options.seed + 1);
    if (rep == 0) {
      Fingerprint fingerprint;
      using Cases = const std::vector<sd::TestCase>*;
      for (Cases set : {Cases{&cases}, Cases{&heldout_cases}}) {
        for (const sd::TestCase& tc : *set) {
          fingerprint.add(tc.source);
          for (int line : tc.vulnerable_lines) fingerprint.add(static_cast<double>(line));
        }
      }
      check_inputs(result, options, kTrainPin, fingerprint);
    }
    heldout = sd::build_corpus(heldout_cases, config.corpus);
    e2e.setup_s.push_back(ms_since(start) / 1000.0);
  }

  std::unique_ptr<sc::SeVulDet> detector;
  std::vector<std::uint64_t> digests;
  double cpu_s = 0.0;  // CPU time of the measured operations
  std::size_t samples = 0;
  const double measure_ms = options.trace ? 0.0 : 1000.0 * options.seconds;
  const auto window_start = Clock::now();
  while (digests.empty() || ms_since(window_start) < measure_ms) {
    detector = std::make_unique<sc::SeVulDet>(config);
    const double cpu_start = cpu_seconds();
    const auto job_start = Clock::now();
    const sc::TrainResult trained = detector->train(cases);
    e2e.latency_ms.push_back(ms_since(job_start));
    cpu_s += cpu_seconds() - cpu_start;
    samples = trained.samples;
    e2e.gadgets += static_cast<double>(trained.samples * static_cast<std::size_t>(config.train.epochs));
    ++result.attempted;
    detector->save(kModel);
    digests.push_back(su::fnv1a(su::read_binary_file(kModel)));
  }
  for (double ms : e2e.latency_ms) e2e.busy_s += ms / 1000.0;
  for (std::uint64_t digest : digests) {
    if (digest != digests.front()) {
      result.mismatch("training jobs saved different models from the same inputs");
      break;
    }
  }

  if (!options.trace) {
    const double f1 = heldout_f1(*detector, heldout);
    std::printf("# %zu jobs of %zu samples x %d epochs; held-out F1 %.4f on %zu gadgets\n",
                digests.size(), samples, config.train.epochs, f1, heldout.samples.size());
    e2e.peak_rss_mb = peak_rss_mb();
    report_end_to_end(result, e2e);
    return result;
  }

  LayerValues values;
  values["proc.cpu_ms_per_op"] = 1000.0 * cpu_s;
  values["proc.cpu_util"] = ratio(cpu_s, e2e.busy_s);
  values["input.gadgets_per_op"] = static_cast<double>(samples);

  std::string bytes[2];
  OverheadTimer overhead;
  begin_trace(std::size_t{1} << 20);
  overhead.run([&](bool traced) { bytes[traced] = compose_train(config, cases); });
  su::trace::set_enabled(true);
  const double f1 = heldout_f1(*detector, heldout);
  // The slicer/normalize layers as build_corpus runs them, composed per
  // program (build_corpus itself is one call into the library).
  LayerCounts counts;
  for (const sd::TestCase& tc : cases) compose_extract(*detector, tc.source, counts);
  const LayerTimes times = end_trace(result, options, values);
  if (su::fnv1a(bytes[0]) != digests.front() || su::fnv1a(bytes[1]) != digests.front()) {
    result.mismatch("the composed training saved a different model than SeVulDet::train");
  }
  compose_layer_values(times, counts, values);
  values["dataset.build_corpus.ms"] = times.self("bench.dataset.build_corpus");
  values["dataset.encode_corpus.ms"] = times.self("bench.dataset.encode_corpus");
  values["nn.word2vec.ms"] = times.self("bench.nn.word2vec");
  values["nn.train.ms_per_epoch"] = times.self("bench.nn.train") / config.train.epochs;
  values["core.evaluate.ms"] = times.self("bench.core.evaluate");
  values["core.evaluate.heldout_f1"] = f1;
  values["trace.overhead_share"] = overhead.share();
  report_layers(result, values);
  return result;
}

}  // namespace e2e
