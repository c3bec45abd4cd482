// Table VII: which systems detect the three planted real-world
// vulnerabilities (modeled on CVE-2016-4453 / CVE-2016-9104 /
// CVE-2016-9776). Detectors: an AFL-like coverage-guided fuzzer run on
// the interpreter substrate, plus VulDeePecker / SySeVR / SEVulDet
// pre-trained on the SARD-like corpus.
#include "bench_common.hpp"

#include "sevuldet/baselines/fuzzer.hpp"
#include "sevuldet/dataset/realworld.hpp"
#include "sevuldet/frontend/parser.hpp"
#include "sevuldet/normalize/normalize.hpp"

int main(int argc, char** argv) {
  bench::parse_bench_flags(argc, argv);
  using namespace bench;
  namespace sb = sevuldet::baselines;
  print_header("Table VII — planted real-world CVE discovery", "Table VII");

  auto train_cases = mixed_training_cases();
  auto realworld = sd::generate_realworld({});

  // --- train the three DL frameworks -------------------------------------
  struct Framework {
    std::string name;
    Representation representation;
    std::unique_ptr<sm::Detector> model;
    sd::Corpus train_corpus;
  };
  std::vector<Framework> frameworks;
  frameworks.push_back({"VulDeePecker", Representation::DataOnly, nullptr, {}});
  frameworks.push_back({"SySeVR", Representation::ControlAndData, nullptr, {}});
  frameworks.push_back({"SEVulDet", Representation::PathSensitive, nullptr, {}});

  for (auto& fw : frameworks) {
    fw.train_corpus = sd::build_corpus(train_cases, corpus_options(fw.representation));
    sd::encode_corpus(fw.train_corpus);
    auto refs = split_corpus(fw.train_corpus);
    sc::SampleRefs train_set = refs.train;
    if (fw.name == "VulDeePecker") {
      train_set = sc::filter_category(train_set, ss::TokenCategory::FunctionCall);
      fw.model = sm::make_vuldeepecker(base_model_config(fw.train_corpus.vocab.size()));
    } else if (fw.name == "SySeVR") {
      fw.model = sm::make_sysevr(base_model_config(fw.train_corpus.vocab.size()));
    } else {
      fw.model = make_sevuldet(fw.train_corpus.vocab.size());
    }
    std::printf("training %s...\n", fw.name.c_str());
    pretrain_embeddings(*fw.model, fw.train_corpus, train_set);
    sc::TrainConfig tc;
    tc.epochs = bench_epochs();
    tc.lr = 0.002f;
    sc::train_detector(*fw.model, train_set, tc);
  }

  // --- evaluate every detector on every planted bug -----------------------
  // Returns the maximum probability over gadgets covering the flagged
  // lines (printed as the decision margin; detection = above threshold).
  auto dl_max_probability = [&](Framework& fw, const sd::TestCase& tc) {
    auto program = sevuldet::graph::build_program_graph(tc.source);
    float best = 0.0f;
    for (const auto& token : sevuldet::slicer::find_special_tokens(program)) {
      if (fw.name == "VulDeePecker" &&
          token.category != ss::TokenCategory::FunctionCall) {
        continue;
      }
      auto gadget = sevuldet::slicer::generate_gadget(
          program, token, corpus_options(fw.representation).gadget);
      bool covers_flaw = false;
      for (const auto& line : gadget.lines) {
        if (tc.vulnerable_lines.contains(line.line)) covers_flaw = true;
      }
      if (!covers_flaw) continue;
      auto norm = sevuldet::normalize::normalize_gadget(gadget);
      auto ids = fw.train_corpus.vocab.encode(norm.tokens);
      const sm::BatchItem item{&ids};
      sm::Prediction prediction;
      fw.model->predict_batch(&item, 1, &prediction);
      best = std::max(best, prediction.probability);
    }
    return best;
  };

  su::Table table({"Planted bug", "Modeled CVE", "File", "AFL", "VulDeePecker",
                   "SySeVR", "SEVulDet"});
  for (const auto& bug : realworld.planted) {
    auto unit = sevuldet::frontend::parse(bug.testcase.source);
    sb::FuzzConfig fuzz;
    fuzz.executions = env_int("SEVULDET_BENCH_FUZZ_EXECS", 20000);
    fuzz.step_limit = 100000;
    auto fuzz_report = sb::fuzz_program(unit, fuzz);
    std::vector<std::string> row = {bug.name, bug.cve, bug.file,
                                    fuzz_report.found ? "yes" : "no"};
    for (auto& fw : frameworks) {
      const float p = dl_max_probability(fw, bug.testcase);
      const bool hit = p > fw.model->config().threshold;
      row.push_back(std::string(hit ? "yes" : "no") + " (p=" +
                    sevuldet::util::fmt(p, 2) + ")");
    }
    table.add_row(row);
  }
  std::printf("\n%s\n", table.to_string().c_str());
  std::printf("paper Table VII: 4453 found by AFL+SySeVR+SEVulDet; 9104 by\n"
              "VulDeePecker+SEVulDet (AFL defeated by the special offset /\n"
              "trigger distance); 9776 by AFL+SEVulDet. SEVulDet finds all 3.\n");
  return 0;
}
