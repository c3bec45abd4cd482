// The composed passes: the library's scan paths rebuilt from public
// calls, each wrapped in a bench.<layer> span, so a traced pass splits an
// operation's wall time by layer without spans inside src/. The callers
// check that each composition reproduces the real path byte for byte.
#include <algorithm>
#include <cctype>
#include <filesystem>

#include "bench.hpp"
#include "sevuldet/dataset/gadget_graph.hpp"
#include "sevuldet/frontend/parser.hpp"
#include "sevuldet/frontend/preprocess.hpp"
#include "sevuldet/frontend/recover.hpp"
#include "sevuldet/graph/pdg.hpp"
#include "sevuldet/normalize/normalize.hpp"
#include "sevuldet/slicer/gadget.hpp"
#include "sevuldet/slicer/special_tokens.hpp"
#include "sevuldet/util/binary_io.hpp"
#include "sevuldet/util/strings.hpp"
#include "sevuldet/util/trace.hpp"

namespace e2e {

namespace sc = sevuldet::core;
namespace serve = sevuldet::serve;
namespace frontend = sevuldet::frontend;
namespace graph = sevuldet::graph;
namespace slicer = sevuldet::slicer;
namespace normalize = sevuldet::normalize;
namespace models = sevuldet::models;
namespace su = sevuldet::util;
using Span = su::trace::ScopedSpan;

namespace {

void encode(const normalize::Vocabulary& vocab, sc::PreparedGadget& prepared,
            LayerCounts& counts) {
  {
    Span span("bench.normalize.encode");
    prepared.ids = vocab.encode(prepared.norm.tokens);
  }
  ++counts.gadgets;
  counts.tokens += static_cast<long long>(prepared.ids.size());
  counts.oov_tokens += std::count(prepared.ids.begin(), prepared.ids.end(),
                                  normalize::Vocabulary::kUnk);
}

/// SeVulDet::prepare_program: special tokens, then slice, normalize,
/// encode and project each gadget; empty gadgets are dropped.
std::vector<sc::PreparedGadget> prepare(const sc::SeVulDet& detector,
                                        const graph::ProgramGraph& program,
                                        LayerCounts& counts) {
  std::vector<slicer::SpecialToken> tokens;
  {
    Span span("bench.slicer.special_tokens");
    tokens = slicer::find_special_tokens(program);
  }
  std::vector<sc::PreparedGadget> prepared;
  prepared.reserve(tokens.size());
  for (const slicer::SpecialToken& token : tokens) {
    sc::PreparedGadget gadget;
    gadget.token = token;
    {
      Span span("bench.slicer.gadget");
      gadget.gadget = slicer::generate_gadget(program, token, detector.config().corpus.gadget);
    }
    ++counts.gadgets_sliced;
    if (gadget.gadget.lines.empty()) {
      ++counts.gadgets_empty;
      continue;
    }
    {
      Span span("bench.normalize");
      gadget.norm = normalize::normalize_gadget(gadget.gadget);
    }
    if (gadget.norm.tokens.empty()) continue;
    encode(detector.vocab(), gadget, counts);
    {
      Span span("bench.dataset.gadget_graph");
      gadget.graph = sevuldet::dataset::build_gadget_graph(program, gadget.gadget, gadget.norm);
    }
    prepared.push_back(std::move(gadget));
  }
  return prepared;
}

/// SeVulDet::prepare on raw source: parse, build the PDG, then prepare.
std::vector<sc::PreparedGadget> prepare_source(const sc::SeVulDet& detector,
                                               const std::string& source, LayerCounts& counts) {
  frontend::TranslationUnit unit;
  {
    Span span("bench.frontend.parse");
    unit = frontend::parse(source);
  }
  graph::ProgramGraph program;
  {
    Span span("bench.graph.build");
    program = graph::build_program_graph(std::move(unit), source);
  }
  ++counts.files;
  return prepare(detector, program, counts);
}

std::vector<models::Prediction> forward(sc::SeVulDet& detector,
                                        const std::vector<sc::PreparedGadget>& prepared,
                                        bool explain, LayerCounts& counts) {
  std::vector<models::BatchItem> items;
  items.reserve(prepared.size());
  for (const sc::PreparedGadget& gadget : prepared) {
    items.push_back({&gadget.ids, explain, &gadget.graph});
  }
  std::vector<models::Prediction> predictions(items.size());
  {
    Span span("bench.models.forward");
    detector.model().predict_batch(items.data(), items.size(), predictions.data());
  }
  ++counts.forward_calls;
  counts.forward_gadgets += static_cast<long long>(items.size());
  return predictions;
}

/// The scan frontend's lex-fallback gadgets of one lost region: every
/// risky library call becomes a gadget of the lines around it. The
/// library keeps this step private to core/scan.cpp; this copy must
/// match it, which the scan oracle checks on every traced file.
void append_fallback_gadgets(const frontend::LostRegion& region,
                             const normalize::Vocabulary& vocab,
                             std::vector<sc::PreparedGadget>& out, LayerCounts& counts) {
  Span fallback_span("bench.slicer.fallback");
  const std::vector<std::string> lines = su::split_lines(region.text);
  auto ident_start = [](char c) { return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_'; };
  auto ident_cont = [](char c) { return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_'; };
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& line = lines[li];
    for (std::size_t i = 0; i < line.size();) {
      if (!ident_start(line[i])) {
        ++i;
        continue;
      }
      std::size_t j = i + 1;
      while (j < line.size() && ident_cont(line[j])) ++j;
      const std::string_view word(line.data() + i, j - i);
      std::size_t k = j;
      while (k < line.size() && (line[k] == ' ' || line[k] == '\t')) ++k;
      const bool call = k < line.size() && line[k] == '(';
      i = j;
      if (!call || !slicer::is_risky_library_function(word)) continue;

      sc::PreparedGadget prepared;
      prepared.token.category = slicer::TokenCategory::FunctionCall;
      prepared.token.unit = -1;
      prepared.token.line = region.begin_line + static_cast<int>(li);
      prepared.token.text = std::string(word);
      prepared.gadget.token = prepared.token;
      prepared.gadget.path_sensitive = false;
      const std::size_t lo = li >= 4 ? li - 4 : 0;
      const std::size_t hi = std::min(lines.size() - 1, li + 3);
      for (std::size_t g = lo; g <= hi; ++g) {
        slicer::GadgetLine gadget_line;
        gadget_line.line = region.begin_line + static_cast<int>(g);
        gadget_line.text = std::string(su::trim(lines[g]));
        if (gadget_line.text.empty()) continue;
        prepared.gadget.lines.push_back(std::move(gadget_line));
      }
      if (prepared.gadget.lines.empty()) continue;
      {
        Span span("bench.normalize");
        prepared.norm = normalize::normalize_gadget(prepared.gadget);
      }
      if (prepared.norm.tokens.empty()) continue;
      encode(vocab, prepared, counts);
      out.push_back(std::move(prepared));
    }
  }
}

int count_lines(std::string_view text) {
  if (text.empty()) return 0;
  int lines = static_cast<int>(std::count(text.begin(), text.end(), '\n'));
  if (text.back() != '\n') ++lines;
  return lines;
}

}  // namespace

std::string compose_serve(sc::SeVulDet& detector, const serve::Request& sent,
                          LayerCounts& counts) {
  Span op("bench.op");
  serve::Request request;
  {
    Span span("bench.protocol");
    request = serve::parse_request(serve::request_to_json(sent));
  }
  const std::vector<sc::PreparedGadget> prepared = prepare_source(detector, request.source, counts);

  sc::DetectOptions options;
  options.top_k = request.top_k;
  options.explain = request.op == serve::Op::Explain;
  const std::vector<models::Prediction> predictions =
      forward(detector, prepared, options.explain, counts);
  std::vector<sc::Finding> findings;
  {
    Span span("bench.core.findings");
    for (std::size_t i = 0; i < prepared.size(); ++i) {
      if (auto finding = detector.finding_from_prediction(prepared[i], predictions[i], options)) {
        findings.push_back(std::move(*finding));
      }
    }
    sc::SeVulDet::sort_findings(findings);
  }
  counts.findings += static_cast<long long>(findings.size());
  serve::Response response = serve::findings_response(request.id, std::move(findings));
  response.trace_id = request.trace_id;
  Span span("bench.protocol");
  std::string bytes = serve::response_to_json(response);
  serve::parse_response(bytes);
  return bytes;
}

sc::FileScanResult compose_scan_file(sc::SeVulDet& detector, const std::string& root,
                                     const std::string& relative, LayerCounts& counts) {
  Span op("bench.op");
  const std::filesystem::path path = std::filesystem::path(root) / relative;
  std::string source;
  {
    Span span("bench.io.read");
    source = su::read_binary_file(path.string());
  }
  sc::FileScanResult result;
  result.path = relative;
  frontend::PreprocessOptions pre_options;
  pre_options.include_roots = {root};
  pre_options.current_dir = path.parent_path().string();
  frontend::PreprocessResult pre;
  {
    Span span("bench.frontend.preprocess");
    pre = frontend::preprocess(source, pre_options);
  }
  sc::FileScanStats& stats = result.stats;
  stats.preprocess = pre.stats;
  stats.preprocessed = pre.changed;
  stats.lines_total = count_lines(pre.text);
  frontend::RecoveredParse parsed;
  {
    Span span("bench.frontend.recover");
    parsed = frontend::parse_with_recovery(pre.text);
  }
  stats.parse_clean = parsed.clean;
  stats.chunks_total = parsed.chunks_total;
  stats.chunks_recovered = parsed.chunks_recovered;
  stats.lost_regions = static_cast<int>(parsed.lost.size());
  for (const frontend::LostRegion& region : parsed.lost) {
    stats.lines_lost += region.end_line - region.begin_line + 1;
  }
  graph::ProgramGraph program;
  {
    Span span("bench.graph.build");
    program = graph::build_program_graph(std::move(parsed.unit), pre.text);
  }
  std::vector<sc::PreparedGadget> prepared = prepare(detector, program, counts);
  const std::size_t first_fallback = prepared.size();
  for (const frontend::LostRegion& region : parsed.lost) {
    append_fallback_gadgets(region, detector.vocab(), prepared, counts);
  }
  stats.fallback_gadgets = static_cast<int>(prepared.size() - first_fallback);

  const sc::DetectOptions options;
  const std::vector<models::Prediction> predictions =
      forward(detector, prepared, options.explain, counts);
  {
    Span span("bench.core.findings");
    for (std::size_t i = 0; i < prepared.size(); ++i) {
      std::optional<sc::Finding> finding =
          detector.finding_from_prediction(prepared[i], predictions[i], options);
      if (!finding.has_value()) continue;
      const int origin = pre.origin_line(finding->line);
      if (origin == 0) {
        ++stats.findings_dropped_include;
        continue;
      }
      finding->line = origin;
      for (sc::TokenAttribution& attribution : finding->attributions) {
        attribution.line = pre.origin_line(attribution.line);
      }
      if (i >= first_fallback) ++stats.fallback_findings;
      result.findings.push_back(std::move(*finding));
    }
    sc::SeVulDet::sort_findings(result.findings);
  }
  ++counts.files;
  counts.preprocessed += stats.preprocessed ? 1 : 0;
  counts.recovered += stats.parse_clean ? 0 : 1;
  counts.chunks += stats.chunks_total;
  counts.chunks_recovered += stats.chunks_recovered;
  counts.lines += stats.lines_total;
  counts.lines_lost += stats.lines_lost;
  counts.findings += static_cast<long long>(result.findings.size());
  return result;
}

void compose_extract(const sc::SeVulDet& detector, const std::string& source,
                     LayerCounts& counts) {
  Span op("bench.op");
  prepare_source(detector, source, counts);
}

std::string file_scan_json(const sc::FileScanResult& file) {
  sc::TreeScanResult tree;
  tree.files.push_back(file);
  return serve::tree_scan_to_json(tree);
}

}  // namespace e2e
