// Focused edge-case coverage across modules: the logger, SGD momentum,
// slicer call-depth bounding, goto/switch corner cases in the CFG and
// interpreter, attention identity-at-init, and numeric edges the main
// suites don't hit.
#include <gtest/gtest.h>

#include <cmath>

#include "sevuldet/frontend/parser.hpp"
#include "sevuldet/graph/pdg.hpp"
#include "sevuldet/interp/interp.hpp"
#include "sevuldet/models/sevuldet_net.hpp"
#include "sevuldet/nn/layers.hpp"
#include "sevuldet/nn/optim.hpp"
#include "sevuldet/slicer/slice.hpp"
#include "sevuldet/slicer/special_tokens.hpp"
#include "sevuldet/util/log.hpp"

namespace sf = sevuldet::frontend;
namespace sg = sevuldet::graph;
namespace si = sevuldet::interp;
namespace sm = sevuldet::models;
namespace nn = sevuldet::nn;
namespace ss = sevuldet::slicer;
namespace su = sevuldet::util;

TEST(Log, LevelFiltering) {
  su::LogLevel saved = su::log_level();
  su::set_log_level(su::LogLevel::Warn);
  EXPECT_EQ(su::log_level(), su::LogLevel::Warn);
  // Below-threshold calls must be no-ops (no crash, no state change).
  su::log_debug("dropped");
  su::log_info("dropped");
  su::log_warn("emitted");
  su::set_log_level(su::LogLevel::Off);
  su::log_error("dropped too");
  su::set_log_level(saved);
}

TEST(Optim, SgdMomentumAcceleratesOnRavine) {
  // On a fixed-gradient slope, momentum covers more distance than plain
  // SGD with the same learning rate.
  auto run = [](float momentum) {
    nn::ParamStore store;
    auto p = store.add("x", nn::Tensor::scalar(0.0f));
    nn::Sgd opt(store, 0.01f, momentum);
    for (int i = 0; i < 50; ++i) {
      auto loss = nn::sum_all(nn::scale(p, -1.0f));  // d(loss)/dp = -1
      opt.zero_grad();
      nn::backward(loss);
      opt.step();
    }
    return p->value.at(0, 0);
  };
  EXPECT_GT(run(0.9f), run(0.0f) * 3.0f);
}

TEST(Optim, LearningRateSetters) {
  nn::ParamStore store;
  store.add("x", nn::Tensor::scalar(1.0f));
  nn::Sgd sgd(store, 0.1f);
  sgd.set_learning_rate(0.5f);
  EXPECT_FLOAT_EQ(sgd.learning_rate(), 0.5f);
  nn::Adam adam(store, 0.1f);
  adam.set_learning_rate(0.01f);
  EXPECT_FLOAT_EQ(adam.learning_rate(), 0.01f);
}

TEST(Slicer, CallDepthBoundsInterproceduralGrowth) {
  // A deep call chain: depth 1 must reach fewer functions than depth 3.
  auto program = sg::build_program_graph(R"(
void d(char *s) { char buf[4]; strcpy(buf, s); }
void c(char *s) { d(s); }
void mid(char *s) { c(s); }
void a(char *s) { mid(s); }
)");
  ss::SpecialToken tok;
  for (const auto& t : ss::find_special_tokens(program)) {
    if (t.text == "strcpy") tok = t;
  }
  ss::SliceOptions shallow;
  shallow.max_call_depth = 1;
  ss::SliceOptions deep;
  deep.max_call_depth = 4;
  auto s1 = ss::compute_slice(program, tok.function, tok.unit, shallow);
  auto s3 = ss::compute_slice(program, tok.function, tok.unit, deep);
  EXPECT_LT(s1.units_by_fn.size(), s3.units_by_fn.size());
  EXPECT_TRUE(s3.units_by_fn.contains("a"));
}

TEST(Cfg, GotoBackwardJumpMakesLoop) {
  auto unit = sf::parse(R"(
void f(int n) {
top:
  n = n - 1;
  if (n > 0) goto top;
}
)");
  auto units = sg::flatten_function(unit.functions[0]);
  auto cfg = sg::build_cfg(unit.functions[0], units);
  int label = -1, jump = -1;
  for (const auto& u : units) {
    if (u.kind == sg::UnitKind::Label) label = u.id;
    if (u.kind == sg::UnitKind::Goto) jump = u.id;
  }
  ASSERT_GE(label, 0);
  ASSERT_GE(jump, 0);
  EXPECT_TRUE(cfg.has_edge(jump, label));
}

TEST(Cfg, GotoUnknownLabelFallsToExit) {
  auto unit = sf::parse("void f() { goto nowhere; }");
  auto units = sg::flatten_function(unit.functions[0]);
  auto cfg = sg::build_cfg(unit.functions[0], units);
  EXPECT_TRUE(cfg.has_edge(0, cfg.exit()));
}

TEST(Interp, SwitchDefaultOnlyAndFallthrough) {
  sf::TranslationUnit unit = sf::parse(R"(
int harness_main() {
  int x = 5;
  int r = 0;
  switch (x) {
    case 1:
      r = 10;
    case 2:
      r = r + 1;
      break;
    default:
      r = 99;
  }
  return r;
}
)");
  si::Interpreter interp(unit);
  auto result = interp.run({}, {});
  EXPECT_EQ(result.outcome, si::Outcome::Ok);
  EXPECT_EQ(result.return_value, 99);
}

TEST(Interp, CallocZeroesAndSizeofPointer) {
  sf::TranslationUnit unit = sf::parse(R"(
int harness_main() {
  char *p = (char *)calloc(4, 2);
  if (p == NULL) { return -1; }
  int total = p[0] + p[7];
  free(p);
  return total + (int)sizeof(p);
}
)");
  si::Interpreter interp(unit);
  auto result = interp.run({}, {});
  EXPECT_EQ(result.outcome, si::Outcome::Ok);
  EXPECT_EQ(result.return_value, 8);  // zeros + sizeof(char*) == 8
}

TEST(Interp, NegativeMallocReturnsNull) {
  sf::TranslationUnit unit = sf::parse(R"(
int harness_main() {
  char *p = (char *)malloc(-5);
  if (p == NULL) { return 7; }
  return 0;
}
)");
  si::Interpreter interp(unit);
  EXPECT_EQ(interp.run({}, {}).return_value, 7);
}

TEST(Autograd, Im2RowRejectsTooShortSequence) {
  auto x = nn::constant(nn::Tensor(2, 3));
  EXPECT_THROW(nn::im2row(x, 5, 0), std::invalid_argument);
  // With padding the same sequence is fine.
  EXPECT_NO_THROW(nn::im2row(x, 5, 2));
}

TEST(TokenAttention, IdentityAtInitialization) {
  // Zero-initialized query + T-scaling => the layer starts as identity.
  nn::ParamStore store;
  su::Rng rng(3);
  nn::TokenAttention attn(store, "t", 6, 8, rng);
  nn::Tensor x = nn::Tensor::randn(9, 6, rng, 1.0f);
  auto out = attn.forward(nn::constant(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(out->value[i], x[i], 1e-4f);
  }
}

TEST(Cbam, NearIdentityAtInitialization) {
  // Gate biases start at +2 => sigmoid(~2) ≈ 0.88 twice ≈ 0.77 of the
  // input magnitude — far from the 0.25 a 0.5/0.5 gate product gives.
  nn::ParamStore store;
  su::Rng rng(5);
  nn::Cbam cbam(store, "c", 8, 4, rng);
  nn::Tensor x = nn::Tensor::randn(7, 8, rng, 1.0f);
  auto out = cbam.forward(nn::constant(x));
  double in_norm = 0, out_norm = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    in_norm += std::fabs(x[i]);
    out_norm += std::fabs(out->value[i]);
  }
  EXPECT_GT(out_norm / in_norm, 0.6);
}

TEST(SeVulDetNet, DeterministicForSeed) {
  sm::ModelConfig config;
  config.vocab_size = 40;
  config.embed_dim = 8;
  config.conv_channels = 8;
  config.attn_dim = 8;
  config.dense1 = 16;
  config.dense2 = 8;
  config.seed = 77;
  sm::SeVulDetNet a(config), b(config);
  std::vector<int> probe = {3, 9, 1, 22, 17};
  auto probability = [&probe](sm::Detector& net) {
    const sm::BatchItem item{&probe};
    sm::Prediction out;
    net.predict_batch(&item, 1, &out);
    return out.probability;
  };
  EXPECT_FLOAT_EQ(probability(a), probability(b));
  config.seed = 78;
  sm::SeVulDetNet c(config);
  EXPECT_NE(probability(a), probability(c));
}

TEST(SpecialTokens, DistinguishesDefinedVsExternCalls) {
  auto program = sg::build_program_graph(R"(
void internal(int x) { report(x); }
void f(int n) {
  internal(n);
  external_thing(n);
}
)");
  auto tokens = ss::find_special_tokens(program, ss::TokenCategory::FunctionCall);
  bool has_internal = false, has_external = false, has_report = false;
  for (const auto& t : tokens) {
    if (t.text == "internal") has_internal = true;
    if (t.text == "external_thing") has_external = true;
    if (t.text == "report") has_report = true;
  }
  EXPECT_FALSE(has_internal);  // defined in unit, not a criterion
  EXPECT_TRUE(has_external);   // undefined => treated as library/API
  EXPECT_TRUE(has_report);
}

TEST(Parser, DoWhileWithComplexBody) {
  auto stmt = sf::parse_statement(R"(
do {
  if (x > 0) { x--; } else { x++; }
  y += x;
} while (x != 0 && y < 100);
)");
  EXPECT_EQ(stmt->kind, sf::StmtKind::DoWhile);
}

TEST(Parser, NestedTernaryAndComma) {
  auto e = sf::parse_expression("a ? b ? 1 : 2 : 3");
  EXPECT_EQ(e->kind, sf::ExprKind::Ternary);
  auto stmt = sf::parse_statement("x = 1, y = 2, z = x + y;");
  EXPECT_EQ(stmt->kind, sf::StmtKind::ExprStmt);
  EXPECT_EQ(stmt->exprs[0]->kind, sf::ExprKind::Comma);
}

TEST(Dominance, SelfAndUnreachable) {
  auto program = sg::build_program_graph(
      "void f(int n) { return; n = 1; }");  // n=1 unreachable
  const auto& pdg = program.functions[0];
  auto dom = sg::compute_dominators(pdg.cfg);
  // Unreachable node has no idom.
  int unreachable = -1;
  for (const auto& u : pdg.units) {
    if (u.text == "n = 1") unreachable = u.id;
  }
  ASSERT_GE(unreachable, 0);
  EXPECT_EQ(dom.idom[static_cast<std::size_t>(unreachable)], -1);
  EXPECT_FALSE(dom.dominates(unreachable, 0));
}
