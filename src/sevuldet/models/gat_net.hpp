// Edge-aware graph-attention backbone (the "gat" backend): instead of
// treating a gadget as a flat token sequence, GatNet consumes the
// GadgetGraph projection of the PDG (one node per gadget source line,
// typed control/data/call edges) and runs multi-round masked attention
// message passing over it:
//
//   node features  = mean of the node's embedded tokens
//   per layer      H = X·W;  e_uv = LeakyReLU(a_s·H_u + a_d·H_v + b_type)
//                  α = segment-softmax of e over v's in-neighborhood
//                  X' = ReLU(Σ_u α_uv · H_u)    (self-loops added here)
//   readout        token-attention pool over nodes, then mean‖max concat
//                  -> dense head -> logit
//
// Self-loops are injected at forward time with their own edge-type bias
// (the stored GadgetGraph never contains them — see graph/gadget_graph.hpp),
// so isolated nodes and single-node fallback graphs still aggregate.
// Samples without a graph (legacy corpora, raw token streams) degrade to
// a single node spanning the whole token stream.
//
// All message-passing ops run on the nn/graph_kernels.hpp kernels, so
// the forward pass inherits their blocked==naive bitwise determinism
// (tests/gat_test.cpp pins hand-computed softmaxes and clone parity).
#pragma once

#include <memory>

#include "sevuldet/models/model.hpp"

namespace sevuldet::models {

class GatNet : public Detector {
 public:
  explicit GatNet(ModelConfig config);

  /// Graph-aware forward: uses item.graph when present and consistent
  /// with the token stream. Otherwise (null or mismatched graph) the
  /// token stream becomes a single-node graph, so graph-less callers
  /// still score on this backend.
  nn::NodePtr forward_logit(const BatchItem& item, bool train) override;

  const std::string& name() const override { return name_; }
  nn::ParamStore& params() override { return store_; }

  /// Node-pool attention of the last forward, expanded to one weight per
  /// input token (every token of a node shares the node's α) so the
  /// Fig. 6 provenance path — top_attention_tokens, attributions — works
  /// unchanged on this backend.
  const std::vector<float>& last_token_weights() const override {
    return last_token_weights_;
  }

  /// Scores items grouped by ascending node count: graphs of similar
  /// size reuse the same arena high-water mark, so a mixed batch
  /// allocates like a sorted one. Output is BITWISE-identical to the
  /// base per-item loop (eval forwards are deterministic and each item
  /// still runs in its own GraphScope) — gat_test pins this.
  void predict_batch(const BatchItem* items, std::size_t count,
                     Prediction* out) override;

  std::unique_ptr<GatNet> clone_gat() const;
  std::unique_ptr<Detector> clone() const override { return clone_gat(); }

 private:
  /// One message-passing round's parameters.
  struct GatLayer {
    std::unique_ptr<nn::Dense> w;  // H = X·W + b
    nn::NodePtr a_src, a_dst;      // [hidden, 1] attention vectors
    nn::NodePtr type_bias;         // [edge types + self-loop, 1]
  };

  /// Build the forward's CSR-by-destination edge arrays (self-loops
  /// appended per segment) into the reused scratch members.
  void build_edge_arrays(const graph::GadgetGraph* graph, int nodes);
  nn::NodePtr forward_graph(const std::vector<int>& tokens,
                            const std::vector<int>& node_offsets,
                            const graph::GadgetGraph* graph, bool train);

  std::string name_;
  nn::ParamStore store_;
  util::Rng rng_;  // dropout randomness
  nn::NodePtr embedding_;
  std::vector<GatLayer> layers_;
  std::unique_ptr<nn::TokenAttention> node_attention_;
  std::unique_ptr<nn::Dense> fc1_, fc2_;
  std::vector<float> last_token_weights_;

  // Per-forward integer scratch, reused across calls.
  std::vector<int> offsets_scratch_;  // single-node fallback offsets
  std::vector<int> edge_src_, edge_dst_, edge_type_, seg_offsets_;
  nn::Graph batch_graph_;  // arena for predict_batch (per instance)
  std::vector<std::pair<int, std::size_t>> bucket_order_;  // (nodes, idx)
};

}  // namespace sevuldet::models
