// Fixed-length bidirectional RNN detectors — the BLSTM/BGRU baselines of
// RQ1 and the stand-ins for VulDeePecker (BLSTM over data-dependence
// gadgets) and SySeVR (BGRU over data+control gadgets). Definition 8 of
// the paper: the token sequence is truncated to the predefined time-step
// count or zero-padded up to it before entering the network.
#pragma once

#include <memory>

#include "sevuldet/models/model.hpp"

namespace sevuldet::models {

class BiRnnNet : public Detector {
 public:
  BiRnnNet(ModelConfig config, nn::RnnKind kind, std::string name);

  nn::NodePtr forward_logit(const BatchItem& item, bool train) override;
  const std::string& name() const override { return name_; }
  nn::ParamStore& params() override { return store_; }

  /// Fixed-length preprocessing (Definition 8): truncate or zero-pad.
  std::vector<int> fix_length(const std::vector<int>& tokens) const;

  std::unique_ptr<Detector> clone() const override;

 private:
  std::string name_;
  nn::ParamStore store_;
  util::Rng rng_;
  nn::RnnKind kind_;
  nn::NodePtr embedding_;
  std::unique_ptr<nn::BiRnn> rnn_;
  std::unique_ptr<nn::Dense> fc_;
  std::vector<int> ids_scratch_;  // fixed-length ids, reused per forward
};

/// Factory helpers matching the paper's baseline names.
std::unique_ptr<BiRnnNet> make_blstm(ModelConfig config);
std::unique_ptr<BiRnnNet> make_bgru(ModelConfig config);
std::unique_ptr<BiRnnNet> make_vuldeepecker(ModelConfig config);  // BLSTM
std::unique_ptr<BiRnnNet> make_sysevr(ModelConfig config);        // BGRU

}  // namespace sevuldet::models
