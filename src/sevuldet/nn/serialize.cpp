#include "sevuldet/nn/serialize.hpp"

#include <stdexcept>
#include <string>

namespace sevuldet::nn {

void serialize_params_binary(const ParamStore& store, util::ByteWriter& out) {
  out.u32(static_cast<std::uint32_t>(store.all().size()));
  for (const auto& [name, node] : store.all()) {
    out.str(name);
    out.u32(static_cast<std::uint32_t>(node->value.rows()));
    out.u32(static_cast<std::uint32_t>(node->value.cols()));
    out.f32_array(node->value.data(), node->value.size());
  }
}

void deserialize_params_binary(ParamStore& store, util::ByteReader& in) {
  const std::uint32_t count = in.u32();
  if (count != store.all().size()) {
    throw std::runtime_error("deserialize: expected " +
                             std::to_string(store.all().size()) +
                             " parameters, got " + std::to_string(count));
  }
  for (std::uint32_t p = 0; p < count; ++p) {
    const std::string name = in.str();
    NodePtr node = store.find(name);
    if (node == nullptr) {
      throw std::runtime_error("deserialize: unknown parameter " + name);
    }
    const int rows = static_cast<int>(in.u32());
    const int cols = static_cast<int>(in.u32());
    if (node->value.rows() != rows || node->value.cols() != cols) {
      throw std::runtime_error("deserialize: shape mismatch for " + name);
    }
    in.f32_array(node->value.data(), node->value.size());
  }
}

}  // namespace sevuldet::nn
