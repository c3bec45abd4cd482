// Model parameter serialization: length-prefixed names and raw
// little-endian f32 payloads via util::ByteWriter/ByteReader — the
// parameter section of v2/v3 model files. It round-trips bit-faithfully.
#pragma once

#include "sevuldet/nn/layers.hpp"
#include "sevuldet/util/binary_io.hpp"

namespace sevuldet::nn {

/// Param count, then per parameter a length-prefixed name, u32
/// rows/cols, and the raw f32 values.
void serialize_params_binary(const ParamStore& store, util::ByteWriter& out);

/// Reads what serialize_params_binary wrote. Throws std::runtime_error on
/// unknown names, shape mismatches, missing parameters, or truncation.
void deserialize_params_binary(ParamStore& store, util::ByteReader& in);

}  // namespace sevuldet::nn
