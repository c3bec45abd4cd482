// Blocked single-precision kernels for the NN hot path. Three GEMM
// variants cover every matmul the autograd tape performs — the two
// transposed forms are fused so no transposed operand is ever
// materialized:
//
//   gemm      C[m,n] += A[m,k]  * B[k,n]   (forward)
//   gemm_at_b C[m,n] += A[k,m]T * B[k,n]   (dB = A^T dOut)
//   gemm_a_bt C[m,n] += A[m,k]  * B[n,k]T  (dA = dOut B^T)
//
// Every kernel is written for compiler auto-vectorization: unit-stride
// inner loops, restrict-qualified pointers, register tiles that fit the
// vector file. Configure with -DSEVULDET_NATIVE=ON for -march=native.
//
// Determinism contract: each output element's floating-point
// accumulation chain is IDENTICAL to the retained *_naive reference
// (terms added in ascending reduction order, one accumulator per
// element). Cache blocking reloads the partial C tile instead of
// re-associating, so blocked and naive results are byte-identical —
// tests/kernels_test.cpp asserts this bitwise over adversarial shapes.
#pragma once

#include <cstddef>

namespace sevuldet::nn::kernels {

// --- cache-tile configuration ---------------------------------------------
// The fp32 GEMM routines block the iteration space with compiled-in
// MC/KC/NC cache tiles. Tile sizes NEVER change results: blocking reloads
// the partial C tile instead of re-associating, so every output element's
// accumulation chain is the naive reference's regardless of the tiles
// (kernels_test pins this bitwise across several tile configurations
// through the hook below).
struct GemmTiles {
  int mc = 0;
  int kc = 0;
  int nc = 0;
};

/// Test hook: install other tiles (values clamped to >= 1). Each GEMM
/// call reads the tile set once at entry.
void set_gemm_tiles(const GemmTiles& tiles);
/// Restore the compiled-in tiles.
void reset_gemm_tiles();

// --- GEMM family (all accumulate into C) ----------------------------------
/// C[m,n] += A[m,k] * B[k,n]; row-major, leading dims = logical widths.
void gemm(int m, int n, int k, const float* a, const float* b, float* c);
/// C[m,n] += A^T * B with A stored [k,m] (no transpose materialized).
void gemm_at_b(int m, int n, int k, const float* a, const float* b, float* c);
/// C[m,n] += A * B^T with B stored [n,k] (dot-product form).
void gemm_a_bt(int m, int n, int k, const float* a, const float* b, float* c);

// Naive references, retained as the exactness oracle (identical
// accumulation chains, no blocking). The forward reference carries no
// sparsity short-circuit: 0 * NaN must propagate (see kernels_test).
void gemm_naive(int m, int n, int k, const float* a, const float* b, float* c);
void gemm_at_b_naive(int m, int n, int k, const float* a, const float* b,
                     float* c);
void gemm_a_bt_naive(int m, int n, int k, const float* a, const float* b,
                     float* c);

// --- level-1 helpers -------------------------------------------------------
/// y[i] += alpha * x[i]
void axpy(std::size_t n, float alpha, const float* x, float* y);
/// y[i] += x[i]
void add_inplace(std::size_t n, const float* x, float* y);
/// out[i] += x[i] * y[i]
void mul_accumulate(std::size_t n, const float* x, const float* y, float* out);
/// Single-accumulator dot product (ascending order — matches the scalar
/// reference chain, so callers stay bit-reproducible).
float dot(std::size_t n, const float* x, const float* y);
/// dst[i] = src[i]
void copy(std::size_t n, const float* src, float* dst);

// --- rowwise / colwise reductions -----------------------------------------
/// out[c] += sum_r a[r,c], rows accumulated in ascending order.
void col_sum_add(int rows, int cols, const float* a, float* out);
/// out[r] += sum_c a[r,c], cols accumulated in ascending order.
void row_sum_add(int rows, int cols, const float* a, float* out);

// --- transpose -------------------------------------------------------------
/// out[n,m] = a[m,n]^T, cache-tiled.
void transpose_copy(int m, int n, const float* a, float* out);
/// out[n,m] += a[m,n]^T, cache-tiled.
void transpose_add(int m, int n, const float* a, float* out);

}  // namespace sevuldet::nn::kernels
