// Graph message-passing microbenchmark + correctness harness for the
// GAT backend. Before timing anything it proves two bitwise contracts
// and exits nonzero if either breaks:
//
//   exit 4  blocked graph kernels != their naive oracles
//           (gather/scatter/segment-softmax/segment-mean over
//           corpus-shaped random graphs)
//   exit 5  GatNet node-bucketed predict_batch != the base class's
//           per-item Detector::predict_batch loop (probability or
//           token weights)
//
// Then it records throughput gauges (absolute scans/s never gate; the
// committed BENCH_gat.json baseline gates the machine-independent
// batch_vs_single ratio floor instead), alloc-counts a warm batched
// pass (operator-new override, counter bench.gat.allocs_per_pass —
// check_bench.py fails the gate if it rises above the baseline), and
// emits the gat.forward / gat.batch spans the CI perf gate validates
// against bench/SPANS_manifest.json (--spans-key gat_spans).
//
//   micro_gat [--gadgets N] [--secs S] [--reps R] [--json PATH]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sevuldet/models/gat_net.hpp"
#include "sevuldet/nn/autograd.hpp"
#include "sevuldet/nn/graph_kernels.hpp"
#include "sevuldet/util/metrics.hpp"
#include "sevuldet/util/rng.hpp"

// --- allocation counter ----------------------------------------------------
// Same replacement-operator pattern as micro_kernels / micro_batch.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<long long> g_allocs{0};
}

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

namespace sg = sevuldet::graph;
namespace sm = sevuldet::models;
namespace nn = sevuldet::nn;
namespace nk = sevuldet::nn::kernels;
namespace su = sevuldet::util;
using Clock = std::chrono::steady_clock;

bool bits_equal(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// One deterministic corpus-shaped sample: `nodes` gadget lines of 2-9
/// tokens each, with a chain of control edges, a scattering of data
/// edges (def -> later use), and the occasional call edge — the same
/// edge mix build_gadget_graph emits, stored in its (to, from, type)
/// sort order.
struct Sample {
  std::vector<int> tokens;
  sg::GadgetGraph graph;
};

Sample make_sample(int nodes, int vocab, su::Rng& rng) {
  Sample sample;
  sample.graph.node_offsets.push_back(0);
  for (int n = 0; n < nodes; ++n) {
    const int len = 2 + static_cast<int>(rng.uniform(8));
    for (int t = 0; t < len; ++t) {
      sample.tokens.push_back(
          2 + static_cast<int>(rng.uniform(static_cast<std::uint64_t>(vocab - 4))));
    }
    sample.graph.node_offsets.push_back(
        static_cast<std::uint32_t>(sample.tokens.size()));
  }
  for (int d = 1; d < nodes; ++d) {
    sample.graph.edges.push_back({static_cast<std::uint32_t>(d - 1),
                                  static_cast<std::uint32_t>(d),
                                  sg::GadgetEdgeType::kControl});
    if (d >= 2 && rng.bernoulli(0.6)) {
      sample.graph.edges.push_back(
          {static_cast<std::uint32_t>(rng.uniform(static_cast<std::uint64_t>(d))),
           static_cast<std::uint32_t>(d), sg::GadgetEdgeType::kData});
    }
    if (rng.bernoulli(0.2)) {
      sample.graph.edges.push_back(
          {static_cast<std::uint32_t>(rng.uniform(static_cast<std::uint64_t>(d))),
           static_cast<std::uint32_t>(d), sg::GadgetEdgeType::kCall});
    }
  }
  std::sort(sample.graph.edges.begin(), sample.graph.edges.end(),
            [](const sg::GadgetEdge& a, const sg::GadgetEdge& b) {
              if (a.to != b.to) return a.to < b.to;
              if (a.from != b.from) return a.from < b.from;
              return static_cast<int>(a.type) < static_cast<int>(b.type);
            });
  return sample;
}

/// Blocked kernels vs naive oracles on random instances. Returns false
/// (after printing the first divergence) on any bit mismatch.
bool kernels_match_oracles() {
  su::Rng rng(1234);
  for (int round = 0; round < 8; ++round) {
    const std::size_t rows = 3 + rng.uniform(60);
    const std::size_t cols = 1 + rng.uniform(48);
    const std::size_t n = 1 + rng.uniform(4 * rows);
    std::vector<float> src(rows * cols), edge_vals(n * cols), scores(n);
    for (float& v : src) v = static_cast<float>(rng.uniform_real(-2.0, 2.0));
    for (float& v : edge_vals) {
      v = static_cast<float>(rng.uniform_real(-2.0, 2.0));
    }
    for (float& v : scores) v = static_cast<float>(rng.uniform_real(-4.0, 4.0));
    std::vector<int> idx(n);
    for (int& i : idx) i = static_cast<int>(rng.uniform(rows));

    std::vector<float> a(n * cols), b(n * cols);
    nk::gather_rows(n, cols, idx.data(), src.data(), a.data());
    nk::gather_rows_naive(n, cols, idx.data(), src.data(), b.data());
    if (a != b) {
      std::fprintf(stderr, "round %d: gather_rows != naive\n", round);
      return false;
    }

    std::vector<float> sa(rows * cols, 0.5f), sb(rows * cols, 0.5f);
    nk::scatter_add_rows(n, cols, idx.data(), edge_vals.data(), sa.data());
    nk::scatter_add_rows_naive(n, cols, idx.data(), edge_vals.data(),
                               sb.data());
    if (sa != sb) {
      std::fprintf(stderr, "round %d: scatter_add_rows != naive\n", round);
      return false;
    }

    // Random segmentation of [0, n), empty segments included.
    std::vector<int> offsets = {0};
    while (offsets.back() < static_cast<int>(n)) {
      offsets.push_back(std::min<int>(
          static_cast<int>(n), offsets.back() + static_cast<int>(rng.uniform(7))));
    }
    const std::size_t segs = offsets.size() - 1;
    std::vector<float> fa(n, -1.0f), fb(n, -1.0f);
    nk::segment_softmax(segs, offsets.data(), scores.data(), fa.data());
    nk::segment_softmax_naive(segs, offsets.data(), scores.data(), fb.data());
    if (fa != fb) {
      std::fprintf(stderr, "round %d: segment_softmax != naive\n", round);
      return false;
    }

    // Segment-mean over a row matrix segmented the same way (offsets
    // must end at the row count, so rebuild for `rows`).
    std::vector<int> moff = {0};
    while (moff.back() < static_cast<int>(rows)) {
      moff.push_back(std::min<int>(static_cast<int>(rows),
                                   moff.back() + 1 + static_cast<int>(rng.uniform(5))));
    }
    const std::size_t msegs = moff.size() - 1;
    std::vector<float> ma(msegs * cols), mb(msegs * cols);
    nk::segment_mean(msegs, moff.data(), cols, src.data(), ma.data());
    nk::segment_mean_naive(msegs, moff.data(), cols, src.data(), mb.data());
    if (ma != mb) {
      std::fprintf(stderr, "round %d: segment_mean != naive\n", round);
      return false;
    }
  }
  return true;
}

template <typename Pass>
double measure_scans_per_s(Pass&& pass, int gadgets_per_pass, double secs) {
  pass();  // warmup
  const auto start = Clock::now();
  long long scored = 0;
  double elapsed = 0.0;
  do {
    pass();
    scored += gadgets_per_pass;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < secs);
  return static_cast<double>(scored) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_flags(argc, argv);
  int gadget_count = 96;
  double secs = 0.4;
  int reps = bench::env_int("SEVULDET_BENCH_REPS", 3);
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--gadgets") == 0) {
      gadget_count = std::atoi(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--secs") == 0) secs = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--reps") == 0) reps = std::atoi(argv[i + 1]);
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }
  gadget_count = std::max(1, gadget_count);
  reps = std::max(1, reps);
  if (!json_path.empty()) su::metrics::set_enabled(true);
  namespace metrics = su::metrics;

  // --- correctness 1: blocked kernels == naive oracles, bitwise -------
  const bool kernels_ok = kernels_match_oracles();
  metrics::label_set("bench.gat.kernels_identical",
                     kernels_ok ? "true" : "false");
  std::printf("blocked graph kernels bit-identical to naive oracles: %s\n",
              kernels_ok ? "yes" : "NO");
  if (!kernels_ok) return 4;

  sm::ModelConfig config;
  config.vocab_size = 500;
  sm::GatNet net(config);

  // Corpus-shaped graph sizes: mostly small gadgets (3-10 lines) with a
  // tail of larger slices, shuffled so bucketing has work to do.
  su::Rng rng(99);
  std::vector<Sample> samples;
  samples.reserve(static_cast<std::size_t>(gadget_count));
  for (int i = 0; i < gadget_count; ++i) {
    const int nodes = i % 5 == 4 ? 16 + static_cast<int>(rng.uniform(24))
                                 : 3 + static_cast<int>(rng.uniform(8));
    samples.push_back(make_sample(nodes, config.vocab_size, rng));
  }
  std::vector<sm::BatchItem> items;
  items.reserve(samples.size());
  for (const Sample& sample : samples) {
    items.push_back({&sample.tokens, false, &sample.graph});
  }
  std::vector<sm::Prediction> batched(items.size());
  std::vector<sm::Prediction> single(items.size());

  // --- correctness 2: bucketed batch == per-item loop, bitwise --------
  net.predict_batch(items.data(), items.size(), batched.data());
  net.Detector::predict_batch(items.data(), items.size(), single.data());
  bool identical = true;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!bits_equal(batched[i].probability, single[i].probability) ||
        !bits_equal(batched[i].token_weights, single[i].token_weights)) {
      identical = false;
      std::fprintf(stderr, "gadget %zu: batched %a != single %a\n", i,
                   static_cast<double>(batched[i].probability),
                   static_cast<double>(single[i].probability));
    }
  }
  metrics::label_set("bench.gat.batched_identical",
                     identical ? "true" : "false");
  std::printf("bucketed predict_batch bit-identical to per-item loop: %s\n",
              identical ? "yes" : "NO");
  if (!identical) return 5;

  auto best_of_reps = [&](auto&& pass) {
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      best = std::max(best, measure_scans_per_s(pass, gadget_count, secs));
    }
    return best;
  };

  su::Table table({"path", "scans/s"});
  auto record = [&](const std::string& name, double value) {
    table.add_row({name, su::fmt(value, 0)});
    metrics::gauge_set(name, value);
  };

  record("bench.gat.single_scans_per_s", best_of_reps([&] {
           net.Detector::predict_batch(items.data(), items.size(),
                                       single.data());
         }));
  auto batched_pass = [&] {
    net.predict_batch(items.data(), items.size(), batched.data());
  };
  record("bench.gat.batch_scans_per_s", best_of_reps(batched_pass));

  // Steady-state allocations of a warm bucketed pass. The GAT forward
  // builds an autograd graph per gadget, but the recycled arena
  // (GraphScope over batch_graph_) absorbs node shells and tensor
  // storage alike, so a warm pass is allocation-free — the committed
  // baseline pins 0 and check_bench.py fails if it ever rises.
  {
    batched_pass();  // warm
    const long long before = g_allocs.load(std::memory_order_relaxed);
    constexpr int kPasses = 5;
    for (int i = 0; i < kPasses; ++i) batched_pass();
    const long long after = g_allocs.load(std::memory_order_relaxed);
    const long long per_pass = (after - before) / kPasses;
    metrics::counter_add("bench.gat.allocs_per_pass", per_pass);
    table.add_row({"bench.gat.allocs_per_pass", std::to_string(per_pass)});
  }

  metrics::gauge_set("bench.gadgets", gadget_count);
  metrics::gauge_set("bench.secs_per_row", secs);
  std::printf("%s", table.to_string().c_str());
  if (!json_path.empty()) {
    metrics::write_json(json_path);
    std::printf("recorded %s\n", json_path.c_str());
  }
  return 0;
}
