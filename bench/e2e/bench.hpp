// sevuldet_bench: the seeded end-to-end benchmark (README.md). One
// process runs one workload (serve_open, serve_closed, scan_tree or
// train) and prints its metrics, then one JSON result line. This header
// holds what the workload files share: options, the result record,
// statistics, process probes, input fingerprints, the serving model, the
// daemon child process, and the layer accounting of the traced passes.
//
// Every layer is measured from outside: the traced passes wrap each call
// into a public library function in a bench.<layer> span, so the library
// itself carries no benchmark instrumentation.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sevuldet/core/pipeline.hpp"
#include "sevuldet/core/scan.hpp"
#include "sevuldet/serve/protocol.hpp"
#include "sevuldet/util/binary_io.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start);
double ms_between(Clock::time_point start, Clock::time_point end);

inline constexpr std::uint64_t kDefaultSeed = 11;

/// Command-line options of one workload run.
struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;    // measured time of the run
  bool trace = false;       // per-layer pass instead of end-to-end metrics
  bool smoke = false;       // tiny set-up and inputs (the CTest smoke test)
  std::string trace_out;    // Chrome trace of the traced pass ("" = none)
  Clock::time_point start;  // process start: origin of the first set-up
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: correctness, operation counts and metrics.
struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;

  /// Marks the run incorrect and says why on stderr.
  void mismatch(const std::string& what);
};

/// Linear-interpolated percentile of `values`, p in [0, 100]; 0 if empty.
double percentile(std::vector<double> values, double p);
double mean(const std::vector<double>& values);
/// part / whole, or 0 when whole is 0.
double ratio(double part, double whole);

/// Peak resident set (VmHWM, MB) and CPU time (s) of a process; pid 0
/// is this process.
double peak_rss_mb(pid_t pid = 0);
double cpu_seconds(pid_t pid = 0);

/// FNV-1a fingerprint of a workload's generated inputs.
class Fingerprint {
 public:
  void add(std::string_view bytes);
  void add(double value);
  std::string hex() const;

 private:
  sevuldet::util::Fnv1a hash_;
};

/// Prints the fingerprint of a workload's inputs and, for the default
/// seed at full size, checks it against `pinned`: a change to a
/// generator then fails the run as a workload change instead of reading
/// as a speed-up.
void check_inputs(RunResult& result, const Options& options,
                  std::string_view pinned, const Fingerprint& fingerprint);

/// Set-up is repeated this many times per run and setup_s is the median.
int setup_reps(const Options& options);

/// SARD-like good/bad program pairs with the generator's default mix
/// drawn exactly rather than by chance: per category, 30% ambiguous
/// pairs, 30% of the rest interprocedural and 25% long variants. The
/// seed picks which pairs get which traits, their templates and their
/// contents, so a workload's cost profile holds across seeds.
std::vector<sevuldet::dataset::TestCase> sard_programs(int pairs_per_category,
                                                       std::uint64_t seed);

/// The model config `sevuldet serve` and `sevuldet scan` load with.
sevuldet::core::PipelineConfig serving_config();
/// Trains the serving model on a fixed generated corpus and saves it.
/// The corpus seed is fixed, not --seed: the model is part of the
/// system under test, the requests and trees are the inputs.
void train_serving_model(const Options& options, const std::string& path);

/// Sets the end-to-end metrics every workload reports (README.md).
struct EndToEnd {
  std::vector<double> setup_s;     // one per set-up repetition
  double peak_rss_mb = 0.0;        // of the process doing the work
  std::vector<double> latency_ms;  // one per measured operation
  /// Percentile latency_tail_ms reports: the highest one a run's
  /// operation count leaves at least 10 samples beyond, fixed per
  /// workload so it does not shift with speed. 99 for the serve loads
  /// (3000+ requests); 50 for scan_tree passes and train jobs, too few
  /// for any tail.
  double tail_percentile = 50.0;
  double gadgets = 0.0;            // gadgets completed while measuring
  double busy_s = 0.0;             // wall time those gadgets took
};
void report_end_to_end(RunResult& result, const EndToEnd& e2e);

/// Per-layer metric values by name; names not set report 0, which means
/// the layer is not on this workload's path. report_layers emits every
/// per-layer metric, in BENCHMARK.json order.
using LayerValues = std::map<std::string, double>;
void report_layers(RunResult& result, const LayerValues& values);

/// A `sevuldet serve` child process on a socket path relative to the
/// working directory. The destructor kills and reaps a daemon that was
/// not shut down, so no error path leaves it running.
class Daemon {
 public:
  Daemon(const std::string& model, const std::string& socket,
         const std::vector<std::string>& extra_args);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }
  /// Sends the shutdown op and waits for a clean exit; false otherwise.
  bool shutdown();

 private:
  void kill_and_reap();
  pid_t pid_ = -1;
  std::string socket_;
};

/// Counts filled by the composed passes, per layer.
struct LayerCounts {
  long long files = 0;
  long long preprocessed = 0;  // preprocessor changed the bytes
  long long recovered = 0;     // parse needed chunk recovery
  long long chunks = 0;
  long long chunks_recovered = 0;
  long long lines = 0;
  long long lines_lost = 0;
  long long gadgets_sliced = 0;  // generate_gadget calls
  long long gadgets_empty = 0;   // ... that produced no lines
  long long gadgets = 0;         // normalized, encoded gadgets
  long long tokens = 0;
  long long oov_tokens = 0;
  long long forward_calls = 0;
  long long forward_gadgets = 0;
  long long findings = 0;
};

/// Self time per bench.<layer> span of the traced pass, merged over
/// threads. bench.op spans mark one operation each; their self time is
/// the part no layer span covers.
struct LayerTimes {
  std::map<std::string, double> self_ms;
  double op_ms = 0.0;
  long long ops = 0;
  double self(const std::string& layer) const;
  /// Share of operation time the layer spans cover.
  double coverage() const;
};

/// Turns tracing on for a traced pass with room for `events` spans.
void begin_trace(std::size_t events);

/// Times each composed operation twice, untraced and traced, the order
/// alternating from one operation to the next: interleaving keeps the
/// machine's slow phases out of the tracing-overhead estimate. Leaves
/// tracing off between operations.
class OverheadTimer {
 public:
  void run(const std::function<void(bool traced)>& op);
  /// Traced over untraced time, minus 1.
  double share() const;

 private:
  double untraced_ms_ = 0.0;
  double traced_ms_ = 0.0;
  long long runs_ = 0;
};

/// Writes the trace (when asked), checks nothing was dropped, turns
/// tracing off and returns the attribution.
LayerTimes end_trace(RunResult& result, const Options& options,
                     LayerValues& values);

/// Layer metrics common to the composed passes, from self times and
/// counts (files and gadgets normalize the per-unit values).
void compose_layer_values(const LayerTimes& times, const LayerCounts& counts,
                          LayerValues& values);

// --- composed passes (compose.cpp) ------------------------------------

/// A scan/explain request's round trip composed from public calls, each
/// in a bench.<layer> span: encode and decode the request, parse, build
/// the PDG, find special tokens, slice, normalize, encode, project the
/// gadget graph, forward, assemble findings, encode and decode the
/// response. Returns the response bytes, which must equal the daemon's
/// reply to the same request (the daemon echoes the request's trace_id).
std::string compose_serve(sevuldet::core::SeVulDet& detector,
                          const sevuldet::serve::Request& request,
                          LayerCounts& counts);

/// scan_file() of `root`/`relative` composed the same way: preprocess,
/// parse with recovery, then the serve layers plus the lex-fallback
/// gadgets of lost regions. Must equal the library's result.
sevuldet::core::FileScanResult compose_scan_file(
    sevuldet::core::SeVulDet& detector, const std::string& root,
    const std::string& relative, LayerCounts& counts);

/// Steps I-III of corpus building for one program, composed (parse
/// through gadget graph, no forward): the slicer and normalize layers as
/// build_corpus runs them, encoded with `detector`'s vocabulary.
void compose_extract(const sevuldet::core::SeVulDet& detector, const std::string& source,
                     LayerCounts& counts);

/// tree_scan_to_json of a single file, the unit the scan oracles compare.
std::string file_scan_json(const sevuldet::core::FileScanResult& file);

// --- workloads --------------------------------------------------------

RunResult run_serve_open(const Options& options);
RunResult run_serve_closed(const Options& options);
RunResult run_scan_tree(const Options& options);
RunResult run_train(const Options& options);

}  // namespace e2e
