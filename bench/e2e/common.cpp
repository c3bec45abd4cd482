// Shared plumbing of sevuldet_bench: statistics, process probes, input
// fingerprints, the serving model, the daemon child process, metric
// reporting and the attribution of traced passes.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "sevuldet/dataset/sard_generator.hpp"
#include "sevuldet/serve/client.hpp"
#include "sevuldet/util/rng.hpp"
#include "sevuldet/util/socket.hpp"
#include "sevuldet/util/trace.hpp"

namespace e2e {

namespace sc = sevuldet::core;
namespace sd = sevuldet::dataset;
namespace su = sevuldet::util;

double ms_since(Clock::time_point start) { return ms_between(start, Clock::now()); }

double ms_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

void RunResult::mismatch(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return ratio(sum, static_cast<double>(values.size()));
}

double ratio(double part, double whole) { return whole != 0.0 ? part / whole : 0.0; }

namespace {

std::string proc_file(pid_t pid, const char* name) {
  const std::string path = pid == 0 ? std::string("/proc/self/") + name
                                    : "/proc/" + std::to_string(pid) + "/" + name;
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

double peak_rss_mb(pid_t pid) {
  std::istringstream status(proc_file(pid, "status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc status");
}

double cpu_seconds(pid_t pid) {
  if (pid == 0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
  }
  // Fields 14 and 15 of /proc/<pid>/stat (utime, stime), counted after
  // the parenthesized command name, which may itself hold spaces.
  const std::string stat = proc_file(pid, "stat");
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void Fingerprint::add(std::string_view bytes) {
  hash_.update_value(static_cast<std::uint64_t>(bytes.size()));
  hash_.update(bytes);
}

void Fingerprint::add(double value) { hash_.update_value(value); }

std::string Fingerprint::hex() const { return su::hex64(hash_.digest()); }

void check_inputs(RunResult& result, const Options& options,
                  std::string_view pinned, const Fingerprint& fingerprint) {
  const std::string hex = fingerprint.hex();
  std::printf("# %s inputs: seed %llu fingerprint %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), hex.c_str());
  if (!options.smoke && options.seed == kDefaultSeed && hex != pinned) {
    result.mismatch(options.workload + " inputs changed at the default seed: " +
                    hex + ", pinned " + std::string(pinned));
  }
}

int setup_reps(const Options& options) {
  return options.smoke || options.trace ? 1 : 3;
}

std::vector<sd::TestCase> sard_programs(int pairs_per_category, std::uint64_t seed) {
  const sd::SardConfig mix;
  const int pairs = pairs_per_category;
  const int ambiguous = static_cast<int>(std::lround(pairs * mix.ambiguous_fraction));
  const int interproc =
      static_cast<int>(std::lround((pairs - ambiguous) * mix.interproc_fraction));
  const int longs = static_cast<int>(std::lround(pairs * mix.long_fraction));
  su::Rng rng(seed);
  std::vector<sd::TestCase> cases;
  for (auto category : {sevuldet::slicer::TokenCategory::FunctionCall,
                        sevuldet::slicer::TokenCategory::ArrayUsage,
                        sevuldet::slicer::TokenCategory::PointerUsage,
                        sevuldet::slicer::TokenCategory::ArithExpr}) {
    std::vector<int> kind(static_cast<std::size_t>(pairs), 0);  // 1 ambiguous, 2 interproc
    std::fill_n(kind.begin(), ambiguous, 1);
    std::fill_n(kind.begin() + ambiguous, interproc, 2);
    std::vector<int> is_long(static_cast<std::size_t>(pairs), 0);
    std::fill_n(is_long.begin(), longs, 1);
    rng.shuffle(kind);
    rng.shuffle(is_long);
    for (int i = 0; i < pairs; ++i) {
      sd::TemplateSpec spec;
      spec.category = category;
      spec.ambiguous = kind[static_cast<std::size_t>(i)] == 1;
      spec.interprocedural = kind[static_cast<std::size_t>(i)] == 2;
      spec.long_variant = is_long[static_cast<std::size_t>(i)] == 1;
      spec.filler = spec.long_variant
                        ? mix.long_filler_statements + static_cast<int>(rng.uniform(10))
                        : 0;
      spec.seed = rng.next_u64();
      for (bool vulnerable : {false, true}) {
        spec.vulnerable = vulnerable;
        cases.push_back(sd::generate_case(spec));
      }
    }
  }
  return cases;
}

sc::PipelineConfig serving_config() {
  sc::PipelineConfig config;
  config.model.embed_dim = 24;
  config.model.conv_channels = 16;
  return config;
}

void train_serving_model(const Options& options, const std::string& path) {
  sevuldet::dataset::SardConfig corpus;
  corpus.pairs_per_category = options.smoke ? 2 : 6;
  sc::PipelineConfig config = serving_config();
  config.train.epochs = options.smoke ? 1 : 2;
  config.train.lr = 0.002f;
  config.corpus.threads = 4;
  sc::SeVulDet detector(config);
  detector.train(sevuldet::dataset::generate_sard_like(corpus));
  detector.save(path);
}

namespace {

/// The per-layer metrics of BENCHMARK.json, in its order.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"frontend.preprocess.ms_per_file", "ms"},
    {"frontend.preprocess.changed_share", "share"},
    {"frontend.parse.ms_per_file", "ms"},
    {"frontend.recover.chunk_success_share", "share"},
    {"frontend.lost_line_share", "share"},
    {"graph.build.ms_per_file", "ms"},
    {"slicer.special_tokens.ms_per_file", "ms"},
    {"slicer.gadget.us_per_gadget", "us"},
    {"slicer.gadget.empty_share", "share"},
    {"normalize.us_per_gadget", "us"},
    {"normalize.encode.us_per_gadget", "us"},
    {"normalize.tokens_per_gadget", "count"},
    {"normalize.oov_share", "share"},
    {"dataset.gadget_graph.us_per_gadget", "us"},
    {"dataset.build_corpus.ms", "ms"},
    {"dataset.encode_corpus.ms", "ms"},
    {"models.forward.us_per_gadget", "us"},
    {"models.forward.gadgets_per_call", "count"},
    {"models.forward.share", "share"},
    {"nn.word2vec.ms", "ms"},
    {"nn.train.ms_per_epoch", "ms"},
    {"core.findings.us_per_gadget", "us"},
    {"core.findings.per_gadget", "share"},
    {"core.evaluate.ms", "ms"},
    {"core.evaluate.heldout_f1", "share"},
    {"serve.protocol.encode_us", "us"},
    {"serve.protocol.decode_us", "us"},
    {"serve.response_bytes.mean", "bytes"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p99", "ms"},
    {"serve.prepare_ms.mean", "ms"},
    {"serve.batch.forward_ms.mean", "ms"},
    {"serve.batch.gadgets_per_flush", "count"},
    {"serve.batch.full_share", "share"},
    {"serve.window_wait_ms.mean", "ms"},
    {"serve.client_overhead_ms.mean", "ms"},
    {"serve.slo_share", "share"},
    {"proc.cpu_ms_per_op", "ms"},
    {"proc.cpu_util", "cores"},
    {"loadgen.lag_ms.p99", "ms"},
    {"loadgen.late_share", "share"},
    {"trace.attribution_coverage", "share"},
    {"trace.overhead_share", "share"},
    {"trace.dropped", "count"},
    {"input.gadgets_per_op", "count"},
    {"input.explain_share", "share"},
    {"input.files_preprocessed_share", "share"},
    {"input.files_recovered_share", "share"},
};

}  // namespace

void report_end_to_end(RunResult& result, const EndToEnd& e2e) {
  const double tail = e2e.tail_percentile;
  result.metrics.push_back({"setup_s", percentile(e2e.setup_s, 50), "s"});
  result.metrics.push_back({"peak_rss_mb", e2e.peak_rss_mb, "MB"});
  result.metrics.push_back({"latency_p50_ms", percentile(e2e.latency_ms, 50), "ms"});
  result.metrics.push_back({"latency_tail_ms", percentile(e2e.latency_ms, tail), "ms"});
  result.metrics.push_back({"gadgets_per_s", ratio(e2e.gadgets, e2e.busy_s), "1/s"});
  std::printf("# %zu operations measured (tail: p%g), %.0f gadgets in %.3f s busy\n",
              e2e.latency_ms.size(), tail, e2e.gadgets, e2e.busy_s);
}

void report_layers(RunResult& result, const LayerValues& values) {
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    result.metrics.push_back({name, it != values.end() ? it->second : 0.0, unit});
  }
}

// --- the daemon child --------------------------------------------------

Daemon::Daemon(const std::string& model, const std::string& socket,
               const std::vector<std::string>& extra_args)
    : socket_(socket) {
  std::vector<std::string> args = {SEVULDET_CLI, "serve",  "--model",
                                   model,        "--socket", socket};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int log = ::open("daemon.log", O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log < 0) throw std::runtime_error("cannot open daemon.log");
  std::fflush(nullptr);
  pid_ = ::fork();
  if (pid_ == 0) {
    ::dup2(log, STDOUT_FILENO);
    ::dup2(log, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log);
  if (pid_ < 0) throw std::runtime_error("fork failed");
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("sevuldet serve exited during start-up (see daemon.log)");
    }
    try {
      if (su::UnixStream::connect(socket_).has_value()) return;
    } catch (const su::SocketError&) {
      // Not listening yet.
    }
    if (Clock::now() > deadline) {
      kill_and_reap();
      throw std::runtime_error("sevuldet serve did not start");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Daemon::~Daemon() { kill_and_reap(); }

bool Daemon::shutdown() {
  bool acked = false;
  try {
    if (auto client = sevuldet::serve::Client::connect(socket_)) {
      client->shutdown(30000);
      acked = true;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "daemon shutdown: %s\n", e.what());
  }
  if (pid_ <= 0) return false;
  const pid_t pid = pid_;
  int status = -1;
  const auto deadline = Clock::now() + std::chrono::seconds(acked ? 30 : 0);
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      kill_and_reap();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return acked && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void Daemon::kill_and_reap() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
}

// --- traced passes -----------------------------------------------------

double LayerTimes::self(const std::string& layer) const {
  const auto it = self_ms.find(layer);
  return it != self_ms.end() ? it->second : 0.0;
}

double LayerTimes::coverage() const {
  return op_ms > 0.0 ? 1.0 - self("bench.op") / op_ms : 0.0;
}

namespace {

/// Self time of every bench.* span recorded since begin_trace().
LayerTimes attribute_trace() {
  struct Open {
    std::size_t index;
    double end_us;
  };
  std::vector<su::trace::Event> events;
  for (const su::trace::Event& event : su::trace::events()) {
    if (std::string_view(event.name).rfind("bench.", 0) == 0) events.push_back(event);
  }
  // Per thread, a parent starts no later and ends no earlier than its
  // children; sort parents first and sweep with a stack of open spans.
  std::stable_sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });
  std::vector<double> child_us(events.size(), 0.0);
  std::vector<Open> stack;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0 && events[i].tid != events[i - 1].tid) stack.clear();
    while (!stack.empty() && stack.back().end_us <= events[i].ts_us) stack.pop_back();
    if (!stack.empty()) child_us[stack.back().index] += events[i].dur_us;
    stack.push_back({i, events[i].ts_us + events[i].dur_us});
  }
  LayerTimes times;
  for (std::size_t i = 0; i < events.size(); ++i) {
    times.self_ms[events[i].name] += (events[i].dur_us - child_us[i]) / 1000.0;
    if (std::string_view(events[i].name) == "bench.op") {
      times.op_ms += events[i].dur_us / 1000.0;
      ++times.ops;
    }
  }
  return times;
}

}  // namespace

void begin_trace(std::size_t events) {
  su::trace::reset();
  su::trace::set_capacity(events);
  su::trace::set_enabled(true);
}

void OverheadTimer::run(const std::function<void(bool traced)>& op) {
  const bool traced_first = runs_++ % 2 == 1;
  for (bool traced : {traced_first, !traced_first}) {
    su::trace::set_enabled(traced);
    const auto start = Clock::now();
    op(traced);
    (traced ? traced_ms_ : untraced_ms_) += ms_since(start);
  }
  su::trace::set_enabled(false);
}

double OverheadTimer::share() const { return ratio(traced_ms_, untraced_ms_) - 1.0; }

LayerTimes end_trace(RunResult& result, const Options& options, LayerValues& values) {
  su::trace::set_enabled(false);
  if (!options.trace_out.empty()) su::trace::write_json(options.trace_out);
  const double dropped = static_cast<double>(su::trace::dropped());
  values["trace.dropped"] += dropped;
  if (dropped > 0) result.mismatch("the traced pass dropped trace events");
  LayerTimes times = attribute_trace();
  su::trace::reset();
  std::printf("# layer self times over %lld traced operations (%.1f ms):\n",
              times.ops, times.op_ms);
  for (const auto& [name, ms] : times.self_ms) {
    std::printf("#   %-34s %10.2f ms  %6.2f%%\n", name.c_str(), ms,
                100.0 * ratio(ms, times.op_ms));
  }
  return times;
}

void compose_layer_values(const LayerTimes& t, const LayerCounts& c, LayerValues& v) {
  const double files = static_cast<double>(c.files);
  const double gadgets = static_cast<double>(c.gadgets);
  const double forwarded = static_cast<double>(c.forward_gadgets);
  v["frontend.preprocess.ms_per_file"] = ratio(t.self("bench.frontend.preprocess"), files);
  v["frontend.preprocess.changed_share"] = ratio(static_cast<double>(c.preprocessed), files);
  v["frontend.parse.ms_per_file"] =
      ratio(t.self("bench.frontend.parse") + t.self("bench.frontend.recover"), files);
  v["frontend.recover.chunk_success_share"] =
      ratio(static_cast<double>(c.chunks_recovered), static_cast<double>(c.chunks));
  v["frontend.lost_line_share"] =
      ratio(static_cast<double>(c.lines_lost), static_cast<double>(c.lines));
  v["graph.build.ms_per_file"] = ratio(t.self("bench.graph.build"), files);
  v["slicer.special_tokens.ms_per_file"] = ratio(t.self("bench.slicer.special_tokens"), files);
  v["slicer.gadget.us_per_gadget"] = ratio(1000.0 * t.self("bench.slicer.gadget"),
                                           static_cast<double>(c.gadgets_sliced));
  v["slicer.gadget.empty_share"] = ratio(static_cast<double>(c.gadgets_empty),
                                         static_cast<double>(c.gadgets_sliced));
  v["normalize.us_per_gadget"] = ratio(1000.0 * t.self("bench.normalize"), gadgets);
  v["normalize.encode.us_per_gadget"] = ratio(1000.0 * t.self("bench.normalize.encode"), gadgets);
  v["normalize.tokens_per_gadget"] = ratio(static_cast<double>(c.tokens), gadgets);
  v["normalize.oov_share"] =
      ratio(static_cast<double>(c.oov_tokens), static_cast<double>(c.tokens));
  v["dataset.gadget_graph.us_per_gadget"] =
      ratio(1000.0 * t.self("bench.dataset.gadget_graph"), gadgets);
  v["models.forward.us_per_gadget"] = ratio(1000.0 * t.self("bench.models.forward"), forwarded);
  v["models.forward.gadgets_per_call"] = ratio(forwarded, static_cast<double>(c.forward_calls));
  v["models.forward.share"] = ratio(t.self("bench.models.forward"), t.op_ms);
  v["core.findings.us_per_gadget"] = ratio(1000.0 * t.self("bench.core.findings"), forwarded);
  v["core.findings.per_gadget"] = ratio(static_cast<double>(c.findings), forwarded);
  v["trace.attribution_coverage"] = t.coverage();
}

}  // namespace e2e
