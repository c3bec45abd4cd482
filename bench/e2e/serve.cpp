// serve_open and serve_closed: a child `sevuldet serve --threads 2
// --access-log FILE` (the CLI defaults otherwise: telemetry on, batch
// 32 / 2 ms) under load from this process over 4 connections.
//
// serve_open is interactive use: a fixed 200 requests/s schedule, 90%
// scan and 10% explain, over a pool of SARD-like programs (~19 gadgets
// of ~53 tokens). Latency runs from each request's scheduled send time,
// so a stall also delays the requests queued behind it. serve_closed is
// the daemon's capacity: back-to-back scans of device-style programs
// (~6 gadgets of ~190 tokens), so cross-request batch filling and the
// forward pass dominate.
//
// Every reply is checked byte for byte against an in-process detect()
// on the same model file.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "sevuldet/dataset/realworld.hpp"
#include "sevuldet/serve/client.hpp"
#include "sevuldet/util/mini_json.hpp"
#include "sevuldet/util/rng.hpp"
#include "sevuldet/util/socket.hpp"

namespace e2e {

namespace sc = sevuldet::core;
namespace sd = sevuldet::dataset;
namespace serve = sevuldet::serve;
namespace su = sevuldet::util;
namespace json = sevuldet::util::mini_json;

namespace {

constexpr int kConnections = 4;
constexpr double kOpenRate = 200.0;  // requests per second
constexpr double kLateMs = 5.0;      // a send this late counts as late
constexpr double kMaxLateShare = 0.01;
constexpr double kSloMs = 25.0;
constexpr double kWarmupS = 0.5;
constexpr std::size_t kPlanLength = 1 << 16;
constexpr const char* kSocket = "serve.sock";
constexpr const char* kModel = "model.bin";
constexpr const char* kAccessLog = "access.log";
constexpr const char* kDaemonTrace = "daemon_trace.json";
const std::string kMeasured = "r";  // trace-ID tag of measured requests
const std::string kWarmup = "w";
// Fingerprints of the default seed's full-size inputs (see check_inputs).
constexpr std::string_view kOpenPin = "f28400f1f9dc4d99";
constexpr std::string_view kClosedPin = "06556459ae8c67d9";

struct Planned {
  std::uint32_t program = 0;
  bool explain = false;
};

/// The seeded inputs: a program pool and the request sequence over it.
struct Load {
  bool open = false;
  std::vector<std::string> sources;
  std::vector<Planned> plan;  // request i uses plan[i % size]
};

Load make_load(const Options& options, bool open, Fingerprint& fingerprint) {
  Load load;
  load.open = open;
  if (open) {
    for (sd::TestCase& tc : sard_programs(options.smoke ? 2 : 32, options.seed)) {
      load.sources.push_back(std::move(tc.source));
    }
  } else {
    sd::RealWorldConfig config;
    config.variant_pairs = options.smoke ? 1 : 8;
    config.clean_functions = options.smoke ? 4 : 60;
    config.seed = options.seed;
    for (sd::TestCase& tc : sd::generate_realworld(config).cases) {
      load.sources.push_back(std::move(tc.source));
    }
  }
  // The plan walks seeded permutations of the pool, so every program is
  // sent equally often, and makes exactly one request in each ten an
  // explain (open loop): the mix holds across seeds and run lengths.
  su::Rng rng(options.seed ^ 0x5e7e10adull);
  while (load.plan.size() < kPlanLength) {
    for (std::size_t program : rng.permutation(load.sources.size())) {
      load.plan.push_back({static_cast<std::uint32_t>(program), false});
    }
  }
  load.plan.resize(kPlanLength);
  for (std::size_t block = 0; open && block + 10 <= kPlanLength; block += 10) {
    load.plan[block + rng.uniform(10)].explain = true;
  }
  for (const std::string& source : load.sources) fingerprint.add(source);
  for (const Planned& planned : load.plan) {
    fingerprint.add(static_cast<double>(planned.program * 2 + planned.explain));
  }
  return load;
}

/// Trace ID of request `index` of a drive; `tag` keeps warm-up and
/// measured requests apart in the access log.
std::string trace_id(const std::string& tag, std::int64_t index) {
  return tag + std::to_string(index);
}

serve::Request make_request(const Load& load, std::int64_t index, const std::string& tag) {
  const Planned& planned = load.plan[static_cast<std::size_t>(index) % load.plan.size()];
  serve::Request request;
  request.op = planned.explain ? serve::Op::Explain : serve::Op::Scan;
  request.id = index + 1;
  request.source = load.sources[planned.program];
  request.trace_id = trace_id(tag, index);
  return request;
}

/// One sent request as the client saw it.
struct Outcome {
  std::int64_t index = 0;
  bool ok = false;          // a reply frame arrived and says ok
  double latency_ms = 0.0;  // due time -> decoded reply
  double send_ms = 0.0;     // actual send -> decoded reply
  double lag_ms = 0.0;      // actual send - due time
  double encode_us = 0.0;   // request_to_json
  double decode_us = 0.0;   // parse_response
  std::size_t bytes = 0;
  std::uint64_t digest = 0;  // FNV-1a of the reply bytes
};

struct Drive {
  std::vector<Outcome> outcomes;  // by request index
  double window_s = 0.0;          // first due time -> last reply
};

/// Drives the daemon for `seconds`: open loop on the fixed schedule
/// (request i is due at start + i / rate, on connection i % 4) or closed
/// loop (each connection sends its next request when the last returns).
Drive drive(const Load& load, double seconds, const std::string& tag) {
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto stop_at = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
  const std::int64_t total = load.open ? static_cast<std::int64_t>(kOpenRate * seconds) : 0;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kOpenRate));
  std::atomic<std::int64_t> next{0};
  std::vector<std::vector<Outcome>> lanes(kConnections);
  std::vector<Clock::time_point> last_reply(kConnections, start);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      std::optional<su::UnixStream> stream;
      std::this_thread::sleep_until(start);
      for (std::int64_t k = 0;; ++k) {
        std::int64_t i = 0;
        Clock::time_point due;
        if (load.open) {
          i = c + k * kConnections;
          if (i >= total) break;
          due = start + interval * i;
          std::this_thread::sleep_until(due);
        } else {
          due = Clock::now();
          if (due >= stop_at) break;
          i = next++;
        }
        Outcome outcome;
        outcome.index = i;
        const serve::Request request = make_request(load, i, tag);
        const auto sent = Clock::now();
        try {
          if (!stream.has_value()) stream = su::UnixStream::connect(kSocket);
          if (!stream.has_value()) throw std::runtime_error("daemon not listening");
          const std::string payload = serve::request_to_json(request);
          const auto encoded = Clock::now();
          stream->send_frame(payload);
          const std::optional<std::string> reply = stream->recv_frame(su::kDefaultMaxFrameBytes, 60000);
          if (!reply.has_value()) throw std::runtime_error("daemon closed the connection");
          const auto received = Clock::now();
          const serve::Response response = serve::parse_response(*reply);
          const auto decoded = Clock::now();
          outcome.ok = response.ok && !response.error.has_value();
          outcome.encode_us = 1000.0 * ms_between(sent, encoded);
          outcome.decode_us = 1000.0 * ms_between(received, decoded);
          outcome.bytes = reply->size();
          outcome.digest = su::fnv1a(*reply);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "request %lld failed: %s\n", static_cast<long long>(i), e.what());
          stream.reset();
        }
        const auto done = Clock::now();
        outcome.latency_ms = ms_between(due, done);
        outcome.send_ms = ms_between(sent, done);
        outcome.lag_ms = ms_between(due, sent);
        lanes[c].push_back(outcome);
        last_reply[c] = done;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Drive result;
  for (const auto& lane : lanes) {
    result.outcomes.insert(result.outcomes.end(), lane.begin(), lane.end());
  }
  std::sort(result.outcomes.begin(), result.outcomes.end(),
            [](const Outcome& a, const Outcome& b) { return a.index < b.index; });
  result.window_s = ms_between(start, *std::max_element(last_reply.begin(), last_reply.end())) / 1000.0;
  return result;
}

/// Daemon-side totals read over the protocol (status and metrics ops);
/// the difference of two reads covers exactly the requests in between.
struct DaemonTotals {
  double gadgets = 0.0;
  double flushes = 0.0;
  double full_flushes = 0.0;
  double batch_ms = 0.0;  // span.serve.batch: one forward per flush
  double infer_ms = 0.0;  // span.serve.infer: prepare + batched scoring
  double infers = 0.0;
  double prepare_ms = 0.0;  // parse + pdg + slice + normalize spans
  double cpu_s = 0.0;

  DaemonTotals operator-(const DaemonTotals& o) const {
    return {gadgets - o.gadgets,   flushes - o.flushes, full_flushes - o.full_flushes,
            batch_ms - o.batch_ms, infer_ms - o.infer_ms, infers - o.infers,
            prepare_ms - o.prepare_ms, cpu_s - o.cpu_s};
  }
};

DaemonTotals read_totals(const Daemon& daemon) {
  auto client = serve::Client::connect(kSocket);
  if (!client.has_value()) throw std::runtime_error("daemon not listening");
  const json::Value status = json::Parser(client->report_status()).parse();
  const json::Value& batcher = status.at("batcher");
  const json::Value doc = json::Parser(client->metrics("json")).parse();
  const json::Value& histograms = doc.at("metrics").at("histograms");
  auto hist = [&](const char* name, const char* field) {
    return histograms.has(name) ? histograms.at(name).at(field).number : 0.0;
  };
  DaemonTotals totals;
  totals.gadgets = batcher.at("gadgets").number;
  totals.flushes = batcher.at("batches").number;
  totals.full_flushes = batcher.at("full_flushes").number;
  totals.batch_ms = hist("span.serve.batch", "sum");
  totals.infer_ms = hist("span.serve.infer", "sum");
  totals.infers = hist("span.serve.infer", "count");
  totals.prepare_ms = hist("span.parse", "sum") + hist("span.pdg", "sum") +
                      hist("span.slice", "sum") + hist("span.normalize", "sum");
  totals.cpu_s = cpu_seconds(daemon.pid());
  return totals;
}

/// Compares every measured reply with the in-process detect() of the
/// same request on the same model file; counts attempts and failures.
void check_replies(RunResult& result, const Load& load, const Drive& drive) {
  sc::SeVulDet reference(serving_config());
  reference.load(kModel);
  std::map<std::pair<std::uint32_t, bool>, std::vector<sc::Finding>> expected;
  long long mismatched = 0;
  for (const Outcome& outcome : drive.outcomes) {
    ++result.attempted;
    if (!outcome.ok) {
      ++result.failed;
      continue;
    }
    const serve::Request request = make_request(load, outcome.index, kMeasured);
    const Planned& planned = load.plan[static_cast<std::size_t>(outcome.index) % load.plan.size()];
    auto it = expected.find({planned.program, planned.explain});
    if (it == expected.end()) {
      sc::DetectOptions detect;
      detect.top_k = request.top_k;
      detect.explain = planned.explain;
      it = expected.emplace(std::make_pair(planned.program, planned.explain),
                            reference.detect(request.source, detect)).first;
    }
    serve::Response response = serve::findings_response(request.id, it->second);
    response.trace_id = request.trace_id;
    if (su::fnv1a(serve::response_to_json(response)) != outcome.digest) ++mismatched;
  }
  if (mismatched > 0) {
    result.mismatch(std::to_string(mismatched) + " daemon replies differ from in-process detect()");
  }
}

std::vector<std::string> daemon_args(const Options& options) {
  std::vector<std::string> args = {"--threads", "2", "--access-log", kAccessLog};
  if (options.trace) {
    args.push_back("--trace-out");
    args.push_back(kDaemonTrace);
  }
  return args;
}

/// The access log and its rotations (the daemon keeps 4 files).
std::string access_log_file(int rotation) {
  return rotation == 0 ? kAccessLog : std::string(kAccessLog) + "." + std::to_string(rotation);
}

/// Reads the access log after the daemon exited: the per-request daemon
/// timings of the measured requests, by trace ID.
std::map<std::string, json::Value> read_access_log() {
  std::map<std::string, json::Value> records;
  for (int i = 0; i < 4; ++i) {
    std::ifstream in(access_log_file(i));
    std::string line;
    while (std::getline(in, line)) {
      json::Value record = json::Parser(line).parse();
      const std::string& id = record.at("trace_id").str;
      if (id.rfind(kMeasured, 0) == 0) records[id] = std::move(record);
    }
  }
  return records;
}

/// dropped_events of the daemon's Chrome trace, written at its exit.
double daemon_trace_dropped() {
  std::ifstream in(kDaemonTrace);
  std::string head(256, '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  const std::size_t at = head.find("\"dropped_events\":");
  if (at == std::string::npos) throw std::runtime_error("daemon trace has no dropped_events");
  return std::stod(head.substr(at + 17));
}

/// The per-layer values of a traced run: daemon-side timings from the
/// access log and the status/metrics ops, client-side timers, and the
/// composed in-process pass over the same requests.
void report_serve_layers(RunResult& result, const Options& options, const Load& load,
                         const Drive& drive, const DaemonTotals& d) {
  LayerValues values;
  const double requests = static_cast<double>(drive.outcomes.size());
  std::vector<double> encode_us, decode_us, bytes, lag, queue_ms, overhead_ms;
  long long late = 0, explains = 0, within_slo = 0;
  const auto records = read_access_log();
  for (const Outcome& outcome : drive.outcomes) {
    encode_us.push_back(outcome.encode_us);
    decode_us.push_back(outcome.decode_us);
    bytes.push_back(static_cast<double>(outcome.bytes));
    lag.push_back(outcome.lag_ms);
    late += outcome.lag_ms > kLateMs ? 1 : 0;
    explains += load.plan[static_cast<std::size_t>(outcome.index) % load.plan.size()].explain;
    within_slo += outcome.ok && outcome.latency_ms <= kSloMs ? 1 : 0;
    const auto it = records.find(trace_id(kMeasured, outcome.index));
    if (it == records.end()) continue;
    queue_ms.push_back(it->second.at("queue_ms").number);
    overhead_ms.push_back(outcome.send_ms - it->second.at("total_ms").number);
  }
  if (records.size() != drive.outcomes.size()) {
    result.mismatch("access log holds " + std::to_string(records.size()) + " of " +
                    std::to_string(drive.outcomes.size()) + " measured requests");
  }
  const double infer_mean = ratio(d.infer_ms, d.infers);
  const double prepare_mean = ratio(d.prepare_ms, d.infers);
  const double forward_share = ratio(d.batch_ms, d.infers);
  values["serve.protocol.encode_us"] = mean(encode_us);
  values["serve.protocol.decode_us"] = mean(decode_us);
  values["serve.response_bytes.mean"] = mean(bytes);
  values["serve.queue_ms.p50"] = percentile(queue_ms, 50);
  values["serve.queue_ms.p99"] = percentile(queue_ms, 99);
  values["serve.prepare_ms.mean"] = prepare_mean;
  values["serve.batch.forward_ms.mean"] = ratio(d.batch_ms, d.flushes);
  values["serve.batch.gadgets_per_flush"] = ratio(d.gadgets, d.flushes);
  values["serve.batch.full_share"] = ratio(d.full_flushes, d.flushes);
  values["serve.window_wait_ms.mean"] = infer_mean - prepare_mean - forward_share;
  values["serve.client_overhead_ms.mean"] = mean(overhead_ms);
  values["serve.slo_share"] = ratio(static_cast<double>(within_slo), requests);
  values["proc.cpu_ms_per_op"] = ratio(1000.0 * d.cpu_s, requests);
  values["proc.cpu_util"] = ratio(d.cpu_s, drive.window_s);
  values["loadgen.lag_ms.p99"] = load.open ? percentile(lag, 99) : 0.0;
  values["loadgen.late_share"] = load.open ? ratio(static_cast<double>(late), requests) : 0.0;
  values["input.gadgets_per_op"] = ratio(d.gadgets, requests);
  values["input.explain_share"] = ratio(static_cast<double>(explains), requests);
  values["trace.dropped"] = daemon_trace_dropped();
  if (values["trace.dropped"] > 0) result.mismatch("the daemon's trace dropped events");

  // Composed pass over the measured requests, each composed untraced and
  // traced; both must reproduce the daemon's reply.
  sc::SeVulDet detector(serving_config());
  detector.load(kModel);
  const double budget_ms = 500.0 * options.seconds;
  LayerCounts counts;
  LayerCounts untraced_counts;
  OverheadTimer overhead;
  long long replayed = 0;
  long long differ = 0;
  begin_trace(std::size_t{1} << 20);
  const auto composed_start = Clock::now();
  for (const Outcome& outcome : drive.outcomes) {
    if (ms_since(composed_start) > budget_ms) break;
    if (!outcome.ok) continue;
    const serve::Request request = make_request(load, outcome.index, kMeasured);
    std::string bytes[2];
    overhead.run([&](bool traced) {
      bytes[traced] = compose_serve(detector, request, traced ? counts : untraced_counts);
    });
    for (const std::string& reply : bytes) differ += su::fnv1a(reply) != outcome.digest ? 1 : 0;
    ++replayed;
  }
  const LayerTimes times = end_trace(result, options, values);
  if (differ > 0) {
    result.mismatch(std::to_string(differ) + " composed replies differ from the daemon's");
  }
  compose_layer_values(times, counts, values);
  values["trace.overhead_share"] = overhead.share();
  std::printf("# composed %lld requests, untraced and traced\n", replayed);
  report_layers(result, values);
}

RunResult run_serve(const Options& options, bool open) {
  RunResult result;
  EndToEnd e2e;
  e2e.tail_percentile = 99.0;
  std::unique_ptr<Daemon> daemon;
  Load load;
  for (int rep = 0; rep < setup_reps(options); ++rep) {
    if (daemon && !daemon->shutdown()) result.mismatch("the daemon did not shut down cleanly");
    daemon.reset();
    const auto start = rep == 0 ? options.start : Clock::now();
    Fingerprint fingerprint;
    load = make_load(options, open, fingerprint);
    if (rep == 0) check_inputs(result, options, open ? kOpenPin : kClosedPin, fingerprint);
    train_serving_model(options, kModel);
    for (int i = 0; i < 4; ++i) std::filesystem::remove(access_log_file(i));
    daemon = std::make_unique<Daemon>(kModel, kSocket, daemon_args(options));
    drive(load, options.smoke ? 0.1 : kWarmupS, kWarmup);
    e2e.setup_s.push_back(ms_since(start) / 1000.0);
  }

  const DaemonTotals before = read_totals(*daemon);
  const Drive measured = drive(load, options.trace ? options.seconds / 2 : options.seconds, kMeasured);
  const DaemonTotals delta = read_totals(*daemon) - before;
  e2e.peak_rss_mb = peak_rss_mb(daemon->pid());
  if (!daemon->shutdown()) result.mismatch("the daemon did not shut down cleanly");
  check_replies(result, load, measured);

  long long late = 0;
  for (const Outcome& outcome : measured.outcomes) {
    if (outcome.ok) e2e.latency_ms.push_back(outcome.latency_ms);
    late += outcome.lag_ms > kLateMs ? 1 : 0;
  }
  const double late_share = ratio(static_cast<double>(late), static_cast<double>(measured.outcomes.size()));
  // Not in smoke runs: of their ~200 sends, one stall alone is over 1%.
  if (open && !options.smoke && late_share > kMaxLateShare) {
    result.mismatch("the load generator sent " + std::to_string(late) +
                    " requests more than 5 ms late: the run measures the generator");
  }
  std::printf("# %zu requests, %.2f gadgets/request, late share %.4f\n",
              measured.outcomes.size(),
              ratio(delta.gadgets, static_cast<double>(measured.outcomes.size())), late_share);
  if (options.trace) {
    report_serve_layers(result, options, load, measured, delta);
  } else {
    e2e.gadgets = delta.gadgets;
    e2e.busy_s = measured.window_s;
    report_end_to_end(result, e2e);
  }
  return result;
}

}  // namespace

RunResult run_serve_open(const Options& options) { return run_serve(options, true); }
RunResult run_serve_closed(const Options& options) { return run_serve(options, false); }

}  // namespace e2e
