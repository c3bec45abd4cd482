// sevuldet_bench: the seeded end-to-end benchmark (README.md).
//
//   sevuldet_bench --workload serve_open|serve_closed|scan_tree|train|all
//                  [--seed S] [--seconds T] [--trace 0|1] [--trace-out F]
//                  [--smoke] [--work DIR] [--results F]
//
// One workload runs per process, so set-up time and peak memory never
// leak between workloads; `--workload all` re-executes this binary once
// per workload. Each run prints `workload metric value unit` lines and
// then, as its last line, one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
// ones, with --trace 1 the per-layer ones of a separate traced pass.
// The exit code is 0 only when every correctness check held.
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sevuldet/util/json.hpp"
#include "sevuldet/util/mini_json.hpp"

namespace {

namespace fs = std::filesystem;
namespace json = sevuldet::util::mini_json;
using e2e::Options;
using e2e::RunResult;

constexpr const char* kWorkloads[] = {"serve_open", "serve_closed", "scan_tree", "train"};

int usage() {
  std::fprintf(stderr,
               "usage: sevuldet_bench --workload serve_open|serve_closed|scan_tree|train|all\n"
               "                      [--seed S] [--seconds T] [--trace 0|1] [--trace-out FILE]\n"
               "                      [--smoke] [--work DIR] [--results FILE]\n");
  return 2;
}

/// Shortest round-trip spelling, so a value keeps all its digits.
std::string number(double value) {
  char buffer[64];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  return std::string(buffer, end);
}

std::string result_json(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const e2e::Metric& metric = result.metrics[i];
    if (i > 0) out += ", ";
    sevuldet::util::json::append_string(out, metric.name);
    out += ": {\"value\": " + number(metric.value) + ", \"unit\": ";
    sevuldet::util::json::append_string(out, metric.unit);
    out += "}";
  }
  return out + "}}";
}

RunResult run_workload(const Options& options) {
  if (options.workload == "serve_open") return e2e::run_serve_open(options);
  if (options.workload == "serve_closed") return e2e::run_serve_closed(options);
  if (options.workload == "scan_tree") return e2e::run_scan_tree(options);
  return e2e::run_train(options);
}

/// Runs one workload in a work directory of its own and prints its
/// result; the directory is removed unless the run failed.
int run_one(Options options, const fs::path& work) {
  const fs::path home = fs::current_path();
  fs::remove_all(work);
  fs::create_directories(work);
  if (!options.trace_out.empty()) options.trace_out = fs::absolute(options.trace_out).string();
  fs::current_path(work);
  RunResult result;
  try {
    result = run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s (work files kept in %s)\n", e.what(), work.c_str());
    return 2;
  }
  fs::current_path(home);
  for (e2e::Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.mismatch(metric.name + " is not a finite number");
      metric.value = 0.0;
    }
    std::printf("%s %s %s %s\n", options.workload.c_str(), metric.name.c_str(),
                number(metric.value).c_str(), metric.unit.c_str());
  }
  std::printf("%s\n", result_json(result).c_str());
  std::fflush(stdout);
  if (result.correct) {
    fs::remove_all(work);
  } else {
    std::fprintf(stderr, "work files kept in %s\n", work.c_str());
  }
  return result.correct ? 0 : 1;
}

/// Runs `argv` with stdout captured; returns its exit status.
int capture(const std::vector<std::string>& args, std::string& out) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::vector<char*> argv;
  std::vector<std::string> owned = args;
  for (std::string& arg : owned) argv.push_back(arg.data());
  argv.push_back(nullptr);
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  char buffer[4096];
  for (ssize_t n; (n = ::read(fds[0], buffer, sizeof(buffer))) != 0;) {
    if (n > 0) out.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

/// --workload all: one child process per workload. Prints every child's
/// metric lines, writes the collected results, and prints one combined
/// JSON line whose metric names are prefixed with the workload.
int run_all(const Options& options, const fs::path& work, const std::string& results_path) {
  RunResult combined;
  std::string results = "{\"seed\": " + std::to_string(options.seed) +
                        ", \"trace\": " + (options.trace ? "1" : "0") + ", \"workloads\": {";
  bool ok = true;
  for (const char* workload : kWorkloads) {
    std::vector<std::string> args = {"/proc/self/exe", "--workload", workload, "--seed",
                                     std::to_string(options.seed), "--seconds",
                                     number(options.seconds), "--trace", options.trace ? "1" : "0",
                                     "--work", (work / workload).string()};
    if (options.smoke) args.push_back("--smoke");
    if (!options.trace_out.empty()) {
      args.push_back("--trace-out");
      args.push_back(options.trace_out + "." + workload + ".json");
    }
    std::string out;
    const int status = capture(args, out);
    const std::size_t last = out.find_last_of('\n', out.size() >= 2 ? out.size() - 2 : 0);
    const std::string line = out.substr(last == std::string::npos ? 0 : last + 1);
    std::fwrite(out.data(), 1, out.size() - line.size(), stdout);
    if (status == 2 || line.empty() || line[0] != '{') {
      std::fprintf(stderr, "%s: no result (exit %d)\n", workload, status);
      ok = false;
      continue;
    }
    const json::Value doc = json::Parser(line).parse();
    combined.correct = combined.correct && doc.at("correct").boolean;
    combined.attempted += static_cast<long long>(doc.at("attempted").number);
    combined.failed += static_cast<long long>(doc.at("failed").number);
    for (const auto& [name, metric] : doc.at("metrics").object) {
      combined.metrics.push_back({std::string(workload) + "." + name,
                                  metric.at("value").number, metric.at("unit").str});
    }
    if (results.back() != '{') results += ", ";
    results += "\"" + std::string(workload) + "\": " + line.substr(0, line.find_last_not_of('\n') + 1);
  }
  results += "}}\n";
  fs::create_directories(fs::absolute(results_path).parent_path());
  std::ofstream(results_path) << results;
  std::fprintf(stderr, "results written to %s\n", results_path.c_str());
  std::printf("%s\n", result_json(combined).c_str());
  return ok && combined.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.start = e2e::Clock::now();
  std::string work;
  std::string results = ".bench_build/e2e_results.json";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--work") {
      work = value;
    } else if (flag == "--results") {
      results = value;
    } else {
      return usage();
    }
  }
  if (options.seconds <= 0.0) return usage();
  if (work.empty()) {
    work = ".bench_build/work/" + options.workload + "-" + std::to_string(::getpid());
  }
  try {
    if (options.workload == "all") return run_all(options, fs::absolute(work), results);
    for (const char* workload : kWorkloads) {
      if (options.workload == workload) return run_one(options, fs::absolute(work));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage();
}
