// scan_tree: `sevuldet scan DIR` in process. core::scan_tree with 2
// threads runs repeatedly over one seeded tree of ~700 files: SARD-like
// and device-style programs written as .c files into 16 project
// directories, each file carrying the hazards examples/realworld_seed
// lists (an in-tree quote header with a guard and object- and
// function-like macros, an unresolvable <system.h> include, an #ifdef
// region, and in one file of ten a K&R definition around a strcpy),
// plus a verbatim copy of examples/realworld_seed.
//
// It is the only workload that runs frontend::preprocess and
// parse_with_recovery, and it bypasses the daemon's micro-batcher, so a
// batching change should not move it. Every pass must serialize exactly
// like a serial (threads=1) reference scan.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "sevuldet/dataset/realworld.hpp"
#include "sevuldet/util/binary_io.hpp"
#include "sevuldet/util/rng.hpp"

namespace e2e {

namespace fs = std::filesystem;
namespace sc = sevuldet::core;
namespace sd = sevuldet::dataset;
namespace serve = sevuldet::serve;
namespace su = sevuldet::util;

namespace {

constexpr const char* kRoot = "tree";
constexpr const char* kModel = "model.bin";
// scan_tree splits the files statically, so its slowest worker sets each
// pass's time. On a 4-core machine 4 workers made every pass wait for
// whichever core was busy elsewhere (30-35% run-to-run spread of the
// median pass); 2 leave that headroom (10-17%).
constexpr int kThreads = 2;
// Fingerprint of the default seed's full-size tree (see check_inputs).
constexpr std::string_view kTreePin = "55d34524b7a16f2d";

struct SourceFile {
  std::string path;  // relative to the tree root
  std::string text;
};

/// Macro prefix of a project's names: "p03" -> "P03".
std::string macro_prefix(const std::string& project) {
  std::string prefix = project;
  prefix[0] = 'P';
  return prefix;
}

std::string project_header(const std::string& project, int index) {
  const std::string upper = macro_prefix(project);
  std::string text = "/* Project-wide settings; include-guarded and macro-heavy. */\n";
  text += "#ifndef " + upper + "_CONFIG_H\n#define " + upper + "_CONFIG_H\n\n";
  text += "#include <stddef.h>\n\n";
  text += "#define " + upper + "_LEVEL " + std::to_string(2 + index % 5) + "\n";
  text += "#define " + upper + "_MAX(a, b) ((a) > (b) ? (a) : (b))\n";
  text += "#define " + upper + "_CLAMP(n) \\\n  " + upper + "_MAX((n), " + upper + "_LEVEL)\n";
  if (index % 2 == 0) text += "#define " + upper + "_TRACE 1\n";
  text += "\n#endif\n";
  return text;
}

/// One generated program as a project file: hazard prelude, program,
/// a helper using the project's macros, and (one file in ten) a K&R
/// definition the parser must recover around.
std::string project_file(const std::string& project, int file, const std::string& program) {
  const std::string upper = macro_prefix(project);
  const std::string id = project + "_" + std::to_string(file);
  std::string text = "#include <" + project + "_platform.h>\n";
  text += "#include \"" + project + "_config.h\"\n\n";
  text += "#ifdef " + upper + "_TRACE\nstatic int " + id + "_trace = " + upper + "_LEVEL;\n#endif\n\n";
  text += program;
  text += "\nint " + id + "_clamp(int v) {\n  return " + upper + "_CLAMP(v);\n}\n";
  if (file % 10 == 0) {
    text += "\nint " + id + "_legacy(dst, src)\nchar *dst;\nchar *src;\n{\n";
    text += "  strcpy(dst, src);\n  return " + upper + "_LEVEL;\n}\n";
  }
  return text;
}

std::vector<SourceFile> make_tree(const Options& options) {
  std::vector<std::string> programs;
  for (sd::TestCase& tc : sard_programs(options.smoke ? 1 : 72, options.seed)) {
    programs.push_back(std::move(tc.source));
  }
  sd::RealWorldConfig device;
  device.variant_pairs = options.smoke ? 1 : 8;
  device.clean_functions = options.smoke ? 2 : 60;
  device.seed = options.seed;
  for (sd::TestCase& tc : sd::generate_realworld(device).cases) programs.push_back(std::move(tc.source));
  // Mix the two kinds across projects, so every contiguous share of the
  // sorted file list (one scan_tree worker's range) gets both.
  su::Rng rng(options.seed ^ 0x7eeull);
  rng.shuffle(programs);

  const int projects = options.smoke ? 2 : 16;
  std::vector<SourceFile> files;
  for (int p = 0; p < projects; ++p) {
    char name[8];
    std::snprintf(name, sizeof(name), "p%02d", p);
    files.push_back({std::string(name) + "/" + name + "_config.h", project_header(name, p)});
  }
  for (std::size_t i = 0; i < programs.size(); ++i) {
    char name[8];
    char file[16];
    std::snprintf(name, sizeof(name), "p%02d", static_cast<int>(i % projects));
    std::snprintf(file, sizeof(file), "f%04d.c", static_cast<int>(i));
    files.push_back({std::string(name) + "/" + file,
                     project_file(name, static_cast<int>(i), programs[i])});
  }
  const fs::path seed_tree = fs::path(SEVULDET_REPO_DIR) / "examples" / "realworld_seed";
  for (const std::string& relative : sc::list_scan_files(seed_tree.string(), {".c", ".h"})) {
    files.push_back({"realworld_seed/" + relative,
                     su::read_binary_file((seed_tree / relative).string())});
  }
  return files;
}

void write_tree(const std::vector<SourceFile>& files) {
  fs::remove_all(kRoot);
  for (const SourceFile& file : files) {
    const fs::path path = fs::path(kRoot) / file.path;
    fs::create_directories(path.parent_path());
    su::write_binary_file(path.string(), file.text);
  }
}

sc::TreeScanResult scan(sc::SeVulDet& detector, int threads) {
  sc::ScanOptions options;
  options.threads = threads;
  return sc::scan_tree(detector, kRoot, options);
}

/// Composes every file's scan and checks it against the reference;
/// returns the counts (gadgets scored per pass among them).
LayerCounts compose_tree(RunResult& result, sc::SeVulDet& detector,
                         const sc::TreeScanResult& reference) {
  LayerCounts counts;
  long long differ = 0;
  for (const sc::FileScanResult& file : reference.files) {
    const sc::FileScanResult composed = compose_scan_file(detector, kRoot, file.path, counts);
    differ += file_scan_json(composed) != file_scan_json(file) ? 1 : 0;
  }
  if (differ > 0) {
    result.mismatch(std::to_string(differ) + " composed file scans differ from scan_tree");
  }
  return counts;
}

}  // namespace

RunResult run_scan_tree(const Options& options) {
  RunResult result;
  EndToEnd e2e;
  std::unique_ptr<sc::SeVulDet> detector;
  for (int rep = 0; rep < setup_reps(options); ++rep) {
    detector.reset();
    const auto start = rep == 0 ? options.start : Clock::now();
    const std::vector<SourceFile> files = make_tree(options);
    if (rep == 0) {
      Fingerprint fingerprint;
      for (const SourceFile& file : files) {
        fingerprint.add(file.path);
        fingerprint.add(file.text);
      }
      check_inputs(result, options, kTreePin, fingerprint);
    }
    write_tree(files);
    train_serving_model(options, kModel);
    detector = std::make_unique<sc::SeVulDet>(serving_config());
    detector->load(kModel);
    scan(*detector, kThreads);  // warm-up pass
    e2e.setup_s.push_back(ms_since(start) / 1000.0);
  }

  // Measured passes; each pass's serialization is hashed outside its
  // timed region and compared with the serial reference afterwards.
  std::vector<std::uint64_t> digests;
  double cpu_s = 0.0;  // CPU time of the measured operations
  const double measure_ms = 1000.0 * (options.trace ? options.seconds / 2 : options.seconds);
  const auto window_start = Clock::now();
  while (digests.empty() || ms_since(window_start) < measure_ms) {
    const double cpu_start = cpu_seconds();
    const auto pass_start = Clock::now();
    const sc::TreeScanResult tree = scan(*detector, kThreads);
    e2e.latency_ms.push_back(ms_since(pass_start));
    cpu_s += cpu_seconds() - cpu_start;
    ++result.attempted;
    result.failed += tree.stats.files_failed > 0 ? 1 : 0;
    digests.push_back(su::fnv1a(serve::tree_scan_to_json(tree)));
  }
  for (double ms : e2e.latency_ms) e2e.busy_s += ms / 1000.0;

  const sc::TreeScanResult reference = scan(*detector, 1);
  const std::uint64_t expected = su::fnv1a(serve::tree_scan_to_json(reference));
  const long long differ = std::count_if(digests.begin(), digests.end(),
                                         [&](std::uint64_t d) { return d != expected; });
  if (differ > 0) {
    result.mismatch(std::to_string(differ) + " parallel passes differ from the serial reference");
  }
  // The composed pass counts the gadgets a pass scores.
  const LayerCounts counts = compose_tree(result, *detector, reference);
  const double files = static_cast<double>(reference.stats.files);
  std::printf("# %d files, %.1f KB, %lld gadgets per pass; %.1f%% preprocessed, %.1f%% recovered\n",
              reference.stats.files, static_cast<double>(reference.stats.bytes) / 1024.0,
              counts.forward_gadgets, 100.0 * ratio(static_cast<double>(counts.preprocessed), files),
              100.0 * ratio(static_cast<double>(counts.recovered), files));

  if (!options.trace) {
    e2e.gadgets = static_cast<double>(counts.forward_gadgets) * static_cast<double>(digests.size());
    e2e.peak_rss_mb = peak_rss_mb();
    report_end_to_end(result, e2e);
    return result;
  }

  LayerValues values;
  const double passes = static_cast<double>(digests.size());
  values["proc.cpu_ms_per_op"] = ratio(1000.0 * cpu_s, passes);
  values["proc.cpu_util"] = ratio(cpu_s, e2e.busy_s);
  values["input.gadgets_per_op"] = static_cast<double>(counts.forward_gadgets);
  values["input.files_preprocessed_share"] = ratio(static_cast<double>(counts.preprocessed), files);
  values["input.files_recovered_share"] = ratio(static_cast<double>(counts.recovered), files);

  // Every file composed untraced and traced; both must match the reference.
  LayerCounts traced;
  LayerCounts untraced;
  OverheadTimer overhead;
  long long traced_differ = 0;
  begin_trace(std::size_t{1} << 20);
  for (const sc::FileScanResult& file : reference.files) {
    sc::FileScanResult composed[2];
    overhead.run([&](bool on) {
      composed[on] = compose_scan_file(*detector, kRoot, file.path, on ? traced : untraced);
    });
    for (const sc::FileScanResult& scan : composed) {
      traced_differ += file_scan_json(scan) != file_scan_json(file) ? 1 : 0;
    }
  }
  const LayerTimes times = end_trace(result, options, values);
  if (traced_differ > 0) {
    result.mismatch(std::to_string(traced_differ) + " composed file scans differ from scan_tree");
  }
  compose_layer_values(times, traced, values);
  values["trace.overhead_share"] = overhead.share();
  report_layers(result, values);
  return result;
}

}  // namespace e2e
