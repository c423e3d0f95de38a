// txrep_bench: runs one benchmark workload in this process and prints one
// JSON object with its metrics, sample counts and correctness gates.
//
//   txrep_bench --workload=NAME --seed=N [--seconds=S] [--trace]
//               [--scale=F] [--spans=FILE]
//
// Workloads: tpcc_catchup, tpcw_live (see workloads.cc).
// run.py builds this binary, runs it and checks its output.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "workloads.h"

namespace txrep::benchsuite {
namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ",";
    out += JsonString(m.name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

bool ParseFlag(std::string_view arg, std::string_view name,
               std::string* value) {
  if (!arg.starts_with(name)) return false;
  arg.remove_prefix(name.size());
  if (!arg.starts_with("=")) return false;
  *value = std::string(arg.substr(1));
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "txrep_bench: %s\nusage: txrep_bench --workload=NAME --seed=N "
               "[--seconds=S] [--trace] [--scale=F] [--spans=FILE]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string value;
    if (arg == "--trace") {
      args.trace = true;
    } else if (ParseFlag(arg, "--workload", &value)) {
      args.workload = value;
    } else if (ParseFlag(arg, "--seed", &value)) {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "--seconds", &value)) {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "--scale", &value)) {
      args.scale = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "--spans", &value)) {
      args.spans_path = value;
    } else {
      return Usage(("unknown argument " + std::string(arg)).c_str());
    }
  }
  if (args.workload.empty()) return Usage("--workload is required");
  if (!(args.seconds > 0) || !(args.scale > 0)) {
    return Usage("--seconds and --scale must be positive");
  }

  Result<RunReport> report = RunWorkload(args);
  if (!report.ok()) {
    std::fprintf(stderr, "txrep_bench: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const std::string build_type = TXREP_BENCH_BUILD_TYPE;
  report->gates.push_back({"release_build", ndebug && build_type == "Release",
                           "build type " + build_type +
                               (ndebug ? ", NDEBUG" : ", assertions on"),
                           /*output=*/false});

  bool correct = true;
  bool valid = true;
  std::string gates = "[";
  for (size_t i = 0; i < report->gates.size(); ++i) {
    const Gate& g = report->gates[i];
    (g.output ? correct : valid) &= g.ok;
    if (i > 0) gates += ",";
    gates += "{\"name\":" + JsonString(g.name) +
             ",\"kind\":" + (g.output ? "\"output\"" : "\"validity\"") +
             ",\"ok\":" + (g.ok ? "true" : "false") +
             ",\"detail\":" + JsonString(g.detail) + "}";
  }
  gates += "]";

  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%s,"
      "\"scale\":%s,\"correct\":%s,\"valid\":%s,\"attempted\":%lld,"
      "\"failed\":%lld,"
      "\"gates\":%s,\"build\":{\"type\":%s,\"ndebug\":%s,\"compiler\":%s},"
      "\"end_to_end\":%s,\"per_layer\":%s,\"validity\":%s}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace ? "true" : "false",
      JsonNumber(args.scale).c_str(), correct ? "true" : "false",
      valid ? "true" : "false",
      static_cast<long long>(report->attempted),
      static_cast<long long>(report->failed), gates.c_str(),
      JsonString(build_type).c_str(), ndebug ? "true" : "false",
      JsonString(kCompiler).c_str(),
      MetricsJson(report->end_to_end).c_str(),
      MetricsJson(report->per_layer).c_str(),
      MetricsJson(report->validity).c_str());
  if (!correct) return 3;
  return valid ? 0 : 4;
}

}  // namespace
}  // namespace txrep::benchsuite

int main(int argc, char** argv) { return txrep::benchsuite::Main(argc, argv); }
