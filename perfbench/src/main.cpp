// perfbench: one end-to-end benchmark for the cfd flow.
//
//   perfbench --workload compile_cold|sweep_explore|validate|serve_mixed
//             --seed N --seconds S --trace 0|1
//             --work-dir DIR --cfdc PATH
//
// Prints a run header and notes as '#' lines, then, as the last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. run.py builds this binary and is the usual entry point.
#include "Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --cfdc PATH\n";
  return 2;
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

} // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload")
      config.workload = value;
    else if (flag == "--seed")
      config.seed = std::stoull(value);
    else if (flag == "--seconds")
      config.seconds = std::stod(value);
    else if (flag == "--trace")
      config.trace = value == "1";
    else if (flag == "--work-dir")
      config.workDir = value;
    else if (flag == "--cfdc")
      config.cfdc = value;
    else
      return usage();
  }
  if (argc % 2 == 0 || config.workload.empty() || config.workDir.empty() ||
      config.seconds <= 0)
    return usage();
  config.workers = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  // An inherited cache directory would turn cold compiles into disk hits.
  ::unsetenv("CFD_CACHE_DIR");

  std::cout << "# perfbench workload=" << config.workload
            << " seed=" << config.seed << " seconds=" << config.seconds
            << " trace=" << config.trace << " nproc=" << config.workers
            << " compiler=\"" << PERFBENCH_COMPILER << "\" build="
            << PERFBENCH_BUILD_TYPE << "\n";

  RunResult result;
  try {
    if (config.workload == "compile_cold")
      result = runCompileCold(config);
    else if (config.workload == "sweep_explore")
      result = runSweepExplore(config);
    else if (config.workload == "validate")
      result = runValidate(config);
    else if (config.workload == "serve_mixed")
      result = runServeMixed(config);
    else
      return usage();
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << config.workload << ": " << error.what()
              << "\n";
    return 1;
  }

  std::vector<Metric> metrics = result.endToEnd;
  if (config.trace) {
    metrics.clear();
    for (const auto& [name, unit] : layerMetricUnits())
      metrics.push_back({name, result.layer[name], unit});
  }
  for (const std::string& note : result.notes)
    std::cout << "# " << note << "\n";
  for (const Metric& metric : metrics)
    if (!std::isfinite(metric.value)) {
      std::cerr << "perfbench: metric " << metric.name << " is not finite\n";
      return 1;
    }

  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
  return 0;
}
