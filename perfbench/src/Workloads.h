// The four benchmark workloads (see NOTES.md for why each exists and
// which layer metric should move which end-to-end metric).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the daemon socket, its log and the trace.
  std::string workDir;
  /// The cfdc binary serve_mixed starts as its daemon.
  std::string cfdc;
  /// Client threads / sweep workers (the machine's core count).
  int workers = 1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Reported by the untraced run.
  std::vector<Metric> endToEnd;
  /// Reported by the traced run: every name of layerMetricUnits(), zero
  /// where the workload does not exercise the layer.
  std::map<std::string, double> layer;
  /// Human-readable lines printed before the result (paper anchor,
  /// per-family stage shares, sample counts).
  std::vector<std::string> notes;
};

/// Every per-layer metric name with its unit.
const std::vector<std::pair<std::string, std::string>>& layerMetricUnits();

RunResult runCompileCold(const RunConfig& config);
RunResult runSweepExplore(const RunConfig& config);
RunResult runValidate(const RunConfig& config);
RunResult runServeMixed(const RunConfig& config);

} // namespace perfbench
