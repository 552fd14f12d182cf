#include "Workloads.h"

#include "Generator.h"
#include "StatsAdapter.h"
#include "Trace.h"

#include "core/Flow.h"
#include "core/Session.h"
#include "eval/Evaluator.h"
#include "serve/Client.h"
#include "sim/PlatformSim.h"
#include "support/Error.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <csignal>
#include <exception>
#include <fcntl.h>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& layerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"dsl.parse_ms", "ms"},
      {"ir.lower_ms", "ms"},
      {"ir.optimize_ms", "ms"},
      {"ir.ops_after_optimize", "count"},
      {"ir.pass.canonicalize.rewrites", "count"},
      {"ir.pass.cse.rewrites", "count"},
      {"ir.pass.fold.rewrites", "count"},
      {"ir.pass.dce.rewrites", "count"},
      {"sched.schedule_ms", "ms"},
      {"sched.reschedule_ms", "ms"},
      {"sched.reschedule_share", "ratio"},
      {"sched.reschedule_share.helmholtz", "ratio"},
      {"sched.reschedule_share.chain", "ratio"},
      {"mem.liveness_ms", "ms"},
      {"mem.memory_plan_ms", "ms"},
      {"mem.memory_plan_share", "ratio"},
      {"mem.memory_plan_share.chain", "ratio"},
      {"mem.bram36", "count"},
      {"hls.analyze_ms", "ms"},
      {"sysgen.generate_ms", "ms"},
      {"codegen.emit_c_ms", "ms"},
      {"sim.simulate_ms", "ms"},
      {"eval.reference_ms", "ms"},
      {"eval.execute_ms", "ms"},
      {"eval.reference_share", "ratio"},
      {"eval.execute_ns_per_access", "ns"},
      {"eval.loads", "count"},
      {"eval.flops", "count"},
      {"core.stage_hit_ratio", "ratio"},
      {"core.flow_hit_ratio", "ratio"},
      {"core.redundant_stage_runs", "count"},
      {"core.sweep_speedup", "x"},
      {"core.session_overhead_ms", "ms"},
      {"serve.rtt_ms_p50", "ms"},
      {"serve.server_compile_ms_p50", "ms"},
      {"serve.overhead_ms_p50", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.protocol_errors", "count"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

namespace {

using cfd::Stage;

/// validate: max |interpreter - reference| over max |reference|.
constexpr double kRelativeTolerance = 1e-12;
/// Set-ups per run (see SetupTimes); setup_s is their median.
constexpr int kSetups = 9;

constexpr Stage kStages[] = {Stage::Parse,      Stage::Lower,
                             Stage::Optimize,   Stage::Schedule,
                             Stage::Reschedule, Stage::Liveness,
                             Stage::MemoryPlan, Stage::Hls,
                             Stage::SysGen};

/// Span name (= "<layer>.<what>") and per-layer metric of each stage.
const char* spanOf(Stage stage) {
  switch (stage) {
  case Stage::Parse: return "dsl.parse";
  case Stage::Lower: return "ir.lower";
  case Stage::Optimize: return "ir.optimize";
  case Stage::Schedule: return "sched.schedule";
  case Stage::Reschedule: return "sched.reschedule";
  case Stage::Liveness: return "mem.liveness";
  case Stage::MemoryPlan: return "mem.memory_plan";
  case Stage::Hls: return "hls.analyze";
  case Stage::SysGen: return "sysgen.generate";
  }
  return "?";
}

double msSince(std::int64_t startNs) {
  return static_cast<double>(nowNs() - startNs) / 1e6;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty())
    return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(position);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (position - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double ratio(double numerator, double denominator) {
  return denominator != 0 ? numerator / denominator : 0;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (unsigned char c : text)
    hash = (hash ^ c) * 0x100000001B3ull;
  return hash;
}

/// Peak resident set (VmHWM) of `pid`, or of this process for 0.
double peakRssMb(pid_t pid = 0) {
  std::ifstream in(pid ? "/proc/" + std::to_string(pid) + "/status"
                       : std::string("/proc/self/status"));
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

/// Runs body(item, thread) for every item on `threads` threads; the
/// first exception a body throws is rethrown once all threads joined.
template <typename Body>
void parallelFor(std::size_t count, int threads, Body body) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex errorMutex;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      try {
        for (std::size_t i; (i = next.fetch_add(1)) < count;)
          body(i, t);
      } catch (...) {
        std::lock_guard<std::mutex> lock(errorMutex);
        if (!error)
          error = std::current_exception();
      }
    });
  for (std::thread& thread : pool)
    thread.join();
  if (error)
    std::rethrow_exception(error);
}

/// The set-up times of one run: the set-up that builds the run's
/// state, then kSetups - 1 more whose state is dropped at once. On a
/// shared machine a speed mode lasts seconds, so the extra set-ups are
/// spread evenly over the timed window, between its units (whose time
/// excludes them). Their median then follows the run's mix of modes,
/// as the window's own metrics do, not its first second.
class SetupTimes {
public:
  explicit SetupTimes(double windowSeconds)
      : windowNs_(static_cast<std::int64_t>(windowSeconds * 1e9)) {}

  /// Times one set-up and returns the state it built.
  template <typename Setup> auto time(Setup setup) {
    const std::int64_t start = nowNs();
    auto state = setup();
    seconds_.push_back(static_cast<double>(nowNs() - start) / 1e9);
    return state;
  }
  /// Times one more set-up when `elapsedNs` into the window has passed
  /// the next of the evenly spaced sample points.
  template <typename Setup> void sampleIfDue(std::int64_t elapsedNs, Setup setup) {
    const auto taken = static_cast<std::int64_t>(seconds_.size());
    if (taken < kSetups && elapsedNs >= windowNs_ * taken / kSetups)
      time(setup);
  }
  /// Times the set-ups the window left untaken.
  template <typename Setup> void finish(Setup setup) {
    while (seconds_.size() < static_cast<std::size_t>(kSetups))
      time(setup);
  }
  double median() const { return perfbench::median(seconds_); }

private:
  std::int64_t windowNs_;
  std::vector<double> seconds_;
};

RunResult makeResult() {
  RunResult result;
  for (const auto& [name, unit] : layerMetricUnits())
    result.layer[name] = 0;
  return result;
}

std::string fixed(double value, int digits) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(digits);
  out << value;
  return out.str();
}

// ---- Paper anchor (Fig. 10 and Table I), shared by every workload ----

struct PaperAnchor {
  double speedupVsArm = 0; ///< SW Ref. time / best feasible design time
  double swHlsCode = 0;    ///< SW Ref. time / SW HLS code time
  int maxKernels = 0;
  int maxKernelsNoSharing = 0;
};

cfd::SweepRequest sweepRequestFor(const SweepSpace& space, int workers,
                                  bool simulate) {
  cfd::SweepRequest request(space.kernel.source);
  for (const auto& [key, values] : space.axes)
    request.axis(key, values);
  request.workers(workers);
  if (simulate)
    request.simulateElements(space.simulateElements);
  return request;
}

cfd::SessionOptions sessionWithWorkers(int workers) {
  cfd::SessionOptions options;
  options.workers = workers;
  return options;
}

PaperAnchor paperAnchor() {
  const SweepSpace space = paperSpace();
  cfd::Session session(sessionWithWorkers(1));
  cfd::Expected<cfd::SweepResult> sweep =
      session.sweep(sweepRequestFor(space, 1, true));
  if (!sweep)
    throw std::runtime_error("paper sweep failed: " + sweep.errorText());
  PaperAnchor anchor;
  double bestUs = 0;
  for (const cfd::ExplorationRow& row : sweep->rows()) {
    if (!row.ok())
      continue;
    const double us = row.sim.totalTimeUs();
    if (bestUs == 0 || us < bestUs)
      bestUs = us;
    int& maxK = row.options.memory.enableSharing ? anchor.maxKernels
                                                 : anchor.maxKernelsNoSharing;
    maxK = std::max(maxK, row.flow->systemDesign().k);
  }
  anchor.maxKernels = std::max(anchor.maxKernels, anchor.maxKernelsNoSharing);
  cfd::Expected<cfd::CompileResult> flow =
      session.compile(cfd::CompileRequest(space.kernel.source));
  if (!flow)
    throw std::runtime_error("paper kernel failed: " + flow.errorText());
  const double swRefUs = cfd::sim::cpuTotalTimeUs(
      flow->flow().softwareCounts(cfd::sched::ScheduleObjective::Software),
      space.simulateElements);
  const double swHlsUs = cfd::sim::cpuTotalTimeUs(
      flow->flow().softwareCounts(cfd::sched::ScheduleObjective::Hardware),
      space.simulateElements);
  anchor.speedupVsArm = ratio(swRefUs, bestUs);
  anchor.swHlsCode = ratio(swRefUs, swHlsUs);
  return anchor;
}

void addPaperAnchor(RunResult& result) {
  const PaperAnchor anchor = paperAnchor();
  result.endToEnd.push_back({"speedup_vs_arm", anchor.speedupVsArm, "x"});
  result.endToEnd.push_back(
      {"max_kernels", static_cast<double>(anchor.maxKernels), "count"});
  result.notes.push_back(
      "paper Fig. 10 HW k=16 speedup_vs_arm: paper 8.62, measured " +
      fixed(anchor.speedupVsArm, 2) + ", ratio " +
      fixed(anchor.speedupVsArm / 8.62, 3) + " (model, not recalibrated)");
  result.notes.push_back(
      "paper Fig. 10 SW HLS code: paper 0.90, measured " +
      fixed(anchor.swHlsCode, 2) + ", ratio " +
      fixed(anchor.swHlsCode / 0.90, 3) + " (known gap, left as is)");
  result.notes.push_back(
      "paper Table I max_kernels: with sharing paper 16, measured " +
      std::to_string(anchor.maxKernels) + ", ratio " +
      fixed(anchor.maxKernels / 16.0, 3) + "; without sharing paper 8, "
      "measured " + std::to_string(anchor.maxKernelsNoSharing) + ", ratio " +
      fixed(anchor.maxKernelsNoSharing / 8.0, 3));
}

/// The timed window's ops: every op of the client threads
/// (compile_cold, validate, serve_mixed), or the whole four-sweep cycles
/// sweep_explore completed. Throughput is their ops over their wall
/// time; latency percentiles are over every one of their ops.
class Window {
public:
  void add(double seconds, double ops, const std::vector<double>& latencyMs) {
    seconds_ += seconds;
    ops_ += ops;
    latencyMs_.insert(latencyMs_.end(), latencyMs.begin(), latencyMs.end());
  }
  std::size_t samples() const { return latencyMs_.size(); }
  double opsPerS() const { return ratio(ops_, seconds_); }
  double latency(double q) const { return percentile(latencyMs_, q); }

private:
  double seconds_ = 0;
  double ops_ = 0;
  std::vector<double> latencyMs_;
};

/// The end-to-end metrics every workload reports besides the anchor.
void addEndToEnd(RunResult& result, const Window& window, double setupS,
                 double rssMb, double cBytes) {
  if (window.samples() == 0)
    throw std::runtime_error("the window completed no whole input mix");
  result.endToEnd.push_back({"ops_per_s", window.opsPerS(), "1/s"});
  result.endToEnd.push_back({"latency_p50_ms", window.latency(0.50), "ms"});
  result.endToEnd.push_back({"latency_p90_ms", window.latency(0.90), "ms"});
  result.endToEnd.push_back({"latency_p99_ms", window.latency(0.99), "ms"});
  result.endToEnd.push_back({"setup_s", setupS, "s"});
  result.endToEnd.push_back({"peak_rss_mb", rssMb, "MB"});
  result.endToEnd.push_back({"c_bytes", cBytes, "bytes"});
  result.notes.push_back(
      "latency samples: " + std::to_string(window.samples()) +
      "; failed_share = failed / attempted = " +
      fixed(ratio(static_cast<double>(result.failed),
                  static_cast<double>(result.attempted)),
            6));
}

/// Per-op mean of a traced workload's self times, one metric per span
/// name that is also a layer metric ("sched.reschedule" ->
/// "sched.reschedule_ms").
void addSelfTimes(RunResult& result, const Trace& trace, double ops) {
  for (const auto& [name, ms] : trace.selfMillis()) {
    const std::string metric = name + "_ms";
    if (result.layer.count(metric))
      result.layer[metric] = ratio(ms, ops);
  }
}

/// (traced mean op time / untraced mean op time - 1) in percent.
double overheadPct(const std::vector<double>& tracedMs,
                   const std::vector<double>& untracedMs) {
  if (tracedMs.empty() || untracedMs.empty())
    return 0;
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v)
      sum += x;
    return sum / static_cast<double>(v.size());
  };
  return (mean(tracedMs) / mean(untracedMs) - 1.0) * 100.0;
}

// ---- compile_cold ----

/// A client session's warm-up: one block of the compile_cold stream
/// under a seed of its own, so each kernel family and size has run once
/// in the session before the window. A block costs ~0.2 s per client, so
/// the thread start-up and wake-up delays of the parallel set-up no
/// longer decide `setup_s` (four kernels per client: 11-20 ms, spread
/// 0.65 between quartiles over ten seeds).
std::vector<Kernel> warmupKernels(std::uint64_t seed) {
  std::vector<Kernel> kernels;
  for (std::size_t i = 0; i < kColdBlock; ++i)
    kernels.push_back(coldKernel(mixSeed(seed, 0x7761726D /* "warm" */), i));
  return kernels;
}

} // namespace

RunResult runCompileCold(const RunConfig& config) {
  RunResult result = makeResult();
  // One client per core, each with a long-lived session of its own. A
  // single client measured the host more than the compiler, and clients
  // sharing one session measured its lock contention, which grows as
  // the caches fill (see NOTES.md, "Steadiness").
  const int threads = config.workers;
  const auto setup = [&] {
    std::vector<std::unique_ptr<cfd::Session>> sessions(threads);
    parallelFor(sessions.size(), threads, [&](std::size_t t, int) {
      sessions[t] = std::make_unique<cfd::Session>();
      for (const Kernel& kernel : warmupKernels(config.seed))
        if (!sessions[t]->compile(cfd::CompileRequest(kernel.source)
                                      .materialize(cfd::Artifacts::CCode)))
          throw std::runtime_error("warm-up compile failed");
    });
    return sessions;
  };
  SetupTimes setups(config.seconds);
  std::vector<std::unique_ptr<cfd::Session>> sessions = setups.time(setup);

  struct Op {
    bool ok = false;
    bool traced = false;
    double ms = 0;
    std::int64_t doneNs = 0;
    std::uint64_t hash = 0;
    std::size_t bytes = 0;
  };
  /// One client thread's ops and counters.
  struct Client {
    std::vector<std::pair<std::size_t, Op>> ops;
    std::int64_t stageHits = 0, stageMisses = 0, flowHits = 0;
    std::int64_t tracedOps = 0;
    std::map<std::string, double> passRewrites;
    double opsAfterOptimize = 0, bram36 = 0;
  };
  std::vector<Client> clients(threads);
  std::vector<Trace> traces(threads, Trace(config.trace));
  std::atomic<std::size_t> nextIndex{0};

  const std::int64_t start = nowNs();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(config.seconds * 1e9);
  parallelFor(static_cast<std::size_t>(threads), threads,
              [&](std::size_t t, int) {
    Client& client = clients[t];
    Trace& trace = traces[t];
    cfd::Session& session = *sessions[t];
    while (nowNs() < deadline) {
      const std::size_t index = nextIndex.fetch_add(1);
      const Kernel kernel = coldKernel(config.seed, index);
      Op op;
      // Traced runs alternate whole blocks, so both halves see the same
      // kernel mix and their difference is the tracing overhead.
      op.traced = config.trace && (index / kColdBlock) % 2 == 1;
      const std::int64_t t0 = nowNs();
      if (!op.traced) {
        cfd::Expected<cfd::CompileResult> compiled = session.compile(
            cfd::CompileRequest(kernel.source).materialize(cfd::Artifacts::CCode));
        op.ms = msSince(t0);
        if (compiled) {
          op.ok = true;
          op.hash = fnv1a(compiled->cCode());
          op.bytes = compiled->cCode().size();
          client.flowHits += compiled->cacheHit();
          for (Stage stage : kStages) {
            const cfd::StageProvenance provenance =
                compiled->flow().pipeline().provenance(stage);
            client.stageHits += provenance == cfd::StageProvenance::Cached;
            client.stageMisses += provenance == cfd::StageProvenance::Ran;
          }
        }
      } else {
        try {
          auto opSpan = trace.span("op", static_cast<std::int64_t>(index));
          // The benchmark drives the stages itself through a Pipeline
          // over the session's stage cache; Session::compile then adopts
          // all nine, so its self time is the session's own overhead.
          cfd::Pipeline pipeline(kernel.source, session.defaultOptions(),
                                 session.stageCache());
          for (Stage stage : kStages) {
            auto span = trace.span(spanOf(stage), static_cast<std::int64_t>(index));
            pipeline.require(stage);
          }
          std::optional<cfd::Expected<cfd::CompileResult>> compiled;
          {
            auto span = trace.span("core.session", static_cast<std::int64_t>(index));
            compiled.emplace(session.compile(cfd::CompileRequest(kernel.source)));
          }
          if (*compiled) {
            std::string c;
            {
              auto span = trace.span("codegen.emit_c", static_cast<std::int64_t>(index));
              c = (*compiled)->flow().cCode();
            }
            op.ok = true;
            op.hash = fnv1a(c);
            op.bytes = c.size();
          }
          const cfd::ir::OptimizeReport& report = pipeline.optimizeReport();
          for (const cfd::ir::PassResult& pass : report.aggregated())
            client.passRewrites[pass.name] += pass.rewrites;
          client.opsAfterOptimize += report.opsAfter;
          client.bram36 += pipeline.memoryPlan().totalBram36();
          ++client.tracedOps;
        } catch (const cfd::FlowError&) {
          op.ok = false;
        }
        op.ms = msSince(t0);
      }
      op.doneNs = nowNs();
      client.ops.emplace_back(index, op);
    }
  });
  const double rssMb = peakRssMb();
  sessions.clear();
  setups.finish(setup);

  // Every issued op completed; gather them in index order.
  std::vector<Op> ops(nextIndex.load());
  std::vector<std::string> families(ops.size());
  std::int64_t stageHits = 0, stageMisses = 0, flowHits = 0, tracedOps = 0;
  std::map<std::string, double> passRewrites;
  double opsAfterOptimize = 0, bram36 = 0;
  for (const Client& client : clients) {
    for (const auto& [index, op] : client.ops)
      ops[index] = op;
    stageHits += client.stageHits;
    stageMisses += client.stageMisses;
    flowHits += client.flowHits;
    tracedOps += client.tracedOps;
    for (const auto& [pass, rewrites] : client.passRewrites)
      passRewrites[pass] += rewrites;
    opsAfterOptimize += client.opsAfterOptimize;
    bram36 += client.bram36;
  }
  for (std::size_t i = 0; i < ops.size(); ++i)
    families[i] = coldKernel(config.seed, i).family;
  Trace trace(config.trace);
  for (const Trace& t : traces)
    trace.append(t);

  // Verification: every op's C against a hermetic compile of the same
  // kernel; the first blocks' reference C sizes give c_bytes.
  const std::size_t cBytesOps = 8 * kColdBlock;
  const std::size_t verifyCount = std::max(ops.size(), cBytesOps);
  std::vector<std::uint64_t> refHash(verifyCount);
  std::vector<std::size_t> refBytes(verifyCount);
  std::vector<std::unique_ptr<cfd::Session>> verifiers;
  for (int t = 0; t < config.workers; ++t)
    verifiers.push_back(std::make_unique<cfd::Session>());
  parallelFor(verifyCount, config.workers, [&](std::size_t i, int t) {
    try {
      const cfd::Flow flow =
          verifiers[t]->compileFlow(coldKernel(config.seed, i).source);
      const std::string c = flow.cCode();
      refHash[i] = fnv1a(c);
      refBytes[i] = c.size();
    } catch (const cfd::FlowError&) {
      refBytes[i] = 0;
    }
  });
  double cBytes = 0;
  for (std::size_t i = 0; i < cBytesOps; ++i)
    cBytes += static_cast<double>(refBytes[i]);

  Window window;
  std::vector<double> latencies, tracedMs, untracedMs;
  std::int64_t lastDoneNs = start;
  for (const Op& op : ops) {
    latencies.push_back(op.ms);
    (op.traced ? tracedMs : untracedMs).push_back(op.ms);
    lastDoneNs = std::max(lastDoneNs, op.doneNs);
  }
  window.add(static_cast<double>(lastDoneNs - start) / 1e9,
             static_cast<double>(ops.size()), latencies);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    ++result.attempted;
    if (!op.ok || op.hash != refHash[i] || op.bytes != refBytes[i])
      ++result.failed;
  }
  result.correct = result.failed == 0;

  if (!config.trace) {
    addEndToEnd(result, window, setups.median(), rssMb, cBytes);
    addPaperAnchor(result);
    return result;
  }

  // Per-layer metrics from the traced blocks.
  const double traced = static_cast<double>(tracedOps);
  addSelfTimes(result, trace, traced);
  result.layer["core.session_overhead_ms"] =
      ratio(trace.selfMillis()["core.session"], traced);
  for (const auto& [pass, rewrites] : passRewrites) {
    const std::string metric = "ir.pass." + pass + ".rewrites";
    if (result.layer.count(metric))
      result.layer[metric] = rewrites / traced;
  }
  result.layer["ir.ops_after_optimize"] = opsAfterOptimize / traced;
  result.layer["mem.bram36"] = bram36 / traced;
  const double untracedOps = static_cast<double>(ops.size()) - traced;
  result.layer["core.stage_hit_ratio"] =
      ratio(static_cast<double>(stageHits),
            static_cast<double>(stageHits + stageMisses));
  result.layer["core.flow_hit_ratio"] =
      ratio(static_cast<double>(flowHits), untracedOps);
  result.layer["trace.overhead_pct"] = overheadPct(tracedMs, untracedMs);

  // Stage shares per kernel family: each stage's self time over the
  // op's wall time.
  std::map<std::string, std::map<std::string, double>> familyMs;
  std::vector<double> childNs(trace.spans().size(), 0);
  for (const Span& span : trace.spans())
    if (span.parent >= 0)
      childNs[span.parent] += static_cast<double>(span.endNs - span.startNs);
  for (std::size_t i = 0; i < trace.spans().size(); ++i) {
    const Span& span = trace.spans()[i];
    const double selfMs =
        (static_cast<double>(span.endNs - span.startNs) - childNs[i]) / 1e6;
    const std::string& family = families[static_cast<std::size_t>(span.op)];
    const std::string name = span.parent < 0 ? "total" : span.name;
    const double ms =
        span.parent < 0 ? static_cast<double>(span.endNs - span.startNs) / 1e6
                        : selfMs;
    familyMs[family][name] += ms;
    familyMs["all"][name] += ms;
  }
  const auto share = [&](const std::string& family, const char* span) {
    return ratio(familyMs[family][span], familyMs[family]["total"]);
  };
  result.layer["sched.reschedule_share"] = share("all", "sched.reschedule");
  result.layer["mem.memory_plan_share"] = share("all", "mem.memory_plan");
  result.layer["sched.reschedule_share.helmholtz"] =
      share("helmholtz", "sched.reschedule");
  result.layer["sched.reschedule_share.chain"] = share("chain", "sched.reschedule");
  result.layer["mem.memory_plan_share.chain"] = share("chain", "mem.memory_plan");
  for (const auto& [family, spans] : familyMs) {
    std::string line = "stage shares " + family + ":";
    std::string top;
    double topShare = 0;
    for (const auto& [name, ms] : spans) {
      if (name == "total" || name == "op")
        continue;
      const double s = share(family, name.c_str());
      line += " " + name + "=" + fixed(s, 3);
      if (s > topShare)
        topShare = s, top = name;
    }
    result.notes.push_back(line + " (top: " + top + ")");
  }
  trace.writeJson(config.workDir + "/trace-compile_cold-" +
                  std::to_string(config.seed) + ".json");
  return result;
}

namespace {

// ---- validate ----

/// The inputs Flow::validate feeds: seeds 1, 2, ... in tensor order.
std::map<std::string, cfd::eval::DenseTensor>
validationInputs(const cfd::ir::Program& program) {
  std::map<std::string, cfd::eval::DenseTensor> values;
  std::uint64_t seed = 1;
  for (const auto& tensor : program.tensors())
    if (tensor.kind == cfd::ir::TensorKind::Input)
      values[tensor.name] = cfd::eval::makeTestInput(tensor.type.shape, seed++);
  return values;
}

/// max |reference output| of `flow` on the validation inputs.
double referenceScale(const cfd::Flow& flow) {
  std::map<std::string, cfd::eval::DenseTensor> values =
      validationInputs(flow.program());
  cfd::eval::evaluateReference(flow.ast(), values);
  double scale = 0;
  for (const auto& tensor : flow.program().tensors())
    if (tensor.kind == cfd::ir::TensorKind::Output)
      for (double x : values.at(tensor.name).data)
        scale = std::max(scale, std::abs(x));
  return scale > 0 ? scale : 1.0;
}

struct TracedValidation {
  double maxError = 0;
  cfd::eval::OpCounts counts;
};

/// Flow::validate's steps, each call into eval in its own span.
TracedValidation validateTraced(const cfd::Flow& flow, Trace& trace,
                                std::int64_t op) {
  auto validateSpan = trace.span("eval.validate", op);
  const cfd::ir::Program& program = flow.program();
  const cfd::sched::Schedule& schedule = flow.schedule();
  std::map<std::string, cfd::eval::DenseTensor> reference =
      validationInputs(program);
  cfd::eval::TensorStore store(program, schedule.layouts);
  for (const auto& tensor : program.tensors())
    if (tensor.kind == cfd::ir::TensorKind::Input)
      store.import(tensor.id, reference.at(tensor.name));
  TracedValidation out;
  {
    auto span = trace.span("eval.reference", op);
    cfd::eval::evaluateReference(flow.ast(), reference);
  }
  {
    auto span = trace.span("eval.execute", op);
    out.counts = cfd::eval::execute(schedule, store);
  }
  for (const auto& tensor : program.tensors())
    if (tensor.kind == cfd::ir::TensorKind::Output)
      out.maxError = std::max(
          out.maxError, cfd::eval::maxAbsDifference(store.exportTensor(tensor.id),
                                                    reference.at(tensor.name)));
  return out;
}

} // namespace

RunResult runValidate(const RunConfig& config) {
  RunResult result = makeResult();
  struct State {
    std::vector<Kernel> corpus;
    std::vector<double> scales;
    std::unique_ptr<cfd::Session> session;
  };
  const auto setup = [&] {
    State state;
    state.corpus = validateCorpus(config.seed);
    state.scales.resize(state.corpus.size());
    std::vector<std::unique_ptr<cfd::Session>> hermetic;
    for (int t = 0; t < config.workers; ++t)
      hermetic.push_back(std::make_unique<cfd::Session>());
    parallelFor(state.corpus.size(), config.workers, [&](std::size_t i, int t) {
      state.scales[i] =
          referenceScale(hermetic[t]->compileFlow(state.corpus[i].source));
    });
    state.session = std::make_unique<cfd::Session>();
    return state;
  };
  SetupTimes setups(config.seconds);
  auto [corpus, scales, session] = setups.time(setup);

  /// One client thread's ops and counters.
  struct Client {
    std::vector<double> latencies, tracedMs, untracedMs;
    std::int64_t doneNs = 0;
    std::int64_t attempted = 0, failed = 0, tracedOps = 0;
    double worstRelative = 0;
    cfd::eval::OpCounts tracedCounts;
  };
  const int threads = config.workers;
  std::vector<Client> clients(threads);
  std::vector<Trace> traces(threads, Trace(config.trace));
  std::atomic<std::size_t> nextIndex{0};

  const std::int64_t start = nowNs();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(config.seconds * 1e9);
  // One client per core, as in compile_cold; op i validates corpus
  // kernel i mod corpus size.
  parallelFor(static_cast<std::size_t>(threads), threads,
              [&](std::size_t t, int) {
    Client& client = clients[t];
    Trace& trace = traces[t];
    while (nowNs() < deadline) {
      const std::size_t index = nextIndex.fetch_add(1);
      const std::size_t slot = index % corpus.size();
      // Traced runs alternate whole corpus cycles.
      const bool traced = config.trace && (index / corpus.size()) % 2 == 1;
      ++client.attempted;
      bool ok = false;
      double maxError = 0;
      const std::int64_t t0 = nowNs();
      if (!traced) {
        cfd::Expected<cfd::CompileResult> compiled =
            session->compile(cfd::CompileRequest(corpus[slot].source));
        if (compiled) {
          maxError = compiled->flow().validate();
          ok = true;
        }
      } else {
        auto opSpan = trace.span("op", static_cast<std::int64_t>(index));
        std::optional<cfd::Expected<cfd::CompileResult>> compiled;
        {
          auto span = trace.span("core.compile", static_cast<std::int64_t>(index));
          compiled.emplace(session->compile(cfd::CompileRequest(corpus[slot].source)));
        }
        if (*compiled) {
          const TracedValidation run = validateTraced(
              (*compiled)->flow(), trace, static_cast<std::int64_t>(index));
          maxError = run.maxError;
          client.tracedCounts += run.counts;
          ++client.tracedOps;
          ok = true;
        }
      }
      const double ms = msSince(t0);
      client.doneNs = nowNs();
      client.latencies.push_back(ms);
      (traced ? client.tracedMs : client.untracedMs).push_back(ms);
      const double relative = maxError / scales[slot];
      client.worstRelative = std::max(client.worstRelative, relative);
      if (!ok || !(relative <= kRelativeTolerance))
        ++client.failed;
    }
  });
  const double rssMb = peakRssMb();
  session.reset();
  setups.finish(setup);

  Window window;
  std::vector<double> latencies, tracedMs, untracedMs;
  std::int64_t lastDoneNs = start, tracedOps = 0;
  double worstRelative = 0;
  cfd::eval::OpCounts tracedCounts;
  for (const Client& client : clients) {
    latencies.insert(latencies.end(), client.latencies.begin(),
                     client.latencies.end());
    tracedMs.insert(tracedMs.end(), client.tracedMs.begin(), client.tracedMs.end());
    untracedMs.insert(untracedMs.end(), client.untracedMs.begin(),
                      client.untracedMs.end());
    lastDoneNs = std::max(lastDoneNs, client.doneNs);
    result.attempted += client.attempted;
    result.failed += client.failed;
    tracedOps += client.tracedOps;
    worstRelative = std::max(worstRelative, client.worstRelative);
    tracedCounts += client.tracedCounts;
  }
  window.add(static_cast<double>(lastDoneNs - start) / 1e9,
             static_cast<double>(latencies.size()), latencies);
  Trace trace(config.trace);
  for (const Trace& t : traces)
    trace.append(t);
  result.correct = result.failed == 0;
  char worst[64];
  std::snprintf(worst, sizeof worst, "%.3g", worstRelative);
  result.notes.push_back("validate: worst relative error " +
                         std::string(worst) + " (tolerance 1e-12)");

  if (!config.trace) {
    double cBytes = 0;
    cfd::Session hermetic;
    for (const Kernel& kernel : corpus)
      cBytes += static_cast<double>(
          hermetic.compileFlow(kernel.source).cCode().size());
    addEndToEnd(result, window, setups.median(), rssMb, cBytes);
    addPaperAnchor(result);
    return result;
  }

  const double traced = static_cast<double>(tracedOps);
  addSelfTimes(result, trace, traced);
  std::map<std::string, double> self = trace.selfMillis();
  result.layer["eval.reference_share"] =
      ratio(self["eval.reference"], trace.rootMillis());
  const double accesses =
      static_cast<double>(tracedCounts.loads + tracedCounts.stores);
  result.layer["eval.execute_ns_per_access"] =
      ratio(self["eval.execute"] * 1e6, accesses);
  result.layer["eval.loads"] =
      ratio(static_cast<double>(tracedCounts.loads), traced);
  result.layer["eval.flops"] =
      ratio(static_cast<double>(tracedCounts.flops()), traced);
  result.layer["trace.overhead_pct"] = overheadPct(tracedMs, untracedMs);
  trace.writeJson(config.workDir + "/trace-validate-" +
                  std::to_string(config.seed) + ".json");
  return result;
}

namespace {

// ---- sweep_explore ----

/// The row fields a sweep must reproduce exactly at any worker count.
struct RowSummary {
  bool feasible = false;
  int m = 0;
  int k = 0;
  int bram = 0;
  double kernelUs = 0;
  double simUs = 0;
  std::string error;
  bool operator==(const RowSummary&) const = default;
};

RowSummary summarize(const cfd::ExplorationRow& row) {
  RowSummary summary;
  summary.feasible = row.ok();
  summary.error = row.error;
  if (row.ok()) {
    summary.m = row.flow->systemDesign().m;
    summary.k = row.flow->systemDesign().k;
    summary.bram = row.flow->systemDesign().plmBram36PerUnit;
    summary.kernelUs = row.flow->kernelReport().timeUs();
    if (row.simulated)
      summary.simUs = row.sim.totalTimeUs();
  }
  return summary;
}

/// A space's 1-worker reference sweep.
struct SpaceReference {
  std::vector<RowSummary> rows;
  double wallMs = 0;
  std::int64_t stageMisses = 0;
  std::size_t bestCBytes = 0; ///< C of the fastest feasible design
};

SpaceReference referenceSweep(const SweepSpace& space) {
  cfd::Session session(sessionWithWorkers(1));
  const std::int64_t t0 = nowNs();
  cfd::Expected<cfd::SweepResult> sweep =
      session.sweep(sweepRequestFor(space, 1, true));
  SpaceReference reference;
  reference.wallMs = msSince(t0);
  if (!sweep)
    throw std::runtime_error(space.name + " sweep failed: " + sweep.errorText());
  reference.stageMisses = countersOf(session).stageMisses;
  const cfd::ExplorationRow* best = nullptr;
  for (const cfd::ExplorationRow& row : sweep->rows()) {
    reference.rows.push_back(summarize(row));
    if (row.ok() && (best == nullptr || row.flow->kernelReport().timeUs() <
                                            best->flow->kernelReport().timeUs()))
      best = &row;
  }
  if (best != nullptr)
    reference.bestCBytes = best->flow->cCode().size();
  return reference;
}

} // namespace

RunResult runSweepExplore(const RunConfig& config) {
  RunResult result = makeResult();
  struct State {
    std::vector<SweepSpace> spaces;
    std::vector<SpaceReference> references;
  };
  const auto setup = [&] {
    State state;
    state.spaces = sweepSpaces(config.seed);
    for (const SweepSpace& space : state.spaces)
      state.references.push_back(referenceSweep(space));
    return state;
  };
  SetupTimes setups(config.seconds);
  const auto [spaces, references] = setups.time(setup);

  Trace trace(config.trace);
  Window window;
  std::vector<double> latencies, tracedCycleMs, untracedCycleMs;
  std::map<Stage, double> stageMs;
  CacheCounters tracedCounters;
  std::int64_t tracedPoints = 0, tracedRows = 0, tracedFlowHits = 0;
  std::int64_t redundantRuns = 0, tracedSweeps = 0;
  double referenceWallMs = 0, untracedWallMs = 0;
  double cycleMs = 0, cyclePoints = 0;

  const std::int64_t start = nowNs();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(config.seconds * 1e9);
  std::int64_t cycleStart = start;
  for (std::size_t index = 0; nowNs() < deadline; ++index) {
    const std::size_t which = sweepAt(index);
    const SweepSpace& space = spaces[which];
    const SpaceReference& reference = references[which];
    const bool traced = config.trace && (index / 4) % 2 == 1;
    std::vector<std::int64_t> doneNs;
    std::mutex doneMutex;
    const std::int64_t t0 = nowNs();
    double sweepMs = 0;
    {
      auto opSpan = trace.span("op", static_cast<std::int64_t>(index));
      // A fresh session per sweep, as every `cfdc --sweep --jobs=N` run.
      cfd::Session session(sessionWithWorkers(config.workers));
      cfd::SweepRequest request = sweepRequestFor(space, config.workers, !traced);
      request.onProgress([&](std::size_t, std::size_t) {
        const std::int64_t now = nowNs();
        std::lock_guard<std::mutex> lock(doneMutex);
        doneNs.push_back(now);
      });
      std::optional<cfd::Expected<cfd::SweepResult>> sweep;
      {
        auto span = trace.span("core.sweep", static_cast<std::int64_t>(index));
        sweep.emplace(session.sweep(request));
      }
      sweepMs = msSince(t0);
      if (!*sweep) {
        result.attempted += static_cast<std::int64_t>(space.points());
        result.failed += static_cast<std::int64_t>(space.points());
        continue;
      }
      const std::vector<cfd::ExplorationRow>& rows = (*sweep)->rows();
      for (std::size_t i = 0; i < reference.rows.size(); ++i) {
        ++result.attempted;
        if (i >= rows.size()) {
          ++result.failed;
          continue;
        }
        RowSummary summary = summarize(rows[i]);
        if (traced && rows[i].ok() && space.simulateElements > 0) {
          // Traced sweeps leave simulation to the benchmark, so the
          // platform model gets a span of its own.
          auto span = trace.span("sim.simulate", static_cast<std::int64_t>(index));
          cfd::sim::SimOptions options;
          options.numElements = space.simulateElements;
          summary.simUs = rows[i].flow->simulate(options).totalTimeUs();
        }
        if (!(summary == reference.rows[i]))
          ++result.failed;
      }
      if (traced) {
        const CacheCounters counters = countersOf(session);
        tracedCounters.stageHits += counters.stageHits;
        tracedCounters.stageMisses += counters.stageMisses;
        redundantRuns += counters.stageMisses - reference.stageMisses;
        ++tracedSweeps;
        for (const cfd::ExplorationRow& row : rows) {
          ++tracedRows;
          tracedFlowHits += row.cacheHit;
          if (row.cacheHit || !row.flow)
            continue;
          for (Stage stage : kStages)
            if (row.flow->pipeline().provenance(stage) ==
                cfd::StageProvenance::Ran)
              stageMs[stage] += row.flow->pipeline().stageMillis(stage);
        }
        tracedPoints += static_cast<std::int64_t>(rows.size());
      } else if (config.trace) {
        referenceWallMs += reference.wallMs;
        untracedWallMs += sweepMs;
      }
    }
    for (std::int64_t ns : doneNs)
      latencies.push_back(static_cast<double>(ns - t0) / 1e6);
    cycleMs += msSince(t0);
    cyclePoints += static_cast<double>(space.points());
    if (index % 4 == 3) {
      (traced ? tracedCycleMs : untracedCycleMs).push_back(cycleMs);
      const std::int64_t now = nowNs();
      window.add(static_cast<double>(now - cycleStart) / 1e9, cyclePoints,
                 latencies);
      latencies.clear();
      setups.sampleIfDue(now - start, setup);
      cycleStart = nowNs();
      cycleMs = cyclePoints = 0;
    }
  }
  setups.finish(setup);
  result.correct = result.failed == 0;

  if (!config.trace) {
    double cBytes = 0;
    for (const SpaceReference& reference : references)
      cBytes += static_cast<double>(reference.bestCBytes);
    addEndToEnd(result, window, setups.median(), peakRssMb(), cBytes);
    addPaperAnchor(result);
    return result;
  }

  const double points = static_cast<double>(tracedPoints);
  for (Stage stage : kStages)
    result.layer[std::string(spanOf(stage)) + "_ms"] = ratio(stageMs[stage], points);
  result.layer["sim.simulate_ms"] =
      ratio(trace.selfMillis()["sim.simulate"], points);
  result.layer["core.stage_hit_ratio"] =
      ratio(static_cast<double>(tracedCounters.stageHits),
            static_cast<double>(tracedCounters.stageHits +
                                tracedCounters.stageMisses));
  result.layer["core.flow_hit_ratio"] =
      ratio(static_cast<double>(tracedFlowHits), static_cast<double>(tracedRows));
  result.layer["core.redundant_stage_runs"] =
      ratio(static_cast<double>(redundantRuns), static_cast<double>(tracedSweeps));
  result.layer["core.sweep_speedup"] = ratio(referenceWallMs, untracedWallMs);
  result.layer["trace.overhead_pct"] =
      overheadPct(tracedCycleMs, untracedCycleMs);
  for (std::size_t i = 0; i < spaces.size(); ++i)
    result.notes.push_back(spaces[i].name + ": " +
                           std::to_string(spaces[i].points()) +
                           " points, 1-worker reference " +
                           fixed(references[i].wallMs, 1) + " ms, " +
                           std::to_string(references[i].stageMisses) +
                           " stage misses");
  trace.writeJson(config.workDir + "/trace-sweep_explore-" +
                  std::to_string(config.seed) + ".json");
  return result;
}

namespace {

// ---- serve_mixed ----

/// A `cfdc --serve` child process.
class Daemon {
public:
  Daemon(const RunConfig& config, const std::string& socketPath)
      : socketPath_(socketPath) {
    ::unlink(socketPath_.c_str());
    const std::string log = config.workDir + "/daemon.log";
    const std::string socketArg = "--socket=" + socketPath_;
    const std::string jobsArg = "--jobs=" + std::to_string(config.workers);
    pid_ = ::fork();
    if (pid_ < 0)
      throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      const char* argv[] = {config.cfdc.c_str(), "--serve", socketArg.c_str(),
                            jobsArg.c_str(), nullptr};
      ::execv(config.cfdc.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    // Ready once a client can connect.
    const std::int64_t deadline = nowNs() + 20'000'000'000;
    while (!cfd::serve::Client::connect(socketPath_).ok()) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited during start-up; see " + log);
      }
      if (nowNs() > deadline) {
        kill();
        throw std::runtime_error("daemon did not start; see " + log);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid() const { return pid_; }

  /// Asks the daemon to drain and exit; kills it if it has not exited
  /// within ten seconds. Waits for it in every case.
  void stop() {
    if (pid_ <= 0)
      return;
    if (cfd::Expected<cfd::serve::Client> client =
            cfd::serve::Client::connect(socketPath_)) {
      cfd::serve::Request request;
      request.kind = cfd::serve::RequestKind::Shutdown;
      request.id = client->nextId();
      (void)client->call(request);
    }
    const std::int64_t deadline = nowNs() + 10'000'000'000;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (nowNs() > deadline) {
        kill();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    ::unlink(socketPath_.c_str());
  }

private:
  void kill() {
    int status = 0;
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    ::unlink(socketPath_.c_str());
  }

  std::string socketPath_;
  pid_t pid_ = -1;
};

cfd::serve::Request compileRequest(cfd::serve::Client& client,
                                   const Kernel& kernel,
                                   const Params& params) {
  cfd::serve::Request request;
  request.kind = cfd::serve::RequestKind::Compile;
  request.id = client.nextId();
  request.source = kernel.source;
  request.params = params;
  request.artifacts = {"c"};
  return request;
}

/// The daemon's session counters, via the `status` RPC.
CacheCounters daemonCounters(cfd::serve::Client& client) {
  cfd::serve::Request request;
  request.kind = cfd::serve::RequestKind::Status;
  request.id = client.nextId();
  cfd::Expected<cfd::serve::Response> response = client.call(request);
  if (!response || !response->ok)
    throw std::runtime_error("status request failed");
  return countersOfStatus(response->result);
}

} // namespace

RunResult runServeMixed(const RunConfig& config) {
  RunResult result = makeResult();
  const std::string socketPath = config.workDir + "/serve.sock";
  struct State {
    std::unique_ptr<Daemon> daemon;
    std::vector<cfd::serve::Client> clients;
    std::vector<Kernel> hot;
  };
  const auto setup = [&] {
    State state;
    state.daemon = std::make_unique<Daemon>(config, socketPath);
    state.hot = serveHotSet(config.seed);
    for (int t = 0; t < config.workers; ++t) {
      cfd::Expected<cfd::serve::Client> client =
          cfd::serve::Client::connect(socketPath);
      if (!client)
        throw std::runtime_error("connect failed: " + client.errorText());
      state.clients.push_back(std::move(*client));
    }
    // Warm the hot set so hot repeats are flow hits.
    cfd::serve::Client& client = state.clients[0];
    for (const Kernel& kernel : state.hot) {
      cfd::Expected<cfd::serve::Response> response =
          client.call(compileRequest(client, kernel, {}));
      if (!response || !response->ok)
        throw std::runtime_error("hot-set warm-up failed");
    }
    return state;
  };
  // A set-up during the window would start a second daemon beside the
  // one under load, so the extra set-ups all follow the window.
  SetupTimes setups(config.seconds);
  auto [daemon, clients, hot] = setups.time(setup);

  struct Reply {
    std::size_t index = 0;
    bool traced = false;
    bool ok = false;
    std::int64_t doneNs = 0;
    double rttMs = 0;
    double serverMs = 0;
    bool cacheHit = false;
    std::uint64_t hash = 0;
    std::size_t bytes = 0;
  };
  // One connection per core. With fewer, vCPUs idle between requests,
  // and waking one costs the host's scheduling delay: on a 4-vCPU VM,
  // 2 connections moved throughput 35% between runs of one seed, 4
  // moved it 2%.
  const int threads = config.workers;
  std::vector<std::vector<Reply>> replies(threads);
  std::vector<Trace> traces(threads, Trace(config.trace));
  std::vector<std::int64_t> protocolErrors(threads, 0);
  std::atomic<std::size_t> nextIndex{0};
  const CacheCounters before = daemonCounters(clients[0]);

  const std::int64_t start = nowNs();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(config.seconds * 1e9);
  // One thread per connection.
  parallelFor(static_cast<std::size_t>(threads), threads,
              [&](std::size_t c, int) {
      cfd::serve::Client& client = clients[c];
      while (true) {
        const std::int64_t issued = nowNs();
        if (issued >= deadline)
          break;
        const std::size_t index = nextIndex.fetch_add(1);
        const ServeRequest mix = serveRequest(config.seed, index, hot);
        Reply reply;
        reply.index = index;
        // Traced runs alternate half-second slices.
        reply.traced = config.trace && ((issued - start) / 500'000'000) % 2 == 1;
        const cfd::serve::Request request =
            compileRequest(client, mix.kernel, mix.params);
        const std::int64_t t0 = nowNs();
        std::optional<cfd::Expected<cfd::serve::Response>> response;
        if (reply.traced) {
          auto opSpan = traces[c].span("op", static_cast<std::int64_t>(index));
          auto span = traces[c].span("serve.call", static_cast<std::int64_t>(index));
          response.emplace(client.call(request));
        } else {
          response.emplace(client.call(request));
        }
        reply.doneNs = nowNs();
        reply.rttMs = static_cast<double>(reply.doneNs - t0) / 1e6;
        if (!*response || (*response)->id != request.id ||
            (*response)->kind != cfd::serve::RequestKind::Compile) {
          ++protocolErrors[c];
        } else if ((*response)->ok) {
          try {
            const cfd::json::Value& body = (*response)->result;
            reply.serverMs = body.at("compile_ms").asDouble();
            reply.cacheHit = body.at("cache_hit").asBool();
            const std::string& c = body.at("artifacts").at("c").asString();
            reply.hash = fnv1a(c);
            reply.bytes = c.size();
            reply.ok = true;
          } catch (const std::exception&) {
            ++protocolErrors[c]; // a field missing or of the wrong type
          }
        }
        replies[c].push_back(reply);
      }
      // A fence: one more compile, answered through the same FIFO
      // queue as every compile on this connection (status replies are
      // sent inline and could overtake it). An answer that arrives
      // before the fence's own, or is left buffered, answers an id a
      // second time.
      const cfd::serve::Request fence = compileRequest(client, hot[0], {});
      const cfd::Expected<cfd::serve::Response> fenced = client.call(fence);
      if (!fenced || fenced->id != fence.id || client.hasBufferedLine())
        ++protocolErrors[c];
    });
  const CacheCounters after = daemonCounters(clients[0]);
  const double rssMb = peakRssMb(daemon->pid());
  clients.clear();
  daemon.reset();
  setups.finish(setup);

  // Verification: every reply's C against an in-process compile of the
  // same (kernel, late options). Missing, misaddressed and repeated
  // answers were counted as protocol errors above.
  std::vector<Reply> all;
  for (const std::vector<Reply>& list : replies)
    all.insert(all.end(), list.begin(), list.end());
  std::sort(all.begin(), all.end(),
            [](const Reply& a, const Reply& b) { return a.index < b.index; });
  std::map<std::string, std::size_t> keyOf;
  std::vector<ServeRequest> distinct;
  std::vector<std::size_t> replyKey(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    ServeRequest mix = serveRequest(config.seed, all[i].index, hot);
    std::string key = mix.kernel.source;
    for (const auto& [name, value] : mix.params)
      key += "\n" + name + "=" + value;
    auto [it, inserted] = keyOf.emplace(key, distinct.size());
    if (inserted)
      distinct.push_back(std::move(mix));
    replyKey[i] = it->second;
  }
  std::vector<std::uint64_t> refHash(distinct.size());
  std::vector<std::size_t> refBytes(distinct.size());
  std::vector<std::unique_ptr<cfd::Session>> verifiers;
  for (int t = 0; t < config.workers; ++t)
    verifiers.push_back(std::make_unique<cfd::Session>());
  parallelFor(distinct.size(), config.workers, [&](std::size_t i, int t) {
    try {
      cfd::FlowOptions options;
      for (const auto& [name, value] : distinct[i].params)
        cfd::applyTuneParam(options, name, value);
      const std::string c =
          verifiers[t]->compileFlow(distinct[i].kernel.source, options).cCode();
      refHash[i] = fnv1a(c);
      refBytes[i] = c.size();
    } catch (const cfd::FlowError&) {
      refBytes[i] = 0;
    }
  });

  std::int64_t protocol = 0;
  for (std::int64_t errors : protocolErrors)
    protocol += errors;
  std::vector<double> tracedRtt, untracedRtt, tracedServer, tracedOverhead;
  std::int64_t tracedHits = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Reply& reply = all[i];
    ++result.attempted;
    if (!reply.ok || reply.hash != refHash[replyKey[i]] ||
        reply.bytes != refBytes[replyKey[i]])
      ++result.failed;
    (reply.traced ? tracedRtt : untracedRtt).push_back(reply.rttMs);
    if (reply.traced) {
      tracedServer.push_back(reply.serverMs);
      tracedOverhead.push_back(reply.rttMs - reply.serverMs);
      tracedHits += reply.cacheHit;
    }
  }
  result.failed = std::min(result.attempted, result.failed + protocol);
  result.correct = result.failed == 0;

  if (!config.trace) {
    double cBytes = 0;
    cfd::Session hermetic;
    for (const Kernel& kernel : hot)
      cBytes += static_cast<double>(hermetic.compileFlow(kernel.source).cCode().size());
    std::int64_t lastDoneNs = start;
    std::vector<double> rttMs;
    for (const Reply& reply : all) {
      lastDoneNs = std::max(lastDoneNs, reply.doneNs);
      rttMs.push_back(reply.rttMs);
    }
    Window window;
    window.add(static_cast<double>(lastDoneNs - start) / 1e9,
               static_cast<double>(all.size()), rttMs);
    addEndToEnd(result, window, setups.median(), rssMb, cBytes);
    addPaperAnchor(result);
    return result;
  }

  Trace trace(true);
  for (const Trace& t : traces)
    trace.append(t);
  result.layer["serve.rtt_ms_p50"] = median(tracedRtt);
  result.layer["serve.server_compile_ms_p50"] = median(tracedServer);
  result.layer["serve.overhead_ms_p50"] = median(tracedOverhead);
  result.layer["serve.cache_hit_ratio"] =
      ratio(static_cast<double>(tracedHits), static_cast<double>(tracedRtt.size()));
  result.layer["serve.protocol_errors"] = static_cast<double>(protocol);
  const double stageHits = static_cast<double>(after.stageHits - before.stageHits);
  const double stageMisses =
      static_cast<double>(after.stageMisses - before.stageMisses);
  const double flowHits = static_cast<double>(after.flowHits - before.flowHits);
  const double flowMisses =
      static_cast<double>(after.flowMisses - before.flowMisses);
  result.layer["core.stage_hit_ratio"] = ratio(stageHits, stageHits + stageMisses);
  result.layer["core.flow_hit_ratio"] = ratio(flowHits, flowHits + flowMisses);
  result.layer["trace.overhead_pct"] = overheadPct(tracedRtt, untracedRtt);
  trace.writeJson(config.workDir + "/trace-serve_mixed-" +
                  std::to_string(config.seed) + ".json");
  return result;
}

} // namespace perfbench
