// The cfdc command line, driven as a user runs it: `cfdc --validate`
// judges the schedule by its error relative to the output scale, and
// `cfdc --sweep --emit=json` writes the same report bytes at any --jobs.
#include "core/Flow.h"
#include "eval/Evaluator.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

namespace cfd {
namespace {

namespace fs = std::filesystem;

struct CliRun {
  int exitCode = -1;
  std::string out;
};

/// Runs `cfdc <flags> <file holding source>` and captures its stdout.
CliRun runCfdc(const std::string& flags, const std::string& source) {
  const fs::path file = fs::temp_directory_path() /
                        ("cfd_cli_" + std::to_string(::getpid()) + ".cfd");
  std::ofstream(file) << source;
  const std::string command = "'" + std::string(CFDC_PATH) + "' " + flags +
                              " '" + file.string() + "' 2>/dev/null";
  CliRun run;
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  if (pipe == nullptr)
    return run;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
    run.out.append(buffer, n);
  const int status = ::pclose(pipe);
  run.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  fs::remove(file);
  return run;
}

TEST(CfdcValidate, DeepChainPassesOnRelativeError) {
  // A depth-40 chain at extent 11 reaches values near 4e35, so its
  // absolute max |error| is ~9e20 while the relative error is ~2e-15.
  const CliRun run =
      runCfdc("--validate -o /dev/null", test::chainSource(40, 11));
  EXPECT_EQ(run.exitCode, 0) << run.out;
  EXPECT_NE(run.out.find("validation max |error| = "), std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("relative error = "), std::string::npos) << run.out;
}

TEST(CfdcValidate, WrongScheduleFails) {
  // cfdc exits 1 exactly when Validation::passed() is false. A schedule
  // whose read of S is transposed computes a different operator, and
  // must fail that check at every output scale.
  for (const std::string& source :
       {test::chainSource(2, 5), test::chainSource(40, 5)}) {
    const Flow flow = Flow::compile(source);
    sched::Schedule wrong = flow.schedule();
    bool transposed = false;
    for (auto& stmt : wrong.statements)
      for (auto& read : stmt.reads)
        if (!transposed && flow.program().tensor(read.tensor).name == "S") {
          std::vector<poly::AffineExpr> results = read.map.results();
          std::swap(results[0], results[1]);
          read.map = poly::AffineMap(read.map.numDims(), std::move(results));
          transposed = true;
        }
    ASSERT_TRUE(transposed);
    EXPECT_TRUE(eval::validate(flow.ast(), flow.schedule()).passed());
    const eval::Validation check = eval::validate(flow.ast(), wrong);
    EXPECT_FALSE(check.passed()) << check.relativeError;
  }
}

/// The statement of `schedule` that writes tensor `name`.
sched::ScheduledStatement& writerOf(const Flow& flow, sched::Schedule& schedule,
                                    const std::string& name) {
  for (auto& stmt : schedule.statements)
    if (flow.program().tensor(stmt.write.tensor).name == name)
      return stmt;
  ADD_FAILURE() << "no statement writes " << name;
  return schedule.statements.front();
}

TEST(CfdcValidate, NanErrorFails) {
  // The interpreter writes NaN into c where the reference is finite:
  // the NaN must reach maxError and relativeError, not vanish in a max.
  const Flow flow = Flow::compile("var input a : [3]\nvar input b : [3]\n"
                                  "var output c : [3]\nc = a + b\n");
  sched::Schedule wrong = flow.schedule();
  sched::ScheduledStatement& stmt = writerOf(flow, wrong, "c");
  stmt.kind = ir::OpKind::Fill;
  stmt.scalar = std::numeric_limits<double>::quiet_NaN();
  const eval::Validation check = eval::validate(flow.ast(), wrong);
  EXPECT_TRUE(std::isnan(check.maxError));
  EXPECT_TRUE(std::isnan(check.relativeError));
  EXPECT_FALSE(check.passed());

  // A NaN after finite differences is not overwritten by them either.
  eval::DenseTensor got = eval::DenseTensor::zeros({3});
  got.data = {0.0, std::numeric_limits<double>::quiet_NaN(), 5.0};
  EXPECT_TRUE(std::isnan(
      eval::maxAbsDifference(got, eval::DenseTensor::zeros({3}))));
}

TEST(CfdcValidate, EachOutputIsJudgedOnItsOwnScale) {
  // v is a depth-40 chain reaching ~4e35; w = S + S stays below 2. A
  // schedule that zeroes w is wrong by up to 2, which is tiny against
  // v's scale but not against w's own, so the check must fail.
  const Flow flow = Flow::compile("var output w : [11 11]\n" +
                                  test::chainSource(40, 11) + "w = S + S\n");
  const eval::Validation right = eval::validate(flow.ast(), flow.schedule());
  EXPECT_GT(right.maxReference, 1e30);
  EXPECT_TRUE(right.passed()) << right.relativeError;

  sched::Schedule wrong = flow.schedule();
  sched::ScheduledStatement& stmt = writerOf(flow, wrong, "w");
  stmt.kind = ir::OpKind::Fill;
  stmt.scalar = 0.0;
  const eval::Validation check = eval::validate(flow.ast(), wrong);
  EXPECT_GT(check.maxError, 0.5);
  EXPECT_LT(check.maxError / check.maxReference, eval::Validation::kTolerance);
  EXPECT_FALSE(check.passed()) << check.relativeError;
}

/// `cfd-sweep-v1` for unroll={1,2} x m={2,64} on the Inverse Helmholtz
/// kernel: two feasible rows, two m=64 rows refused by Eq. 3, and a
/// Pareto frontier (kernel_us vs m * bram_per_plm) of both feasible rows.
constexpr const char* kSweepReportGolden = R"({
  "schema": "cfd-sweep-v1",
  "points": 4,
  "rows": [
    {
      "index": 0,
      "label": "unroll=1 m=2",
      "feasible": true,
      "m": 2,
      "k": 2,
      "bram_per_plm": 16,
      "kernel_us": 486.445
    },
    {
      "index": 1,
      "label": "unroll=1 m=64",
      "feasible": false,
      "error": "requested system violates Eq. 3: needs 295,820 LUT, 200,728 FF, 960 DSP, 1024 BRAM36"
    },
    {
      "index": 2,
      "label": "unroll=2 m=2",
      "feasible": true,
      "m": 2,
      "k": 2,
      "bram_per_plm": 22,
      "kernel_us": 243.57
    },
    {
      "index": 3,
      "label": "unroll=2 m=64",
      "feasible": false,
      "error": "requested system violates Eq. 3: needs 409,612 LUT, 353,432 FF, 1856 DSP, 1408 BRAM36"
    }
  ],
  "frontier": [
    "unroll=1 m=2",
    "unroll=2 m=2"
  ]
}
)";

TEST(CfdcSweep, JsonReportIsGoldenAtAnyJobCount) {
  for (const char* jobs : {"--jobs=1", "--jobs=4"}) {
    const CliRun run =
        runCfdc(std::string("--sweep=unroll=1,2 --sweep=m=2,64 --emit=json ") +
                    jobs,
                test::kInverseHelmholtz);
    EXPECT_EQ(run.exitCode, 0) << jobs;
    EXPECT_EQ(run.out, kSweepReportGolden) << jobs;
  }
}

TEST(CfdcSweep, MultiProcessOptionsAreUnknown) {
  // Sweeps run in one process; the old worker-process options are
  // refused as unknown (exit 2) rather than silently ignored.
  for (const char* flag : {"--distribute=2", "--workers=a.sock"}) {
    const CliRun run = runCfdc(std::string("--sweep=unroll=1,2 ") + flag,
                               test::kInverseHelmholtz);
    EXPECT_EQ(run.exitCode, 2) << flag;
    EXPECT_EQ(run.out, "") << flag;
  }
}

} // namespace
} // namespace cfd
