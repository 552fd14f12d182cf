#include "core/Flow.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace cfd {
namespace {

TEST(FlowTest, CompilesFig1EndToEnd) {
  const Flow flow = Flow::compile(test::kInverseHelmholtz);
  EXPECT_EQ(flow.program().tensors().size(), 10u);
  EXPECT_EQ(flow.schedule().statements.size(), 7u);
  EXPECT_EQ(flow.systemDesign().m, 16);
  EXPECT_LE(flow.validate(), 1e-8);
}

TEST(FlowTest, NineLinesOfDslProduceTheWholeSystem) {
  // The paper's closing point: "all results have been achieved by
  // writing only 9 lines of DSL". Count the non-empty source lines and
  // check every artifact materializes.
  int lines = 0;
  std::istringstream source(test::kInverseHelmholtz);
  std::string line;
  while (std::getline(source, line))
    if (!line.empty())
      ++lines;
  EXPECT_EQ(lines, 9);

  const Flow flow = Flow::compile(test::kInverseHelmholtz);
  EXPECT_FALSE(flow.cCode().empty());
  EXPECT_FALSE(flow.mnemosyneConfig().empty());
  EXPECT_FALSE(flow.hostCode().empty());
  EXPECT_FALSE(flow.compatibilityDot().empty());
}

TEST(FlowTest, InvalidSourceThrows) {
  EXPECT_THROW(Flow::compile("var output v : [3]\nv = missing"),
               FlowError);
  EXPECT_THROW(Flow::compile("not a program"), FlowError);
}

TEST(FlowTest, ValidateIsDeterministicPerSeed) {
  const Flow flow = Flow::compile(test::kInverseHelmholtz);
  EXPECT_EQ(flow.validate(7), flow.validate(7));
}

TEST(FlowTest, ConcurrentValidationOfOneFlowAgrees) {
  // A Flow is safe to read from many threads; the evaluator keeps its
  // lowered accesses per call, so four threads validating one Flow at
  // once must each reproduce the single-threaded results bit for bit.
  const Flow flow = Flow::compile(test::inverseHelmholtzSource(7));
  const double expectedError = flow.validate(3);
  const eval::OpCounts expectedCounts =
      flow.softwareCounts(sched::ScheduleObjective::Hardware);
  constexpr int kThreads = 4;
  std::vector<double> errors(kThreads);
  std::vector<eval::OpCounts> counts(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      errors[static_cast<std::size_t>(t)] = flow.validate(3);
      counts[static_cast<std::size_t>(t)] =
          flow.softwareCounts(sched::ScheduleObjective::Hardware);
    });
  for (auto& thread : threads)
    thread.join();
  for (int t = 0; t < kThreads; ++t) {
    const eval::OpCounts& c = counts[static_cast<std::size_t>(t)];
    EXPECT_EQ(errors[static_cast<std::size_t>(t)], expectedError);
    EXPECT_EQ(c.fmul, expectedCounts.fmul);
    EXPECT_EQ(c.fadd, expectedCounts.fadd);
    EXPECT_EQ(c.loads, expectedCounts.loads);
    EXPECT_EQ(c.stores, expectedCounts.stores);
    EXPECT_EQ(c.loopIterations, expectedCounts.loopIterations);
  }
}

TEST(FlowTest, SoftwareCountsDifferByObjective) {
  const Flow flow = Flow::compile(test::kInverseHelmholtz);
  const eval::OpCounts sw =
      flow.softwareCounts(sched::ScheduleObjective::Software);
  const eval::OpCounts hw =
      flow.softwareCounts(sched::ScheduleObjective::Hardware);
  // Same arithmetic, different memory traffic.
  EXPECT_EQ(sw.fmul, hw.fmul);
  EXPECT_EQ(sw.fadd, hw.fadd);
  EXPECT_LT(sw.stores, hw.stores);
}

TEST(FlowTest, OptionsReachAllStages) {
  FlowOptions options;
  options.memory.enableSharing = false;
  options.system.memories = 4;
  options.system.kernels = 4;
  options.emitter.functionName = "my_kernel";
  const Flow flow = Flow::compile(test::kInverseHelmholtz, options);
  EXPECT_EQ(flow.systemDesign().m, 4);
  EXPECT_EQ(flow.memoryPlan().buffers.size(), 10u);
  EXPECT_NE(flow.kernelPrototype().find("my_kernel"), std::string::npos);
}

TEST(FlowTest, WorksForInterpolationOperator) {
  const Flow flow = Flow::compile(test::kInterpolation);
  EXPECT_LE(flow.validate(), 1e-9);
  EXPECT_GE(flow.systemDesign().m, 8);
  // Rectangular factor: output PLM is 13^3.
  const ir::Tensor* v = flow.program().findTensor("v");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->type.numElements(), 13 * 13 * 13);
}

TEST(FlowTest, EntryWiseProgramCompiles) {
  const Flow flow = Flow::compile(test::kEntryWiseChain);
  EXPECT_LE(flow.validate(), 1e-9);
  EXPECT_GE(flow.systemDesign().m, 1);
}

// Paper headline regression (abstract): memory sharing doubles the
// number of parallel kernels and lifts the ARM speedup from ~7x (in
// Fig. 9 terms) to ~12.6x total.
TEST(FlowTest, HeadlineResultReproduces) {
  FlowOptions noSharing;
  noSharing.memory.enableSharing = false;
  const Flow without = Flow::compile(test::kInverseHelmholtz, noSharing);
  const Flow with = Flow::compile(test::kInverseHelmholtz);
  EXPECT_EQ(without.systemDesign().m * 2, with.systemDesign().m);

  const auto base = Flow::compile(test::kInverseHelmholtz,
                                  [] {
                                    FlowOptions o;
                                    o.system.memories = 1;
                                    o.system.kernels = 1;
                                    return o;
                                  }())
                        .simulate({.numElements = 50000});
  const auto best = with.simulate({.numElements = 50000});
  const double totalSpeedup = base.totalTimeUs() / best.totalTimeUs();
  EXPECT_NEAR(totalSpeedup, 12.58, 12.58 * 0.05);
}

} // namespace
} // namespace cfd
