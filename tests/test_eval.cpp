#include "core/Flow.h"
#include "dsl/Parser.h"
#include "eval/Evaluator.h"
#include "ir/Lowering.h"
#include "sched/Reschedule.h"
#include "support/Hash.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

namespace cfd::eval {
namespace {

constexpr double kTolerance = 1e-9;

struct Pipeline {
  dsl::Program ast;
  std::unique_ptr<ir::Program> program;
  sched::Schedule schedule;
};

Pipeline build(const std::string& source,
               sched::LayoutOptions layoutOptions = {}) {
  Pipeline p;
  p.ast = dsl::parseAndCheck(source);
  p.program =
      std::make_unique<ir::Program>(ir::lower(p.ast));
  p.schedule = sched::buildReferenceSchedule(*p.program, layoutOptions);
  return p;
}

/// Runs the interpreter on `schedule` against the reference evaluation of
/// the AST and returns the max output error.
double compareAgainstReference(const Pipeline& p) {
  return validate(p.ast, p.schedule).maxError;
}

TEST(EvaluatorTest, MatMulMatchesReference) {
  EXPECT_LE(compareAgainstReference(build(test::kMatMul2D)), kTolerance);
}

TEST(EvaluatorTest, MatMulExactSmallCase) {
  // 2x2 known result.
  Pipeline p = build("var input A : [2 2]\nvar input B : [2 2]\n"
                     "var output C : [2 2]\nC = A # B . [[1 2]]");
  TensorStore store(*p.program, p.schedule.layouts);
  DenseTensor a = DenseTensor::zeros({2, 2});
  a.data = {1, 2, 3, 4};
  DenseTensor b = DenseTensor::zeros({2, 2});
  b.data = {5, 6, 7, 8};
  store.import(p.program->findTensor("A")->id, a);
  store.import(p.program->findTensor("B")->id, b);
  execute(p.schedule, store);
  const DenseTensor c = store.exportTensor(p.program->findTensor("C")->id);
  EXPECT_DOUBLE_EQ(c.data[0], 19);
  EXPECT_DOUBLE_EQ(c.data[1], 22);
  EXPECT_DOUBLE_EQ(c.data[2], 43);
  EXPECT_DOUBLE_EQ(c.data[3], 50);
}

TEST(EvaluatorTest, InverseHelmholtzMatchesReference) {
  // p = 5 keeps the O(p^6) reference evaluation fast.
  EXPECT_LE(compareAgainstReference(build(test::inverseHelmholtzSource(5))),
            kTolerance);
}

TEST(EvaluatorTest, InverseHelmholtzPaperSize) {
  EXPECT_LE(compareAgainstReference(build(test::kInverseHelmholtz)),
            1e-8);
}

TEST(EvaluatorTest, InterpolationMatchesReference) {
  EXPECT_LE(compareAgainstReference(build(test::kInterpolation)),
            kTolerance);
}

TEST(EvaluatorTest, EntryWiseChainMatchesReference) {
  EXPECT_LE(compareAgainstReference(build(test::kEntryWiseChain)),
            kTolerance);
}

TEST(EvaluatorTest, RescheduledHardwareVariantMatches) {
  Pipeline p = build(test::kInverseHelmholtz);
  sched::RescheduleOptions options;
  options.objective = sched::ScheduleObjective::Hardware;
  sched::reschedule(p.schedule, options);
  EXPECT_LE(compareAgainstReference(p), 1e-8);
}

TEST(EvaluatorTest, RescheduledSoftwareVariantMatches) {
  Pipeline p = build(test::kInverseHelmholtz);
  sched::RescheduleOptions options;
  options.objective = sched::ScheduleObjective::Software;
  sched::reschedule(p.schedule, options);
  EXPECT_LE(compareAgainstReference(p), 1e-8);
}

TEST(EvaluatorTest, ColumnMajorLayoutMatches) {
  sched::LayoutOptions layouts;
  layouts.defaultLayout = sched::LayoutKind::ColumnMajor;
  EXPECT_LE(compareAgainstReference(
                build(test::inverseHelmholtzSource(5), layouts)),
            kTolerance);
}

TEST(EvaluatorTest, MixedLayoutsMatch) {
  sched::LayoutOptions layouts;
  layouts.perTensor["u"] = sched::LayoutKind::ColumnMajor;
  layouts.perTensor["v"] = sched::LayoutKind::ColumnMajor;
  EXPECT_LE(compareAgainstReference(
                build(test::inverseHelmholtzSource(5), layouts)),
            kTolerance);
}

TEST(EvaluatorTest, OpCountsMatchStaticWork) {
  Pipeline p = build(test::kInverseHelmholtz);
  TensorStore store(*p.program, p.schedule.layouts);
  for (const auto& tensor : p.program->tensors())
    if (tensor.kind == ir::TensorKind::Input)
      store.import(tensor.id, makeTestInput(tensor.type.shape, 7));
  const OpCounts counts = execute(p.schedule, store);
  const std::int64_t p4 = 11LL * 11 * 11 * 11;
  EXPECT_EQ(counts.fmul, 6 * p4 + 1331);
  EXPECT_EQ(counts.fadd, 6 * p4);
  EXPECT_EQ(counts.statements, 7);
  EXPECT_EQ(counts.loopIterations, 6 * p4 + 1331);
}

TEST(EvaluatorTest, RegisterAccumulationReducesStores) {
  // Reference schedule (reduction innermost) stores once per output
  // element; the hardware schedule read-modify-writes per iteration.
  Pipeline ref = build(test::kMatMul2D);
  Pipeline hw = build(test::kMatMul2D);
  sched::reschedule(hw.schedule, {});
  TensorStore refStore(*ref.program, ref.schedule.layouts);
  TensorStore hwStore(*hw.program, hw.schedule.layouts);
  for (const auto& tensor : ref.program->tensors())
    if (tensor.kind == ir::TensorKind::Input) {
      refStore.import(tensor.id, makeTestInput(tensor.type.shape, 3));
      hwStore.import(
          hw.program->findTensor(tensor.name)->id,
          makeTestInput(tensor.type.shape, 3));
    }
  const OpCounts refCounts = execute(ref.schedule, refStore);
  const OpCounts hwCounts = execute(hw.schedule, hwStore);
  EXPECT_LT(refCounts.stores, hwCounts.stores);
  // Both compute the same result.
  EXPECT_LE(maxAbsDifference(
                refStore.exportTensor(ref.program->findTensor("C")->id),
                hwStore.exportTensor(hw.program->findTensor("C")->id)),
            kTolerance);
}

TEST(TensorStoreTest, ImportExportRoundTrip) {
  Pipeline p = build(test::kMatMul2D);
  TensorStore store(*p.program, p.schedule.layouts);
  const DenseTensor value = makeTestInput({4, 5}, 99);
  const ir::TensorId id = p.program->findTensor("A")->id;
  store.import(id, value);
  EXPECT_EQ(maxAbsDifference(store.exportTensor(id), value), 0.0);
}

TEST(TensorStoreTest, OutOfBoundsAccessThrows) {
  Pipeline p = build(test::kMatMul2D);
  TensorStore store(*p.program, p.schedule.layouts);
  const ir::TensorId id = p.program->findTensor("A")->id;
  EXPECT_THROW(store.load(id, 20), InternalError);
  EXPECT_THROW(store.store(id, -1, 0.0), InternalError);
}

// ---- Edge cases of the lowered-access stepping ----

/// Interpreter and reference outputs named `output` for explicit inputs.
struct BothPaths {
  DenseTensor interpreted;
  DenseTensor reference;
  OpCounts counts;
};

BothPaths runBothPaths(const Pipeline& p,
                       const std::map<std::string, DenseTensor>& inputs,
                       const std::string& output) {
  std::map<std::string, DenseTensor> values = inputs;
  TensorStore store(*p.program, p.schedule.layouts);
  for (const auto& [name, value] : inputs)
    store.import(p.program->findTensor(name)->id, value);
  evaluateReference(p.ast, values);
  BothPaths out;
  out.counts = execute(p.schedule, store);
  out.interpreted = store.exportTensor(p.program->findTensor(output)->id);
  out.reference = values.at(output);
  return out;
}

DenseTensor tensorOf(std::vector<std::int64_t> shape,
                     std::vector<double> data) {
  DenseTensor tensor = DenseTensor::zeros(std::move(shape));
  tensor.data = std::move(data);
  return tensor;
}

TEST(EvaluatorEdgeCases, ScalarStatement) {
  // A full contraction to rank 0, then a rank-0 entry-wise statement.
  const Pipeline p = build("var input a : [3]\nvar input b : [3]\n"
                           "var input x : []\nvar output s : []\n"
                           "s = a # b . [[0 1]] * x\n");
  const BothPaths both = runBothPaths(
      p,
      {{"a", tensorOf({3}, {1, 2, 3})},
       {"b", tensorOf({3}, {4, 5, 6})},
       {"x", tensorOf({}, {2})}},
      "s");
  EXPECT_EQ(both.reference.data, std::vector<double>{64});
  EXPECT_EQ(both.interpreted.data, std::vector<double>{64});
}

TEST(EvaluatorEdgeCases, OuterProductWithoutPairs) {
  const std::string source = "var input A : [2 3]\nvar input B : [4]\n"
                             "var output C : [2 3 4]\nC = A # B\n";
  const std::map<std::string, DenseTensor> inputs = {
      {"A", tensorOf({2, 3}, {1, 2, 3, 4, 5, 6})},
      {"B", tensorOf({4}, {1, 10, 100, 1000})}};
  std::vector<double> expected;
  for (double a : inputs.at("A").data)
    for (double b : inputs.at("B").data)
      expected.push_back(a * b);
  for (const auto layout :
       {sched::LayoutKind::RowMajor, sched::LayoutKind::ColumnMajor}) {
    sched::LayoutOptions layouts;
    layouts.defaultLayout = layout;
    const BothPaths both = runBothPaths(build(source, layouts), inputs, "C");
    EXPECT_EQ(both.reference.data, expected);
    EXPECT_EQ(both.interpreted.data, expected);
  }
}

TEST(EvaluatorEdgeCases, PairWithinOneFactorIsATrace) {
  // Lowering rejects traces, so only the reference sees this case: both
  // ends of [0 1] lie in A, giving c[k] = trace(A) * B[k].
  const dsl::Program ast =
      dsl::parseAndCheck("var input A : [3 3]\nvar input B : [4]\n"
                         "var output c : [4]\nc = A # B . [[0 1]]\n");
  std::map<std::string, DenseTensor> values = {
      {"A", tensorOf({3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9})},
      {"B", tensorOf({4}, {1, 2, 3, 4})}};
  evaluateReference(ast, values);
  EXPECT_EQ(values.at("c").data, (std::vector<double>{15, 30, 45, 60}));
}

TEST(EvaluatorEdgeCases, ReductionOutsideInnermostLoopReadModifyWrites) {
  Pipeline p = build(test::kMatMul2D);
  ASSERT_EQ(p.schedule.statements.size(), 1u);
  sched::ScheduledStatement& stmt = p.schedule.statements[0];
  // Move the reduction loop outermost: [k, i, j].
  std::rotate(stmt.loops.rbegin(), stmt.loops.rbegin() + 1,
              stmt.loops.rend());
  sched::refreshAccesses(*p.program, stmt);
  ASSERT_TRUE(stmt.loops.front().isReduction);
  ASSERT_FALSE(stmt.innermostIsReduction());

  const std::map<std::string, DenseTensor> inputs = {
      {"A", makeTestInput({4, 5}, 1)}, {"B", makeTestInput({5, 6}, 2)}};
  const BothPaths both = runBothPaths(p, inputs, "C");
  EXPECT_LE(maxAbsDifference(both.interpreted, both.reference), kTolerance);
  // 4*6 zero-init stores, then per iteration 3 loads and 1 store.
  const std::int64_t iterations = 4 * 5 * 6;
  EXPECT_EQ(both.counts.loopIterations, iterations);
  EXPECT_EQ(both.counts.loads, 3 * iterations);
  EXPECT_EQ(both.counts.stores, 4 * 6 + iterations);
  EXPECT_EQ(both.counts.fadd, iterations);
}

TEST(EvaluatorEdgeCases, LoweredAccessLeavingItsBufferThrows) {
  const auto shifted = [](const poly::AffineMap& map, std::int64_t by) {
    std::vector<poly::AffineExpr> results = map.results();
    results[0] = results[0] + by;
    return poly::AffineMap(map.numDims(), std::move(results));
  };
  const auto runShifted = [&](bool write, std::int64_t by) {
    Pipeline p = build(test::kMatMul2D);
    ir::Access& access = write ? p.schedule.statements[0].write
                               : p.schedule.statements[0].reads[0];
    access.map = shifted(access.map, by);
    TensorStore store(*p.program, p.schedule.layouts);
    execute(p.schedule, store);
  };
  // A's row index shifted by 1 stays in the 4x5 buffer until the last
  // row, so the check fires on an offset reached by stepping.
  EXPECT_THROW(runShifted(false, 1), InternalError);
  // C's row index shifted by -1 starts before its buffer.
  EXPECT_THROW(runShifted(true, -1), InternalError);
  EXPECT_NO_THROW(runShifted(false, 0));
}

// ---- Bit-identity pins ----
//
// FNV-1a digests of everything both evaluation paths produce, recorded
// on the original per-point evaluator: the reference outputs, the store
// buffers and OpCounts after execute(), and Flow::softwareCounts under
// both objectives. Any rewrite of the evaluator must reproduce them bit
// for bit (same values, same summation order, same counts). Each kernel
// runs under objective hw/sw x rowmajor/colmajor x unroll 1/2.

void mixCounts(Fnv1aHasher& h, const OpCounts& counts) {
  for (std::int64_t value :
       {counts.fmul, counts.fadd, counts.fdiv, counts.loads, counts.stores,
        counts.loopIterations, counts.statements})
    h.mix(static_cast<std::uint64_t>(value));
}

void mixValues(Fnv1aHasher& h, const std::vector<double>& values) {
  h.mix(static_cast<std::uint64_t>(values.size()));
  for (double value : values)
    h.mix(value);
}

struct Digests {
  std::uint64_t reference = 0;
  std::uint64_t execute = 0;
  std::uint64_t software = 0;
};

Digests digestsOf(const std::string& source) {
  Fnv1aHasher reference, executed, software;
  bool referenceDone = false;
  for (const auto objective : {sched::ScheduleObjective::Hardware,
                               sched::ScheduleObjective::Software})
    for (const auto layout :
         {sched::LayoutKind::RowMajor, sched::LayoutKind::ColumnMajor})
      for (const int unroll : {1, 2}) {
        FlowOptions options;
        options.reschedule.objective = objective;
        options.layouts.defaultLayout = layout;
        options.hls.unrollFactor = unroll;
        const Flow flow = Flow::compile(source, options);
        const ir::Program& program = flow.program();

        std::map<std::string, DenseTensor> values;
        TensorStore store(program, flow.schedule().layouts);
        std::uint64_t seed = 1;
        for (const auto& tensor : program.tensors()) {
          if (tensor.kind != ir::TensorKind::Input)
            continue;
          values[tensor.name] = makeTestInput(tensor.type.shape, seed++);
          store.import(tensor.id, values[tensor.name]);
        }
        if (!referenceDone) {
          evaluateReference(flow.ast(), values);
          for (const auto& [name, value] : values) {
            reference.mix(name);
            mixValues(reference, value.data);
          }
          referenceDone = true;
        }
        mixCounts(executed, execute(flow.schedule(), store));
        for (const auto& tensor : program.tensors())
          mixValues(executed, store.buffer(tensor.id));
        mixCounts(software,
                  flow.softwareCounts(sched::ScheduleObjective::Software));
        mixCounts(software,
                  flow.softwareCounts(sched::ScheduleObjective::Hardware));
      }
  return {reference.value(), executed.value(), software.value()};
}

struct PinnedKernel {
  const char* name;
  std::string source;
  Digests expected;

  friend void PrintTo(const PinnedKernel& kernel, std::ostream* os) {
    *os << kernel.name;
  }
};

class EvaluatorBitIdentity : public ::testing::TestWithParam<PinnedKernel> {};

TEST_P(EvaluatorBitIdentity, DigestsMatchPinned) {
  const PinnedKernel& kernel = GetParam();
  const Digests actual = digestsOf(kernel.source);
  EXPECT_EQ(actual.reference, kernel.expected.reference)
      << "reference outputs, 0x" << std::hex << actual.reference;
  EXPECT_EQ(actual.execute, kernel.expected.execute)
      << "execute buffers and counts, 0x" << std::hex << actual.execute;
  EXPECT_EQ(actual.software, kernel.expected.software)
      << "softwareCounts, 0x" << std::hex << actual.software;
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, EvaluatorBitIdentity,
    ::testing::Values(
        PinnedKernel{"InverseHelmholtz", test::kInverseHelmholtz,
                     {0x6c0445f3f7034f24ull, 0xdcfaddad72840fd9ull, 0xc185016baed685e5ull}},
        PinnedKernel{"InverseHelmholtzP5", test::inverseHelmholtzSource(5),
                     {0x8fd27d7f0037010aull, 0x565c4ba98598f1f1ull, 0xbd9dddaa4cc6ce35ull}},
        PinnedKernel{"Interpolation", test::kInterpolation,
                     {0x99718684b969d7a8ull, 0xadfe5836261f2259ull, 0x22c21bf1ef8c90c5ull}},
        PinnedKernel{"Interpolation7to9",
                     "var input I : [9 7]\nvar input u : [7 7 7]\n"
                     "var output v : [9 9 9]\n"
                     "v = I # I # I # u . [[1 6] [3 7] [5 8]]\n",
                     {0xc2c4ed5a55346289ull, 0x746f6696e9895e8dull, 0x17081a2165b29e95ull}},
        PinnedKernel{"MatMul2D", test::kMatMul2D,
                     {0x1a7fac16d7267e52ull, 0xfbb4af6d9d147f45ull, 0x7f0e98a6db2a94c5ull}},
        PinnedKernel{"EntryWiseChain", test::kEntryWiseChain,
                     {0xf4c5031a73c68954ull, 0xf97c7b8f558d3965ull, 0x260255bad4857b65ull}},
        PinnedKernel{"ChainDepth4", test::chainSource(4, 6),
                     {0xe810070131cd061dull, 0xcf1f0cb2858a17edull, 0x7da65778f09ad3e5ull}}),
    [](const ::testing::TestParamInfo<PinnedKernel>& info) {
      return std::string(info.param.name);
    });

TEST(MakeTestInputTest, DeterministicAndBounded) {
  const DenseTensor a = makeTestInput({11, 11}, 42);
  const DenseTensor b = makeTestInput({11, 11}, 42);
  const DenseTensor c = makeTestInput({11, 11}, 43);
  EXPECT_EQ(maxAbsDifference(a, b), 0.0);
  EXPECT_GT(maxAbsDifference(a, c), 0.0);
  for (double v : a.data) {
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

} // namespace
} // namespace cfd::eval
