// Functional execution of schedules and reference semantics.
//
// Two independent evaluation paths provide the correctness anchor for the
// whole flow (DESIGN.md §5):
//
//  * execute(): interprets a Schedule exactly as the generated C99 kernel
//    would run — same loop orders, same affine accesses through the
//    materialized layouts — while counting the operations performed. The
//    counts feed the A53 CPU timing model and cross-check the HLS cycle
//    model.
//  * evaluateReference(): evaluates the CFDlang AST directly from the
//    mathematical semantics (Eq. 1a-1c style: free dims x reduction dims),
//    with no compiler machinery involved.
//
// Any schedule/layout/transform bug shows up as a mismatch between the
// two.
#pragma once

#include "dsl/AST.h"
#include "sched/Schedule.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cfd::eval {

/// A dense row-major tensor value (reference world).
struct DenseTensor {
  std::vector<std::int64_t> shape;
  std::vector<double> data;

  static DenseTensor zeros(std::vector<std::int64_t> shape);
  double& at(std::span<const std::int64_t> index);
  double at(std::span<const std::int64_t> index) const;
  std::int64_t numElements() const;
};

/// Flat storage for every tensor of a program, addressed through the
/// materialized layouts (so layout correctness is part of what tests
/// verify).
class TensorStore {
public:
  TensorStore(const ir::Program& program, const sched::LayoutAssignment& layouts);

  std::vector<double>& buffer(ir::TensorId id);
  const std::vector<double>& buffer(ir::TensorId id) const;

  double load(ir::TensorId id, std::int64_t flatOffset) const;
  void store(ir::TensorId id, std::int64_t flatOffset, double value);

  /// Imports a dense row-major tensor through the layout map.
  void import(ir::TensorId id, const DenseTensor& value);
  /// Exports to dense row-major through the layout map.
  DenseTensor exportTensor(ir::TensorId id) const;

private:
  const ir::Program* program_;
  const sched::LayoutAssignment* layouts_;
  std::map<ir::TensorId, std::vector<double>> buffers_;
};

/// Dynamic operation counts of one interpreted execution.
struct OpCounts {
  std::int64_t fmul = 0;
  std::int64_t fadd = 0;
  std::int64_t fdiv = 0;
  std::int64_t loads = 0;
  std::int64_t stores = 0;
  std::int64_t loopIterations = 0;
  std::int64_t statements = 0;

  std::int64_t flops() const { return fmul + fadd + fdiv; }
  OpCounts& operator+=(const OpCounts& other);
};

/// Interprets `schedule` over `store`. Inputs must be imported first;
/// outputs (and all intermediates) are left in the store.
///
/// Operation counting is schedule-sensitive: a reduction in the innermost
/// loop accumulates in a register (1 store per output element), any other
/// loop order performs a read-modify-write per iteration — the same
/// distinction that separates the paper's "SW Ref." from "SW HLS code"
/// ARM runs.
OpCounts execute(const sched::Schedule& schedule, TensorStore& store);

/// Direct reference evaluation of a checked AST. `values` must hold every
/// input; locals/outputs are added. Contractions are evaluated over
/// free x reduction dims without any factorization.
void evaluateReference(const dsl::Program& ast,
                       std::map<std::string, DenseTensor>& values);

/// Deterministic pseudo-random input data in [-1, 1] (xorshift; seeded per
/// tensor name so runs are reproducible across modules).
DenseTensor makeTestInput(const std::vector<std::int64_t>& shape,
                          std::uint64_t seed);

/// Max |a-b| over two dense tensors of equal shape; NaN if any |a-b| is.
double maxAbsDifference(const DenseTensor& a, const DenseTensor& b);

/// Outcome of the differential check of one schedule (DESIGN.md §5).
/// maxError and relativeError are NaN when any output difference is.
struct Validation {
  /// max |interpreted - reference| over every output element.
  double maxError = 0.0;
  /// max |reference| over every output element.
  double maxReference = 0.0;
  /// The worst, over the outputs, of max|error| / max(1, max|reference|)
  /// with both maxima taken within that output: absolute for values of
  /// order one, relative where an output grows large (a depth-d
  /// contraction chain grows like extent^d, and so does its rounding
  /// error). Each output is judged on its own scale, so a small output
  /// cannot hide its error behind a large one.
  double relativeError = 0.0;

  /// relativeError <= kTolerance (false for NaN).
  bool passed() const;

  static constexpr double kTolerance = 1e-8;
};

/// Runs `schedule` and the reference semantics of `ast` on the same
/// inputs — makeTestInput(shape, seed), seed counting up from `seed` over
/// the input tensors in program order — and compares every output.
Validation validate(const dsl::Program& ast, const sched::Schedule& schedule,
                    std::uint64_t seed = 1);

} // namespace cfd::eval
