#include "eval/Evaluator.h"

#include "support/Error.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cfd::eval {

DenseTensor DenseTensor::zeros(std::vector<std::int64_t> shape) {
  DenseTensor tensor;
  tensor.shape = std::move(shape);
  tensor.data.assign(static_cast<std::size_t>(tensor.numElements()), 0.0);
  return tensor;
}

std::int64_t DenseTensor::numElements() const {
  std::int64_t n = 1;
  for (std::int64_t extent : shape)
    n *= extent;
  return n;
}

namespace {
std::int64_t rowMajorOffset(std::span<const std::int64_t> shape,
                            std::span<const std::int64_t> index) {
  CFD_ASSERT(shape.size() == index.size(), "index rank mismatch");
  std::int64_t offset = 0;
  for (std::size_t d = 0; d < shape.size(); ++d)
    offset = offset * shape[d] + index[d];
  return offset;
}
} // namespace

double& DenseTensor::at(std::span<const std::int64_t> index) {
  return data[static_cast<std::size_t>(rowMajorOffset(shape, index))];
}

double DenseTensor::at(std::span<const std::int64_t> index) const {
  return data[static_cast<std::size_t>(rowMajorOffset(shape, index))];
}

TensorStore::TensorStore(const ir::Program& program,
                         const sched::LayoutAssignment& layouts)
    : program_(&program), layouts_(&layouts) {
  for (const auto& tensor : program.tensors()) {
    const auto& layout = layouts.layoutOf(tensor.id);
    buffers_[tensor.id].assign(
        static_cast<std::size_t>(layout.sizeInElements), 0.0);
  }
}

std::vector<double>& TensorStore::buffer(ir::TensorId id) {
  const auto it = buffers_.find(id);
  CFD_ASSERT(it != buffers_.end(), "no buffer for tensor");
  return it->second;
}

const std::vector<double>& TensorStore::buffer(ir::TensorId id) const {
  const auto it = buffers_.find(id);
  CFD_ASSERT(it != buffers_.end(), "no buffer for tensor");
  return it->second;
}

double TensorStore::load(ir::TensorId id, std::int64_t flatOffset) const {
  const auto& buf = buffer(id);
  CFD_ASSERT(flatOffset >= 0 &&
                 flatOffset < static_cast<std::int64_t>(buf.size()),
             "load out of bounds");
  return buf[static_cast<std::size_t>(flatOffset)];
}

void TensorStore::store(ir::TensorId id, std::int64_t flatOffset,
                        double value) {
  auto& buf = buffer(id);
  CFD_ASSERT(flatOffset >= 0 &&
                 flatOffset < static_cast<std::int64_t>(buf.size()),
             "store out of bounds");
  buf[static_cast<std::size_t>(flatOffset)] = value;
}

namespace {

/// One access lowered to flat-offset form over a loop box: the offset at
/// loop point i is base + sum_d stride[d] * i[d], the constant term and
/// coefficients of layout.map ∘ access.map. `offset` tracks the current
/// point as forEachPoint steps.
struct LoweredAccess {
  double* data = nullptr;
  std::int64_t size = 0;
  std::int64_t offset = 0;
  std::vector<std::int64_t> strides;

  void bind(std::vector<double>& buffer) {
    data = buffer.data();
    size = static_cast<std::int64_t>(buffer.size());
  }

  double load() const {
    CFD_ASSERT(offset >= 0 && offset < size, "load out of bounds");
    return data[offset];
  }
  void store(double value) const {
    CFD_ASSERT(offset >= 0 && offset < size, "store out of bounds");
    data[offset] = value;
  }
};

/// Lowers `flat`, a map whose first result is the flat offset, to its
/// constant term and strides (no buffer bound yet).
LoweredAccess lower(const poly::AffineMap& flat) {
  const poly::AffineExpr& expr = flat.result(0);
  LoweredAccess access;
  access.offset = expr.constantTerm();
  for (int d = 0; d < flat.numDims(); ++d)
    access.strides.push_back(expr.coefficient(d));
  return access;
}

/// Calls body() at every point of the box [0, extents) in row-major
/// order (once for a rank-0 box, never for an empty one), keeping each
/// access's offset at the current point. When dimension d advances,
/// every inner dimension wraps from extent-1 to 0, so an offset moves by
/// carry[d] = stride[d] - sum_{e>d} stride[e] * (extent[e] - 1).
template <typename Body>
void forEachPoint(std::span<const std::int64_t> extents,
                  std::span<LoweredAccess* const> accesses, Body&& body) {
  const std::size_t rank = extents.size();
  for (std::int64_t extent : extents)
    if (extent <= 0)
      return;
  std::vector<std::int64_t> carries(rank * accesses.size()); // [dim][access]
  for (std::size_t a = 0; a < accesses.size(); ++a) {
    CFD_ASSERT(accesses[a]->strides.size() == rank, "access rank mismatch");
    std::int64_t wrapped = 0;
    for (std::size_t d = rank; d-- > 0;) {
      const std::int64_t stride = accesses[a]->strides[d];
      carries[d * accesses.size() + a] = stride - wrapped;
      wrapped += stride * (extents[d] - 1);
    }
  }
  std::vector<std::int64_t> counter(rank, 0);
  while (true) {
    body();
    // Find the innermost dimension that advances without wrapping.
    std::size_t d = rank;
    for (; d > 0; --d) {
      if (++counter[d - 1] < extents[d - 1])
        break;
      counter[d - 1] = 0;
    }
    if (d == 0)
      return;
    const std::int64_t* carry = &carries[(d - 1) * accesses.size()];
    for (std::size_t a = 0; a < accesses.size(); ++a)
      accesses[a]->offset += carry[a];
  }
}

} // namespace

void TensorStore::import(ir::TensorId id, const DenseTensor& value) {
  const ir::Tensor& tensor = program_->tensor(id);
  CFD_ASSERT(tensor.type.shape == value.shape,
             "import shape mismatch on " + tensor.name);
  LoweredAccess element = lower(layouts_->layoutOf(id).map);
  LoweredAccess* elements[] = {&element};
  std::size_t next = 0;
  forEachPoint(tensor.type.shape, elements, [&] {
    store(id, element.offset, value.data[next++]);
  });
}

DenseTensor TensorStore::exportTensor(ir::TensorId id) const {
  const ir::Tensor& tensor = program_->tensor(id);
  DenseTensor out = DenseTensor::zeros(tensor.type.shape);
  LoweredAccess element = lower(layouts_->layoutOf(id).map);
  LoweredAccess* elements[] = {&element};
  std::size_t next = 0;
  forEachPoint(tensor.type.shape, elements, [&] {
    out.data[next++] = load(id, element.offset);
  });
  return out;
}

OpCounts& OpCounts::operator+=(const OpCounts& other) {
  fmul += other.fmul;
  fadd += other.fadd;
  fdiv += other.fdiv;
  loads += other.loads;
  stores += other.stores;
  loopIterations += other.loopIterations;
  statements += other.statements;
  return *this;
}

OpCounts execute(const sched::Schedule& schedule, TensorStore& store) {
  CFD_ASSERT(schedule.program != nullptr, "schedule without program");
  OpCounts counts;

  for (const auto& stmt : schedule.statements) {
    ++counts.statements;

    // Zero-initialize accumulation targets over their index space.
    if (stmt.needsInit) {
      const auto& target = schedule.program->tensor(stmt.write.tensor);
      LoweredAccess element =
          lower(schedule.layouts.layoutOf(stmt.write.tensor).map);
      element.bind(store.buffer(stmt.write.tensor));
      LoweredAccess* elements[] = {&element};
      forEachPoint(target.type.shape, elements, [&] {
        element.store(0.0);
        ++counts.stores;
      });
    }

    // Lower every access once: layout.map ∘ access.map, bound to its
    // buffer for the whole statement.
    const auto lowerAccess = [&](const ir::Access& access) {
      LoweredAccess lowered = lower(
          schedule.layouts.layoutOf(access.tensor).map.compose(access.map));
      lowered.bind(store.buffer(access.tensor));
      return lowered;
    };
    LoweredAccess write = lowerAccess(stmt.write);
    std::vector<LoweredAccess> reads;
    reads.reserve(stmt.reads.size());
    for (const auto& read : stmt.reads)
      reads.push_back(lowerAccess(read));
    std::vector<LoweredAccess*> accesses = {&write};
    for (auto& read : reads)
      accesses.push_back(&read);

    std::vector<std::int64_t> extents;
    extents.reserve(stmt.loops.size());
    for (const auto& loop : stmt.loops)
      extents.push_back(loop.extent);
    const auto loops = [&](auto&& body) {
      forEachPoint(extents, accesses, body);
    };

    switch (stmt.kind) {
    case ir::OpKind::Contract: {
      const LoweredAccess& lhs = reads[0];
      const LoweredAccess& rhs = reads[1];
      if (!stmt.needsInit) {
        // Pure outer product: direct store.
        loops([&] {
          ++counts.loopIterations;
          const double a = lhs.load();
          const double b = rhs.load();
          counts.loads += 2;
          const double product = a * b;
          ++counts.fmul;
          write.store(product);
          ++counts.stores;
        });
      } else if (stmt.innermostIsReduction()) {
        // Innermost loop is the (single innermost) reduction: keep the
        // partial sum in a register as compiled CPU code would.
        LoweredAccess accumulatorAt = write;
        accumulatorAt.offset = -1;
        double accumulator = 0.0;
        loops([&] {
          ++counts.loopIterations;
          const double a = lhs.load();
          const double b = rhs.load();
          counts.loads += 2;
          const double product = a * b;
          ++counts.fmul;
          if (write.offset != accumulatorAt.offset) {
            if (accumulatorAt.offset >= 0) {
              accumulatorAt.store(accumulator);
              ++counts.stores;
            }
            accumulator = write.load();
            ++counts.loads;
            accumulatorAt.offset = write.offset;
          }
          accumulator += product;
          ++counts.fadd;
        });
        if (accumulatorAt.offset >= 0) {
          accumulatorAt.store(accumulator);
          ++counts.stores;
        }
      } else {
        // Read-modify-write through the target array (the PLM-style
        // accumulation of the hardware schedule).
        loops([&] {
          ++counts.loopIterations;
          const double a = lhs.load();
          const double b = rhs.load();
          counts.loads += 2;
          const double product = a * b;
          ++counts.fmul;
          const double current = write.load();
          ++counts.loads;
          write.store(current + product);
          ++counts.fadd;
          ++counts.stores;
        });
      }
      break;
    }
    case ir::OpKind::EntryWise: {
      const LoweredAccess& lhs = reads[0];
      const LoweredAccess& rhs = reads[1];
      loops([&] {
        ++counts.loopIterations;
        const double a = lhs.load();
        const double b = rhs.load();
        counts.loads += 2;
        double value = 0.0;
        switch (stmt.entryWise) {
        case ir::EntryWiseKind::Add:
          value = a + b;
          ++counts.fadd;
          break;
        case ir::EntryWiseKind::Sub:
          value = a - b;
          ++counts.fadd;
          break;
        case ir::EntryWiseKind::Mul:
          value = a * b;
          ++counts.fmul;
          break;
        case ir::EntryWiseKind::Div:
          value = a / b;
          ++counts.fdiv;
          break;
        }
        write.store(value);
        ++counts.stores;
      });
      break;
    }
    case ir::OpKind::Copy: {
      const LoweredAccess& source = reads[0];
      loops([&] {
        ++counts.loopIterations;
        const double value = source.load();
        ++counts.loads;
        write.store(value);
        ++counts.stores;
      });
      break;
    }
    case ir::OpKind::Fill:
      loops([&] {
        ++counts.loopIterations;
        write.store(stmt.scalar);
        ++counts.stores;
      });
      break;
    }
  }
  return counts;
}

namespace {

DenseTensor evaluateExpr(const dsl::Expr& expr,
                         std::map<std::string, DenseTensor>& values);

DenseTensor evaluateEntryWise(const dsl::Expr& expr,
                              std::map<std::string, DenseTensor>& values) {
  DenseTensor lhs = evaluateExpr(*expr.operands[0], values);
  DenseTensor rhs = evaluateExpr(*expr.operands[1], values);
  // Broadcast scalars.
  const bool lhsScalar = lhs.shape.empty();
  const bool rhsScalar = rhs.shape.empty();
  DenseTensor out = DenseTensor::zeros(lhsScalar ? rhs.shape : lhs.shape);
  for (std::size_t i = 0; i < out.data.size(); ++i) {
    const double a = lhsScalar ? lhs.data[0] : lhs.data[i];
    const double b = rhsScalar ? rhs.data[0] : rhs.data[i];
    switch (expr.kind) {
    case dsl::ExprKind::Add:
      out.data[i] = a + b;
      break;
    case dsl::ExprKind::Sub:
      out.data[i] = a - b;
      break;
    case dsl::ExprKind::Mul:
      out.data[i] = a * b;
      break;
    case dsl::ExprKind::Div:
      out.data[i] = a / b;
      break;
    default:
      CFD_UNREACHABLE("not an entry-wise op");
    }
  }
  return out;
}

/// Direct contraction semantics: iterate output dims x reduced dims,
/// evaluating the factor product at each point (no factorization).
///
/// Indices are numbered free dims first, then one per pair (both ends of
/// a pair share it). Each factor gets a row-major stride per index; a
/// pair inside one factor adds both of its strides. The output is visited
/// row-major and, per output element, the reduction indices
/// lexicographically (last pair innermost, run as a tight loop); every
/// term is 1.0 times each factor from left to right. Offsets are
/// recomputed from the index tuple rather than stepped, so this path
/// shares neither code nor technique with the interpreter's carries.
DenseTensor evaluateContraction(const dsl::Expr& product,
                                const std::vector<dsl::IndexPair>& pairs,
                                std::map<std::string, DenseTensor>& values) {
  std::vector<DenseTensor> factors;
  std::vector<std::int64_t> globalShape;
  // Global dim -> (factor, row-major stride within that factor).
  std::vector<std::pair<std::size_t, std::int64_t>> globalStride;
  for (const auto& operand : product.operands) {
    factors.push_back(evaluateExpr(*operand, values));
    const std::vector<std::int64_t>& shape = factors.back().shape;
    globalShape.insert(globalShape.end(), shape.begin(), shape.end());
    const std::size_t first = globalStride.size();
    globalStride.resize(first + shape.size());
    std::int64_t stride = 1;
    for (std::size_t d = shape.size(); d-- > 0;) {
      globalStride[first + d] = {factors.size() - 1, stride};
      stride *= shape[d];
    }
  }
  const std::size_t numFactors = factors.size();

  std::vector<bool> reduced(globalShape.size(), false);
  for (const auto& pair : pairs)
    for (int d : {pair.first, pair.second}) {
      CFD_ASSERT(!reduced[static_cast<std::size_t>(d)],
                 "dimension contracted twice");
      reduced[static_cast<std::size_t>(d)] = true;
    }
  std::vector<std::size_t> indexDims; // free dims, then each pair's first
  std::vector<std::int64_t> outShape;
  for (std::size_t d = 0; d < globalShape.size(); ++d)
    if (!reduced[d]) {
      indexDims.push_back(d);
      outShape.push_back(globalShape[d]);
    }
  for (const auto& pair : pairs)
    indexDims.push_back(static_cast<std::size_t>(pair.first));
  const std::size_t numFree = outShape.size();
  const std::size_t numIndices = indexDims.size();

  std::vector<std::int64_t> extents(numIndices);
  // strides[f * numIndices + k]: factor f's offset step along index k.
  std::vector<std::int64_t> strides(numFactors * numIndices, 0);
  const auto addStride = [&](std::size_t globalDim, std::size_t k) {
    const auto [factor, stride] = globalStride[globalDim];
    strides[factor * numIndices + k] += stride;
  };
  for (std::size_t k = 0; k < numIndices; ++k) {
    extents[k] = globalShape[indexDims[k]];
    addStride(indexDims[k], k);
  }
  for (std::size_t q = 0; q < pairs.size(); ++q)
    addStride(static_cast<std::size_t>(pairs[q].second), numFree + q);

  DenseTensor out = DenseTensor::zeros(outShape);
  for (std::int64_t extent : extents)
    if (extent <= 0)
      return out;

  // The last pair's index is run by `run` (it stays 0 in `index`); the
  // other indices step as row-major odometers.
  const std::size_t outerEnd = numIndices - (pairs.empty() ? 0 : 1);
  const std::int64_t innerExtent = pairs.empty() ? 1 : extents.back();
  std::vector<std::int64_t> innerStride(numFactors, 0);
  if (!pairs.empty())
    for (std::size_t f = 0; f < numFactors; ++f)
      innerStride[f] = strides[f * numIndices + numIndices - 1];
  std::vector<const double*> data(numFactors);
  for (std::size_t f = 0; f < numFactors; ++f)
    data[f] = factors[f].data.data();

  std::vector<std::int64_t> index(numIndices, 0);
  // Each factor's offset over index[first, last), added to `from`.
  const auto offsetsOf = [&](std::size_t first, std::size_t last,
                              const std::vector<std::int64_t>& from,
                              std::vector<std::int64_t>& to) {
    for (std::size_t f = 0; f < numFactors; ++f) {
      std::int64_t offset = from[f];
      for (std::size_t k = first; k < last; ++k)
        offset += strides[f * numIndices + k] * index[k];
      to[f] = offset;
    }
  };
  // Steps index[first, last) as a row-major odometer; false once it
  // wraps back to all zeros.
  const auto advance = [&](std::size_t first, std::size_t last) {
    for (std::size_t k = last; k-- > first;) {
      if (++index[k] < extents[k])
        return true;
      index[k] = 0;
    }
    return false;
  };
  // One run of innerExtent terms along the last pair's index.
  const auto run = [&](double sum, const std::vector<std::int64_t>& offset) {
    for (std::int64_t i = 0; i < innerExtent; ++i) {
      double term = 1.0;
      for (std::size_t f = 0; f < numFactors; ++f)
        term *= data[f][offset[f] + i * innerStride[f]];
      sum += term;
    }
    return sum;
  };

  const std::vector<std::int64_t> zero(numFactors, 0);
  std::vector<std::int64_t> base(numFactors), offset(numFactors);
  std::size_t element = 0;
  do {
    offsetsOf(0, numFree, zero, base);
    double sum = 0.0;
    do {
      offsetsOf(numFree, outerEnd, base, offset);
      sum = run(sum, offset);
    } while (advance(numFree, outerEnd));
    out.data[element++] = sum;
  } while (advance(0, numFree));
  return out;
}

DenseTensor evaluateExpr(const dsl::Expr& expr,
                         std::map<std::string, DenseTensor>& values) {
  switch (expr.kind) {
  case dsl::ExprKind::Ident: {
    const auto it = values.find(expr.name);
    CFD_ASSERT(it != values.end(), "missing value for " + expr.name);
    return it->second;
  }
  case dsl::ExprKind::Number: {
    DenseTensor scalar = DenseTensor::zeros({});
    scalar.data[0] = expr.value;
    return scalar;
  }
  case dsl::ExprKind::Add:
  case dsl::ExprKind::Sub:
  case dsl::ExprKind::Mul:
  case dsl::ExprKind::Div:
    return evaluateEntryWise(expr, values);
  case dsl::ExprKind::Product:
    return evaluateContraction(expr, {}, values);
  case dsl::ExprKind::Contraction: {
    const dsl::Expr& operand = *expr.operands[0];
    CFD_ASSERT(operand.kind == dsl::ExprKind::Product,
               "contraction of non-products is unsupported");
    return evaluateContraction(operand, expr.pairs, values);
  }
  }
  CFD_UNREACHABLE("bad expression kind");
}

} // namespace

void evaluateReference(const dsl::Program& ast,
                       std::map<std::string, DenseTensor>& values) {
  for (const auto& assignment : ast.assignments)
    values[assignment.target] = evaluateExpr(*assignment.value, values);
}

DenseTensor makeTestInput(const std::vector<std::int64_t>& shape,
                          std::uint64_t seed) {
  DenseTensor tensor = DenseTensor::zeros(shape);
  std::uint64_t state = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (auto& value : tensor.data) {
    // xorshift64*
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    const std::uint64_t bits = state * 2685821657736338717ULL;
    value = (static_cast<double>(bits >> 11) /
             static_cast<double>(1ULL << 53)) *
                2.0 -
            1.0;
  }
  return tensor;
}

double maxAbsDifference(const DenseTensor& a, const DenseTensor& b) {
  CFD_ASSERT(a.shape == b.shape, "shape mismatch in comparison");
  double maxDiff = 0.0;
  for (std::size_t i = 0; i < a.data.size(); ++i) {
    const double diff = std::abs(a.data[i] - b.data[i]);
    if (std::isnan(diff))
      return diff; // std::max(x, NaN) would return x and hide it
    maxDiff = std::max(maxDiff, diff);
  }
  return maxDiff;
}

bool Validation::passed() const { return relativeError <= kTolerance; }

Validation validate(const dsl::Program& ast, const sched::Schedule& schedule,
                    std::uint64_t seed) {
  CFD_ASSERT(schedule.program != nullptr, "schedule without program");
  const ir::Program& program = *schedule.program;
  std::map<std::string, DenseTensor> reference;
  TensorStore store(program, schedule.layouts);
  for (const auto& tensor : program.tensors()) {
    if (tensor.kind != ir::TensorKind::Input)
      continue;
    const DenseTensor value = makeTestInput(tensor.type.shape, seed++);
    reference[tensor.name] = value;
    store.import(tensor.id, value);
  }
  evaluateReference(ast, reference);
  execute(schedule, store);
  // Like std::max, but a NaN on either side wins.
  const auto worst = [](double a, double b) {
    return std::isnan(a) || std::isnan(b)
               ? std::numeric_limits<double>::quiet_NaN()
               : std::max(a, b);
  };
  Validation result;
  for (const auto& tensor : program.tensors()) {
    if (tensor.kind != ir::TensorKind::Output)
      continue;
    const DenseTensor& expected = reference.at(tensor.name);
    const double error =
        maxAbsDifference(store.exportTensor(tensor.id), expected);
    double scale = 0.0;
    for (double value : expected.data)
      scale = std::max(scale, std::abs(value));
    result.maxError = worst(result.maxError, error);
    result.maxReference = std::max(result.maxReference, scale);
    result.relativeError =
        worst(result.relativeError, error / std::max(1.0, scale));
  }
  return result;
}

} // namespace cfd::eval
