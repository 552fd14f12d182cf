#include "core/Flow.h"

#include "core/Session.h"
#include "support/Error.h"

namespace cfd {

Flow::Flow(std::shared_ptr<Pipeline> pipeline)
    : pipeline_(std::move(pipeline)) {
  CFD_ASSERT(pipeline_ != nullptr, "Flow requires a pipeline");
  // A Flow value is the eager, immutable view: once constructed, the
  // shared pipeline never mutates again, which makes copies of this
  // facade safe to read concurrently (Explorer relies on that).
  pipeline_->runAll();
}

Flow Flow::compile(const std::string& source, FlowOptions options) {
  // Thin shim over the implicit default session (DESIGN.md §10): the
  // hermetic, uncached, still-throwing "simple path". Use a Session
  // directly for cached compiles and structured diagnostics.
  return Session::global().compileFlow(source, std::move(options));
}

std::string Flow::cCode() const {
  // Emitter options were normalized alongside the memory banks when the
  // pipeline was built (normalizeOptions), so emission is a pure
  // function of the schedule.
  return codegen::emitC(pipeline_->schedule(),
                        pipeline_->options().emitter);
}

std::string Flow::kernelPrototype() const {
  return codegen::emitPrototype(pipeline_->schedule(),
                                pipeline_->options().emitter);
}

std::string Flow::mnemosyneConfig() const {
  return mem::emitMnemosyneConfig(pipeline_->schedule(),
                                  pipeline_->compatibilityGraph(),
                                  pipeline_->liveness());
}

std::string Flow::hostCode() const {
  return sysgen::emitHostCode(pipeline_->systemDesign(),
                              pipeline_->schedule());
}

std::string Flow::compatibilityDot() const {
  return pipeline_->compatibilityGraph().dot(pipeline_->program());
}

sim::SimResult Flow::simulate(sim::SimOptions simOptions) const {
  return sim::simulateSystem(pipeline_->systemDesign(),
                             pipeline_->kernelReport(), simOptions);
}

double Flow::validate(std::uint64_t seed) const {
  return eval::validate(pipeline_->ast(), pipeline_->schedule(), seed)
      .maxError;
}

eval::OpCounts
Flow::softwareCounts(sched::ScheduleObjective objective) const {
  // Re-derive a schedule under the requested objective; Hardware yields
  // the loop structure of the HLS input C code, Software the CPU
  // reference implementation.
  const ir::Program& program = pipeline_->program();
  const FlowOptions& options = pipeline_->options();
  sched::Schedule variant =
      sched::buildReferenceSchedule(program, options.layouts);
  sched::RescheduleOptions rescheduleOptions = options.reschedule;
  rescheduleOptions.objective = objective;
  sched::reschedule(variant, rescheduleOptions);

  eval::TensorStore store(program, variant.layouts);
  std::uint64_t seed = 1;
  for (const auto& tensor : program.tensors())
    if (tensor.kind == ir::TensorKind::Input)
      store.import(tensor.id,
                   eval::makeTestInput(tensor.type.shape, seed++));
  return eval::execute(variant, store);
}

} // namespace cfd
