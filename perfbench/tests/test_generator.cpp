// Checks the seeded workload generator:
//   1. every generated kernel passes dsl::parseAndCheck;
//   2. the same seed gives byte-identical corpora;
//   3. different seeds give different corpora;
//   4. compile_cold sources are pairwise distinct, so every op is cold.
// Exits non-zero on the first failure.
#include "Generator.h"

#include "dsl/Parser.h"
#include "support/Error.h"

#include <iostream>
#include <set>
#include <string>
#include <vector>

namespace {

using namespace perfbench;

int failures = 0;

void check(bool condition, const std::string& what) {
  if (!condition) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

/// Everything one seed generates, flattened to text.
std::vector<std::string> corpus(std::uint64_t seed, std::size_t coldOps,
                                std::size_t serveOps) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < coldOps; ++i)
    out.push_back(coldKernel(seed, i).source);
  for (const Kernel& kernel : validateCorpus(seed))
    out.push_back(kernel.source);
  for (const SweepSpace& space : sweepSpaces(seed))
    out.push_back(space.name + "\n" + space.kernel.source);
  const std::vector<Kernel> hot = serveHotSet(seed);
  for (const Kernel& kernel : hot)
    out.push_back(kernel.source);
  for (std::size_t i = 0; i < serveOps; ++i) {
    const ServeRequest request = serveRequest(seed, i, hot);
    std::string text = std::to_string(static_cast<int>(request.kind)) + "\n" +
                       request.kernel.source;
    for (const auto& [key, value] : request.params)
      text += key + "=" + value + "\n";
    out.push_back(text);
  }
  return out;
}

void checkParses(const Kernel& kernel, const std::string& where) {
  try {
    (void)cfd::dsl::parseAndCheck(kernel.source);
  } catch (const cfd::FlowError& error) {
    check(false, where + " (" + kernel.family + ") does not parse: " +
                     error.what() + "\n" + kernel.source);
  }
}

} // namespace

int main() {
  const std::size_t coldOps = 4 * kColdBlock;
  const std::size_t serveOps = 400;

  for (std::uint64_t seed : {1ull, 2ull, 77ull}) {
    const std::string tag = "seed " + std::to_string(seed);
    for (std::size_t i = 0; i < coldOps; ++i)
      checkParses(coldKernel(seed, i), tag + " compile_cold op " + std::to_string(i));
    for (const Kernel& kernel : validateCorpus(seed))
      checkParses(kernel, tag + " validate");
    for (const SweepSpace& space : sweepSpaces(seed))
      checkParses(space.kernel, tag + " sweep " + space.name);
    const std::vector<Kernel> hot = serveHotSet(seed);
    for (const Kernel& kernel : hot)
      checkParses(kernel, tag + " serve hot set");
    for (std::size_t i = 0; i < serveOps; ++i)
      checkParses(serveRequest(seed, i, hot).kernel,
                  tag + " serve request " + std::to_string(i));

    check(corpus(seed, coldOps, serveOps) == corpus(seed, coldOps, serveOps),
          tag + ": same seed, different corpus");

    std::set<std::string> sources;
    for (std::size_t i = 0; i < coldOps; ++i)
      sources.insert(coldKernel(seed, i).source);
    check(sources.size() == coldOps,
          tag + ": compile_cold sources are not pairwise distinct");
  }

  const std::vector<std::string> a = corpus(1, coldOps, serveOps);
  const std::vector<std::string> b = corpus(2, coldOps, serveOps);
  check(a != b, "seeds 1 and 2 give the same corpus");
  std::size_t same = 0;
  for (std::size_t i = 0; i < coldOps; ++i)
    same += a[i] == b[i];
  check(same == 0, "seeds 1 and 2 share compile_cold sources");

  if (failures == 0)
    std::cout << "test_generator: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
