// Seeded workload generator: CFDlang kernels, sweep sequences and
// daemon request mixes for the four benchmark workloads.
//
// Every item is a pure function of (seed, index), so a run draws as
// many items as its time window allows and the same seed always yields
// the same inputs. Cost-dominating parameters (Helmholtz degree, chain
// depth) are stratified per block and only their order and the
// remaining free parameters are random, so different seeds give
// different inputs with the same aggregate cost.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: small, seedable, identical on every platform.
class Rng {
public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  int uniform(int lo, int hi);
  template <typename T> void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i)
      std::swap(items[i - 1], items[next() % i]);
  }

private:
  std::uint64_t state_;
};

/// Mixes several words into one seed.
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0);

struct Kernel {
  std::string family; ///< helmholtz | interpolation | chain | entrywise
  std::string source;
};

using Params = std::vector<std::pair<std::string, std::string>>;
using Axes = std::vector<std::pair<std::string, std::vector<std::string>>>;

// ---- Kernel families (tag makes the identifiers, hence the source,
// unique; an empty tag gives the plain names) ----
/// Inverse Helmholtz at p points per dimension (paper Fig. 1: p = 11,
/// every extent 11).
Kernel helmholtz(int p, const std::string& tag = "");
/// v = (I x I x I) u with I : [out in].
Kernel interpolation(int in, int out, const std::string& tag = "");
/// `depth` back-to-back S # S # S # t contractions at `extent`.
Kernel chain(int depth, int extent, const std::string& tag = "");
/// `statements` entry-wise statements over 2-D tensors.
Kernel entrywise(int statements, int rows, int cols, std::uint64_t seed,
                 const std::string& tag = "");

// ---- compile_cold ----
/// Kernels per stratified block: 12 Helmholtz (p = 4..15 once each),
/// 12 interpolations with random extents, 12 chains (12 fixed depths
/// spanning 2..40, random extent) and 12 entry-wise chains (2..13
/// statements, random shapes), in seeded order.
inline constexpr std::size_t kColdBlock = 48;
/// Op `index` of the compile_cold stream; sources are pairwise
/// distinct over all indices of one seed.
Kernel coldKernel(std::uint64_t seed, std::size_t index);

// ---- validate ----
/// One block of 25 kernels the validate loop cycles through: Helmholtz
/// p in {5, 7, 9, 10, 11}, interpolations with extents <= 12, chains of
/// depth <= 8 and entry-wise chains, in seeded order.
std::vector<Kernel> validateCorpus(std::uint64_t seed);

// ---- sweep_explore ----
struct SweepSpace {
  std::string name; ///< "paper" or "chain-<depth>x<extent>"
  Kernel kernel;
  Axes axes;
  std::int64_t simulateElements = 0;
  std::size_t points() const;
};
/// The paper space on p = 11 Helmholtz: m (= k) x sharing x decoupled x
/// unroll, simulated at 50,000 elements.
SweepSpace paperSpace();
/// The 200-point unroll x m x opt x sharing x objective space on a
/// depth-`depth` chain at `extent`.
SweepSpace chainSpace(int depth, int extent);
/// The seeded sequence's distinct spaces: the paper space and chains
/// of depth 8 and 16 with seeded extents (9..13), in seeded order.
std::vector<SweepSpace> sweepSpaces(std::uint64_t seed);
/// Sweep `index` of the sequence, as an index into sweepSpaces():
/// paper, first chain, paper, second chain, repeated.
std::size_t sweepAt(std::size_t index);

// ---- serve_mixed ----
struct ServeRequest {
  enum class Kind { Hot, Variant, Unique };
  Kind kind = Kind::Hot;
  Kernel kernel;
  Params params; ///< late options (Variant only)
};
/// The 8-kernel hot set: small Helmholtz, interpolation and chain
/// kernels.
std::vector<Kernel> serveHotSet(std::uint64_t seed);
/// Request `index` of the mix: ~70% hot repeats, ~15% m/k/unroll
/// variants of hot kernels, ~15% unique (cold) kernels. The variants
/// become flow hits once each (kernel, m, unroll) was seen, so ~15%
/// unique puts the p90 a third into the unique requests' latencies
/// instead of on the edge between fast and slow requests.
ServeRequest serveRequest(std::uint64_t seed, std::size_t index,
                          const std::vector<Kernel>& hot);

} // namespace perfbench
