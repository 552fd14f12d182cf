#include "Generator.h"

#include <array>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int Rng::uniform(int lo, int hi) {
  return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
}

std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  Rng rng(a * 0x100000001B3ull ^ (b + 0x632BE59BD9B4E019ull));
  rng.next();
  Rng second(rng.next() ^ (c * 0xD6E8FEB86659FD93ull));
  return second.next();
}

namespace {

std::string shape(std::initializer_list<int> extents) {
  std::string out = "[";
  for (int extent : extents) {
    if (out.size() > 1)
      out += ' ';
    out += std::to_string(extent);
  }
  return out + "]";
}

std::string name(const std::string& base, const std::string& tag) {
  return tag.empty() ? base : base + "_" + tag;
}

/// name(base + i, tag): the temporaries of chains.
std::string indexed(const char* base, int i, const std::string& tag) {
  std::string text(base);
  text += std::to_string(i);
  return name(text, tag);
}

/// A short identifier suffix unique per (seed, stream, index).
std::string tagOf(std::uint64_t seed, std::uint64_t stream,
                  std::size_t index) {
  static constexpr char kDigits[] = "0123456789abcdefghijklmnopqrstuv";
  std::uint64_t h = mixSeed(seed, stream) & 0xFFFFFu;
  std::string tag;
  for (int i = 0; i < 4; ++i, h >>= 5)
    tag += kDigits[h & 31];
  return tag + std::to_string(index);
}

constexpr std::uint64_t kColdStream = 1;
constexpr std::uint64_t kValidateStream = 2;
constexpr std::uint64_t kSweepStream = 3;
constexpr std::uint64_t kServeStream = 4;

} // namespace

Kernel helmholtz(int p, const std::string& tag) {
  const int n = p;
  const std::string S = name("S", tag), D = name("D", tag),
                    u = name("u", tag), v = name("v", tag),
                    t = name("t", tag), r = name("r", tag);
  std::string src;
  src += "var input  " + S + " : " + shape({n, n}) + "\n";
  src += "var input  " + D + " : " + shape({n, n, n}) + "\n";
  src += "var input  " + u + " : " + shape({n, n, n}) + "\n";
  src += "var output " + v + " : " + shape({n, n, n}) + "\n";
  src += "var " + t + " : " + shape({n, n, n}) + "\n";
  src += "var " + r + " : " + shape({n, n, n}) + "\n";
  src += t + " = " + S + " # " + S + " # " + S + " # " + u +
         " . [[1 6] [3 7] [5 8]]\n";
  src += r + " = " + D + " * " + t + "\n";
  src += v + " = " + S + " # " + S + " # " + S + " # " + r +
         " . [[0 6] [2 7] [4 8]]\n";
  return {"helmholtz", src};
}

Kernel interpolation(int in, int out, const std::string& tag) {
  const std::string I = name("I", tag), u = name("u", tag),
                    v = name("v", tag);
  std::string src;
  src += "var input  " + I + " : " + shape({out, in}) + "\n";
  src += "var input  " + u + " : " + shape({in, in, in}) + "\n";
  src += "var output " + v + " : " + shape({out, out, out}) + "\n";
  src += v + " = " + I + " # " + I + " # " + I + " # " + u +
         " . [[1 6] [3 7] [5 8]]\n";
  return {"interpolation", src};
}

Kernel chain(int depth, int extent, const std::string& tag) {
  const int n = extent;
  const std::string S = name("S", tag), u = name("u", tag),
                    v = name("v", tag);
  std::string src;
  src += "var input  " + S + " : " + shape({n, n}) + "\n";
  src += "var input  " + u + " : " + shape({n, n, n}) + "\n";
  src += "var output " + v + " : " + shape({n, n, n}) + "\n";
  for (int i = 0; i + 1 < depth; ++i)
    src += "var " + indexed("t", i, tag) + " : " +
           shape({n, n, n}) + "\n";
  std::string prev = u;
  for (int i = 0; i < depth; ++i) {
    const std::string next =
        i + 1 < depth ? indexed("t", i, tag) : v;
    src += next + " = " + S + " # " + S + " # " + S + " # " + prev +
           " . [[1 6] [3 7] [5 8]]\n";
    prev = next;
  }
  return {"chain", src};
}

Kernel entrywise(int statements, int rows, int cols, std::uint64_t seed,
                 const std::string& tag) {
  static constexpr std::array<const char*, 3> kOps = {" + ", " - ", " * "};
  Rng rng(seed);
  const std::string dims = shape({rows, cols});
  const std::vector<std::string> inputs = {name("a", tag), name("b", tag),
                                           name("c", tag)};
  std::string src;
  for (const std::string& input : inputs)
    src += "var input  " + input + " : " + dims + "\n";
  const std::string out = name("z", tag);
  src += "var output " + out + " : " + dims + "\n";
  for (int i = 0; i + 1 < statements; ++i)
    src += "var " + indexed("w", i, tag) + " : " + dims + "\n";
  std::string prev = inputs[0];
  for (int i = 0; i < statements; ++i) {
    const std::string next =
        i + 1 < statements ? indexed("w", i, tag) : out;
    const std::string& a = inputs[rng.next() % inputs.size()];
    const std::string& b = inputs[rng.next() % inputs.size()];
    src += next + " = " + prev + kOps[rng.next() % kOps.size()] + a +
           kOps[rng.next() % kOps.size()] + b;
    // A constant scale keeps values bounded and exercises broadcast.
    if (rng.next() % 2 == 0)
      src += " / " + std::to_string(rng.uniform(2, 4));
    src += "\n";
    prev = next;
  }
  return {"entrywise", src};
}

Kernel coldKernel(std::uint64_t seed, std::size_t index) {
  const std::size_t block = index / kColdBlock;
  // The block's slot order: slot s < 12 is Helmholtz p = 4 + s, then
  // 12 interpolations, 12 chains of depth 2..40, 12 entry-wise chains
  // of 2..13 statements.
  std::vector<int> order(kColdBlock);
  for (std::size_t i = 0; i < kColdBlock; ++i)
    order[i] = static_cast<int>(i);
  Rng blockRng(mixSeed(seed, kColdStream, block));
  blockRng.shuffle(order);
  const int slot = order[index % kColdBlock];

  Rng rng(mixSeed(seed, kColdStream, 1000003 + index));
  const std::string tag = tagOf(seed, kColdStream, index);
  // Within a family the slot fixes the cost-dominating parameter.
  static constexpr std::array<int, 12> kChainDepths = {2,  5,  9,  12, 16, 19,
                                                       23, 26, 30, 33, 37, 40};
  const int position = slot % 12;
  switch (slot / 12) {
  case 0:
    return helmholtz(4 + position, tag);
  case 1:
    return interpolation(rng.uniform(4, 14), rng.uniform(4, 14), tag);
  case 2:
    return chain(kChainDepths[position], rng.uniform(5, 12), tag);
  default:
    return entrywise(2 + position, rng.uniform(3, 16), rng.uniform(3, 16),
                     rng.next(), tag);
  }
}

std::vector<Kernel> validateCorpus(std::uint64_t seed) {
  // The reference evaluator's cost grows with the sixth power of the
  // extent, so extents and depths are fixed; the seed picks the
  // identifiers, the entry-wise shapes and operators, and the order.
  // The shapes are chosen so that neighbouring op costs differ by less
  // than a machine slow mode slows an op (~1.3x) around the p50, p90 and
  // p99 ranks: a percentile that fell in a wide gap between two kernels
  // would jump with the share of the run spent in a slow mode. With 25
  // kernels no percentile rank falls on the edge between two kernels
  // (0.5 * 20 would), where one op more or less of the run's partial
  // last cycle would move it from one kernel to the next; the p50 rank
  // lies amid five kernels of 4.7-6.2 ms.
  Rng rng(mixSeed(seed, kValidateStream));
  std::vector<Kernel> corpus;
  std::size_t index = 0;
  const auto tag = [&] { return tagOf(seed, kValidateStream, index++); };
  for (int p : {5, 7, 9, 10, 11})
    corpus.push_back(helmholtz(p, tag()));
  for (auto [in, out] : {std::pair{6, 8}, {7, 9}, {9, 7}, {8, 9}, {10, 9},
                         {11, 10}, {12, 11}})
    corpus.push_back(interpolation(in, out, tag()));
  for (auto [depth, extent] : {std::pair{8, 4}, {6, 5}, {8, 5}, {3, 6}, {4, 6},
                               {4, 8}, {2, 10}})
    corpus.push_back(chain(depth, extent, tag()));
  for (int statements : {2, 4, 6, 8, 10, 12})
    corpus.push_back(entrywise(statements, rng.uniform(4, 24),
                               rng.uniform(4, 24), rng.next(), tag()));
  rng.shuffle(corpus);
  return corpus;
}

std::size_t SweepSpace::points() const {
  std::size_t total = 1;
  for (const auto& axis : axes)
    total *= axis.second.size();
  return total;
}

SweepSpace paperSpace() {
  SweepSpace space;
  space.name = "paper";
  space.kernel = helmholtz(11);
  space.axes = {{"m", {"1", "2", "4", "8", "16"}},
                {"sharing", {"0", "1"}},
                {"decoupled", {"0", "1"}},
                {"unroll", {"1", "2"}}};
  space.simulateElements = 50000;
  return space;
}

SweepSpace chainSpace(int depth, int extent) {
  SweepSpace space;
  space.name = "chain-" + std::to_string(depth) + "x" + std::to_string(extent);
  space.kernel = chain(depth, extent);
  space.axes = {{"unroll", {"1", "2", "4", "8", "16"}},
                {"m", {"2", "4", "8", "16", "32"}},
                {"opt", {"0", "1"}},
                {"sharing", {"0", "1"}},
                {"objective", {"hw", "sw"}}};
  return space;
}

std::vector<SweepSpace> sweepSpaces(std::uint64_t seed) {
  Rng rng(mixSeed(seed, kSweepStream));
  // Fixed depths keep the cost of a sequence the same for every seed;
  // the seed picks the extents and which chain comes first.
  std::vector<SweepSpace> chains = {chainSpace(8, rng.uniform(9, 13)),
                                    chainSpace(16, rng.uniform(9, 13))};
  rng.shuffle(chains);
  return {paperSpace(), chains[0], chains[1]};
}

std::size_t sweepAt(std::size_t index) {
  static constexpr std::array<std::size_t, 4> kPattern = {0, 1, 0, 2};
  return kPattern[index % kPattern.size()];
}

std::vector<Kernel> serveHotSet(std::uint64_t seed) {
  // Fixed shapes, seeded identifiers and order: every seed's hot set
  // costs the same.
  Rng rng(mixSeed(seed, kServeStream));
  std::vector<Kernel> hot;
  std::size_t index = 0;
  const auto tag = [&] { return tagOf(seed, kServeStream, index++); };
  for (int p : {4, 5, 6})
    hot.push_back(helmholtz(p, tag()));
  for (auto [in, out] : {std::pair{4, 6}, {6, 8}, {8, 5}})
    hot.push_back(interpolation(in, out, tag()));
  for (auto [depth, extent] : {std::pair{2, 6}, {3, 5}})
    hot.push_back(chain(depth, extent, tag()));
  rng.shuffle(hot);
  return hot;
}

ServeRequest serveRequest(std::uint64_t seed, std::size_t index,
                          const std::vector<Kernel>& hot) {
  Rng rng(mixSeed(seed, kServeStream, 1000003 + index));
  ServeRequest request;
  const int draw = rng.uniform(0, 99);
  if (draw < 70) {
    request.kind = ServeRequest::Kind::Hot;
    request.kernel = hot[rng.next() % hot.size()];
  } else if (draw < 85) {
    request.kind = ServeRequest::Kind::Variant;
    request.kernel = hot[rng.next() % hot.size()];
    static constexpr std::array<const char*, 4> kM = {"1", "2", "4", "8"};
    static constexpr std::array<const char*, 3> kUnroll = {"1", "2", "4"};
    const char* m = kM[rng.next() % kM.size()];
    request.params = {{"m", m}, {"k", m},
                      {"unroll", kUnroll[rng.next() % kUnroll.size()]}};
  } else {
    request.kind = ServeRequest::Kind::Unique;
    const std::string tag = tagOf(seed, kServeStream, 1000003 + index);
    switch (rng.uniform(0, 3)) {
    case 0:
      request.kernel = helmholtz(rng.uniform(3, 7), tag);
      break;
    case 1:
      request.kernel = interpolation(rng.uniform(4, 9), rng.uniform(4, 9), tag);
      break;
    case 2:
      request.kernel = chain(rng.uniform(2, 5), rng.uniform(4, 8), tag);
      break;
    default:
      request.kernel = entrywise(rng.uniform(2, 6), rng.uniform(3, 12),
                                 rng.uniform(3, 12), rng.next(), tag);
    }
  }
  return request;
}

} // namespace perfbench
