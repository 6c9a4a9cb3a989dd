// Seeded input generation for the benchmark: the property graph every
// workload runs on, and the query texts each workload sends. The program
// under test only ever receives what these functions return.
#ifndef GQZOO_PERFBENCH_GENERATOR_H_
#define GQZOO_PERFBENCH_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/language.h"
#include "src/graph/graph.h"

namespace perfbench {

/// SplitMix64: a tiny deterministic generator, so the same seed gives the
/// same inputs on every standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Ranks 0..n-1 drawn with probability proportional to 1 / (rank+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The generated property graph. Nodes are named `n<i>` with node label
/// `Account` and an integer property `risk` in [0, 100); edges are named
/// `e<i>` with an integer property `amount` in [1, 1000], labelled
/// Transfer / owner / isBlocked / flagged with shares of 70/20/9/1 %.
/// Sources are uniform; targets follow a Zipf law over a seeded permutation
/// of the nodes, so in-degree is skewed and the hubs differ from seed to
/// seed.
gqzoo::PropertyGraph GenerateGraph(size_t nodes, size_t edges, uint64_t seed);

/// One read the benchmark can send, in-process or over the wire.
struct ReadText {
  gqzoo::QueryLanguage language = gqzoo::QueryLanguage::kCrpq;
  std::string text;
  // kPaths only.
  std::string paths_from;
  std::string paths_to;
  /// Row cap of listing-style results (rpq, gqlgroup, paths).
  uint32_t display_rows = 100;
};

/// The fixed analytic mix over the zoo (engine_analytic), with constants
/// drawn from `g`: a 2RPQ (first: the cheapest, used as the set-up query),
/// a cyclic triangle CRPQ, an acyclic 3-atom CRPQ, a constant-anchored
/// 2-hop CRPQ, `flagged Transfer{1,3}`, a CoreGQL 2-hop join, a GQL group
/// pattern, a dl-CRPQ data filter and a shortest-paths query between two
/// nodes three hops apart.
std::vector<ReadText> ZooMix(const gqzoo::PropertyGraph& g, uint64_t seed);

/// 1-hop point lookups with a node constant, one per direction:
/// `q(y) :- <label>(@n, y)` and `q(x) :- <label>(x, @n)`.
ReadText OutLookup(const std::string& label, const std::string& node);
ReadText InLookup(const std::string& label, const std::string& node);

/// A 1-hop RPQ over every `label` edge, listing `rows` of its pairs.
/// RPQ answers stream row by row, so it spans many ROWS frames.
ReadText EdgeListing(const std::string& label, uint32_t rows);

}  // namespace perfbench

#endif  // GQZOO_PERFBENCH_GENERATOR_H_
