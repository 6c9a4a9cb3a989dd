#include "perfbench/generator.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>

namespace perfbench {

using gqzoo::EdgeId;
using gqzoo::NodeId;
using gqzoo::ObjectRef;
using gqzoo::PropertyGraph;
using gqzoo::QueryLanguage;
using gqzoo::Value;

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Draw(Rng& rng) const {
  const double u = rng.Unit();
  const size_t i = static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(i, cdf_.size() - 1);
}

namespace {

/// Edge labels and their shares of all edges.
constexpr const char* kLabels[] = {"Transfer", "owner", "isBlocked", "flagged"};
constexpr double kLabelShares[] = {0.70, 0.20, 0.09, 0.01};

std::string NodeName(size_t i) { return "n" + std::to_string(i); }

size_t DrawLabel(Rng& rng) {
  double u = rng.Unit();
  for (size_t l = 0; l + 1 < std::size(kLabelShares); ++l) {
    if (u < kLabelShares[l]) return l;
    u -= kLabelShares[l];
  }
  return std::size(kLabelShares) - 1;
}

std::string NodeOf(const PropertyGraph& g, NodeId n) {
  return std::string(g.NodeName(n));
}

/// A node with at least one outgoing `label` edge, drawn uniformly.
NodeId NodeWithOutEdge(const PropertyGraph& g, gqzoo::LabelId label,
                       Rng& rng) {
  while (true) {
    const NodeId n = static_cast<NodeId>(rng.Below(g.NumNodes()));
    for (EdgeId e : g.OutEdges(n)) {
      if (g.EdgeLabel(e) == label) return n;
    }
  }
}

/// Some node exactly three `label` hops from `from` (BFS order), or the
/// farthest node reached when nothing lies at distance three.
NodeId ThreeHopsAway(const PropertyGraph& g, NodeId from,
                     gqzoo::LabelId label) {
  std::vector<int> dist(g.NumNodes(), -1);
  std::deque<NodeId> queue = {from};
  dist[from] = 0;
  NodeId last = from;
  while (!queue.empty()) {
    const NodeId n = queue.front();
    queue.pop_front();
    last = n;
    if (dist[n] == 3) return n;
    for (EdgeId e : g.OutEdges(n)) {
      if (g.EdgeLabel(e) != label) continue;
      const NodeId t = g.Tgt(e);
      if (dist[t] < 0) {
        dist[t] = dist[n] + 1;
        queue.push_back(t);
      }
    }
  }
  return last;
}

ReadText Text(QueryLanguage language, std::string text) {
  ReadText r;
  r.language = language;
  r.text = std::move(text);
  return r;
}

}  // namespace

PropertyGraph GenerateGraph(size_t nodes, size_t edges, uint64_t seed) {
  Rng rng(seed);
  PropertyGraph g;
  for (size_t i = 0; i < nodes; ++i) {
    const NodeId n = g.AddNode(NodeName(i), "Account");
    g.SetProperty(ObjectRef::Node(n), "risk",
                  Value(static_cast<int64_t>(rng.Below(100))));
  }
  // Hubs: a seeded permutation decides which node holds each Zipf rank.
  std::vector<NodeId> by_rank(nodes);
  std::iota(by_rank.begin(), by_rank.end(), NodeId{0});
  for (size_t i = nodes; i > 1; --i) {
    std::swap(by_rank[i - 1], by_rank[rng.Below(i)]);
  }
  const Zipf in_degree(nodes, 0.8);
  for (size_t i = 0; i < edges; ++i) {
    const NodeId src = static_cast<NodeId>(rng.Below(nodes));
    const NodeId tgt = by_rank[in_degree.Draw(rng)];
    const EdgeId e = g.AddEdge(src, tgt, kLabels[DrawLabel(rng)],
                               "e" + std::to_string(i));
    g.SetProperty(ObjectRef::Edge(e), "amount",
                  Value(static_cast<int64_t>(1 + rng.Below(1000))));
  }
  return g;
}

std::vector<ReadText> ZooMix(const PropertyGraph& g, uint64_t seed) {
  Rng rng(seed ^ 0x5a00);
  const gqzoo::LabelId transfer = *g.FindLabel("Transfer");
  const NodeId anchor = NodeWithOutEdge(g, transfer, rng);
  const NodeId from = NodeWithOutEdge(g, transfer, rng);
  std::vector<ReadText> mix = {
      Text(QueryLanguage::kRpq, "flagged ~owner"),
      Text(QueryLanguage::kCrpq,
           "q(x, y, z) :- Transfer(x, y), Transfer(y, z), Transfer(z, x)"),
      Text(QueryLanguage::kCrpq,
           "q(x, w) :- flagged(x, y), Transfer(y, z), owner(z, w)"),
      Text(QueryLanguage::kCrpq, "q(z) :- Transfer(@" + NodeOf(g, anchor) +
                                     ", y), Transfer(y, z)"),
      Text(QueryLanguage::kRpq, "flagged Transfer{1,3}"),
      Text(QueryLanguage::kCoreGql,
           "MATCH (x)-[:flagged]->(y)-[:owner]->(z) RETURN x, z"),
      Text(QueryLanguage::kGqlGroup, "(x) (-[t:flagged]->(v)){1,2} (y)"),
      Text(QueryLanguage::kDlCrpq,
           "q(x, y) := (risk < 10)[Transfer][amount < 100] () (x, y)"),
  };
  ReadText paths = Text(QueryLanguage::kPaths, "Transfer+");
  paths.paths_from = NodeOf(g, from);
  paths.paths_to = NodeOf(g, ThreeHopsAway(g, from, transfer));
  mix.push_back(paths);
  return mix;
}

ReadText OutLookup(const std::string& label, const std::string& node) {
  return Text(QueryLanguage::kCrpq,
              "q(y) :- " + label + "(@" + node + ", y)");
}

ReadText InLookup(const std::string& label, const std::string& node) {
  return Text(QueryLanguage::kCrpq,
              "q(x) :- " + label + "(x, @" + node + ")");
}

ReadText EdgeListing(const std::string& label, uint32_t rows) {
  ReadText r = Text(QueryLanguage::kRpq, label);
  r.display_rows = rows;
  return r;
}

}  // namespace perfbench
