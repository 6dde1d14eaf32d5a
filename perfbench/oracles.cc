// Checks made apart from the code under test: graph anti-monotonicity
// of the built tree, brute-force recomputation of sampled patterns and
// answers, the nesting property of every answer, and field-by-field
// comparison with answers computed in-process from an independent build.
#include <algorithm>
#include <map>
#include <string>

#include "bench.h"
#include "core/brute_force.h"
#include "core/cohesion.h"
#include "net/theme_network.h"
#include "util/string_util.h"

namespace tcf::perfbench {
namespace {

std::string Key(const std::vector<std::string>& names) {
  std::string key;
  for (const std::string& n : names) key += n + ",";
  return key;
}

std::vector<std::string> Names(const ItemDictionary& dictionary,
                               const Itemset& pattern) {
  std::vector<std::string> names;
  for (ItemId id : pattern) names.push_back(dictionary.Name(id));
  return names;
}

/// The node of `pattern`, walking the set-enumeration tree from the
/// root; TcTree::kNoParent when absent.
TcTree::NodeId FindNode(const TcTree& tree, const Itemset& pattern) {
  TcTree::NodeId node = TcTree::kRoot;
  for (ItemId item : pattern) {
    TcTree::NodeId next = TcTree::kNoParent;
    for (TcTree::NodeId child : tree.node(node).children) {
      if (tree.node(child).item == item) next = child;
    }
    if (next == TcTree::kNoParent) return next;
    node = next;
  }
  return node;
}

}  // namespace

size_t CountAntiMonotoneViolations(const TcTree& tree) {
  size_t violations = 0;
  for (TcTree::NodeId id = 1; id <= tree.num_nodes(); ++id) {
    const TcTree::Node& node = tree.node(id);
    if (node.parent == TcTree::kRoot) continue;
    const auto& child_edges = node.decomposition.sorted_edges();
    const auto& parent_edges =
        tree.node(node.parent).decomposition.sorted_edges();
    if (child_edges.empty() ||
        !std::includes(parent_edges.begin(), parent_edges.end(),
                       child_edges.begin(), child_edges.end())) {
      ++violations;
    }
  }
  return violations;
}

void CheckTreeAgainstBruteForce(const DatabaseNetwork& net,
                                const TcTree& tree, size_t samples,
                                uint64_t seed, Report* report) {
  Rng rng(seed);
  const ItemDictionary& dict = net.dictionary();
  // Present patterns: C*_p(0) and C*_p(alpha) between two stored level
  // thresholds must equal the brute-force fixpoint.
  for (size_t i = 0; i < samples; ++i) {
    const auto id = static_cast<TcTree::NodeId>(
        1 + rng.NextUint64(tree.num_nodes()));
    const Itemset pattern = tree.PatternOf(id);
    const TrussDecomposition& dec = tree.node(id).decomposition;
    const ThemeNetwork tn = InduceThemeNetwork(net, pattern);
    const PatternTruss at0 = BruteForceMaximalPatternTruss(tn, 0.0);
    if (at0.edges != dec.sorted_edges() || at0.vertices != dec.vertices()) {
      report->Mismatch("C*(0) of " + dict.Render(pattern) +
                       " differs from brute force");
    }
    const auto& levels = dec.levels();
    if (levels.size() >= 2) {
      const size_t k = 1 + rng.NextUint64(levels.size() - 1);
      const double alpha = (CohesionToDouble(levels[k - 1].alpha) +
                            CohesionToDouble(levels[k].alpha)) /
                           2;
      if (BruteForceMaximalPatternTruss(tn, alpha).edges !=
          dec.TrussAtAlpha(alpha).edges) {
        report->Mismatch(StrFormat("C*(%.9g) of %s differs from brute force",
                                   alpha, dict.Render(pattern).c_str()));
      }
    }
  }
  // Absent patterns: the set-enumeration candidates p ∪ {s_b} (b a right
  // sibling of p) that the tree omits must have an empty maximal pattern
  // truss when their theme network has edges at all.
  size_t absent_checked = 0;
  for (size_t attempt = 0; attempt < 1000 && absent_checked < samples;
       ++attempt) {
    const auto id = static_cast<TcTree::NodeId>(
        1 + rng.NextUint64(tree.num_nodes()));
    const TcTree::Node& node = tree.node(id);
    for (TcTree::NodeId sibling : tree.node(node.parent).children) {
      if (tree.node(sibling).item <= node.item) continue;
      const Itemset pattern = tree.PatternOf(id).Union(tree.node(sibling).item);
      if (FindNode(tree, pattern) != TcTree::kNoParent) continue;
      const ThemeNetwork tn = InduceThemeNetwork(net, pattern);
      if (tn.edges.empty()) continue;
      ++absent_checked;
      if (!BruteForceMaximalPatternTruss(tn, 0.0).edges.empty()) {
        report->Mismatch("pattern " + dict.Render(pattern) +
                         " is absent from the tree but has a non-empty truss");
      }
      break;  // one candidate per sampled node
    }
  }
  if (absent_checked < samples) {
    report->Mismatch(StrFormat("found only %zu of %zu absent supported "
                               "patterns to check",
                               absent_checked, samples));
  }
}

std::string CheckNesting(const std::vector<WireTruss>& answer) {
  std::map<std::string, const WireTruss*> by_pattern;
  for (const WireTruss& t : answer) by_pattern[Key(t.pattern)] = &t;
  for (const WireTruss& t : answer) {
    if (t.edges.empty()) return "empty truss for " + Key(t.pattern);
    if (!std::is_sorted(t.edges.begin(), t.edges.end())) {
      return "unsorted edges for " + Key(t.pattern);
    }
    if (t.pattern.size() < 2) continue;
    for (size_t drop = 0; drop < t.pattern.size(); ++drop) {
      std::vector<std::string> sub = t.pattern;
      sub.erase(sub.begin() + static_cast<ptrdiff_t>(drop));
      auto it = by_pattern.find(Key(sub));
      if (it == by_pattern.end()) {
        return "subset " + Key(sub) + " of " + Key(t.pattern) +
               " missing from the answer";
      }
      const auto& outer = it->second->edges;
      if (!std::includes(outer.begin(), outer.end(), t.edges.begin(),
                         t.edges.end())) {
        return "edges of " + Key(t.pattern) + " not inside those of " +
               Key(sub);
      }
    }
  }
  return "";
}

std::string CheckAgainstBruteForce(const DatabaseNetwork& net,
                                   const ServeQuery& query,
                                   const std::vector<WireTruss>& answer) {
  const std::vector<ItemId>& items = query.items.items();
  std::map<std::string, PatternTruss> expected;
  for (uint32_t mask = 1; mask < (1u << items.size()); ++mask) {
    std::vector<ItemId> subset;
    for (size_t i = 0; i < items.size(); ++i) {
      if (mask & (1u << i)) subset.push_back(items[i]);
    }
    const Itemset pattern(std::move(subset));
    const ThemeNetwork tn = InduceThemeNetwork(net, pattern);
    if (tn.edges.empty()) continue;
    PatternTruss truss = BruteForceMaximalPatternTruss(tn, query.alpha);
    if (!truss.empty()) {
      expected[Key(Names(net.dictionary(), pattern))] = std::move(truss);
    }
  }
  if (expected.size() != answer.size()) {
    return StrFormat("%zu trusses returned, brute force finds %zu",
                     answer.size(), expected.size());
  }
  for (const WireTruss& t : answer) {
    auto it = expected.find(Key(t.pattern));
    if (it == expected.end()) return "unexpected pattern " + Key(t.pattern);
    if (it->second.edges != t.edges || it->second.vertices != t.vertices) {
      return "truss of " + Key(t.pattern) + " differs from brute force";
    }
  }
  return "";
}

std::string CompareAnswers(const ItemDictionary& dictionary,
                           const std::vector<PatternTruss>& expected,
                           const std::vector<WireTruss>& actual) {
  if (expected.size() != actual.size()) {
    return StrFormat("%zu trusses returned, %zu expected", actual.size(),
                     expected.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    const PatternTruss& e = expected[i];
    const WireTruss& a = actual[i];
    if (Names(dictionary, e.pattern) != a.pattern || e.edges != a.edges ||
        e.vertices != a.vertices) {
      return StrFormat("truss %zu (%s) differs", i,
                       dictionary.Render(e.pattern).c_str());
    }
  }
  return "";
}

}  // namespace tcf::perfbench
