#pragma once

// The reference FFC solve: the Chapter-2 algorithm written the plain way,
// one step per paragraph of Section 2.2, with std::vector<bool> masks,
// graph-library BFS/SCC passes and unordered_maps allocated per call.
//
// It is not a library path. It is the differential baseline the production
// solve (core::solve_ffc, an arena rewrite of the same algorithm) is held
// against: tests/test_solve_arena.cpp requires the two field-for-field
// identical over the whole scenario corpus, and bench/fault_churn.cpp times
// them against each other (raw_speed.cold_solve_speedup). Its helpers
// (active_mask, component_of, necklace_adjacency) also serve the benches and
// tests that print or audit the intermediate structures of Section 2.2.
//
// Header-only and free of google-benchmark, so test binaries include it too.

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/ffc.hpp"
#include "core/instance_context.hpp"
#include "debruijn/debruijn.hpp"
#include "debruijn/necklaces.hpp"
#include "graph/algorithms.hpp"
#include "util/require.hpp"

namespace dbr::ffc_reference {

/// The necklace adjacency graph N* of Section 2.2: nodes are the necklaces
/// of B*, with an edge labeled w (a (n-1)-digit value) from [x] to [y]
/// whenever a.w is in [x] and b.w is in [y] for digits a != b. Edges come in
/// antiparallel pairs sharing a label.
struct NecklaceAdjacency {
  struct Edge {
    Word from;   // necklace representative
    Word to;     // necklace representative
    Word label;  // (n-1)-digit value w

    auto operator<=>(const Edge&) const = default;
  };

  std::vector<Word> reps;   // sorted representatives of the necklaces of B*
  std::vector<Edge> edges;  // all directed labeled edges, sorted
};

/// Implicit reversal of B(d,n): successors become shift_prepend moves.
struct ReverseDeBruijn {
  const DeBruijnDigraph* g;

  NodeId num_nodes() const { return g->num_nodes(); }

  template <typename Fn>
  void for_each_successor(NodeId v, Fn&& fn) const {
    for (Digit a = 0; a < g->radix(); ++a) fn(g->words().shift_prepend(v, a));
  }
};

/// Active-node mask after removing faulty necklaces (true = in play).
inline std::vector<bool> active_mask(const core::InstanceContext& ctx,
                                     std::span<const Word> faulty_nodes) {
  const WordSpace& ws = ctx.words();
  std::vector<bool> active(ws.size(), true);
  for (Word rep : necklace_reps_of(ws, faulty_nodes)) {
    for (Word v : necklace_nodes(ws, rep)) active[v] = false;
  }
  return active;
}

/// The strongly connected component of `root` within the active subgraph
/// (forward-reach intersected with backward-reach). Returned as a mask.
inline std::vector<bool> component_of(const core::InstanceContext& ctx,
                                      const std::vector<bool>& active, Word root) {
  const DeBruijnDigraph graph(ctx.words());
  require(root < graph.num_nodes(), "root out of range");
  require(active[root], "root must be a nonfaulty node");
  const SubgraphView<DeBruijnDigraph> fwd(graph, active);
  const auto forward = bfs(fwd, root, [&](NodeId v) { return active[v]; });
  const ReverseDeBruijn rev{&graph};
  const SubgraphView<ReverseDeBruijn> bwd(rev, active);
  const auto backward = bfs(bwd, root, [&](NodeId v) { return active[v]; });
  std::vector<bool> comp(graph.num_nodes(), false);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    comp[v] = forward.dist[v] != kUnreached && backward.dist[v] != kUnreached;
  }
  return comp;
}

/// Representative (smallest node) and size of the largest strongly
/// connected component of the active subgraph, ties toward the component
/// containing the smaller node.
inline std::pair<Word, std::uint64_t> largest_component_root(
    const core::InstanceContext& ctx, const std::vector<bool>& active) {
  const DeBruijnDigraph graph(ctx.words());
  require(active.size() == graph.num_nodes(), "active mask size mismatch");
  const SubgraphView<DeBruijnDigraph> view(graph, active);
  const auto scc = strongly_connected_components(view);
  std::vector<std::uint64_t> size(scc.count, 0);
  std::vector<Word> min_node(scc.count, kNoParent);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (!active[v]) continue;
    const auto c = scc.component[v];
    ++size[c];
    if (min_node[c] == kNoParent) min_node[c] = v;  // ascending scan
  }
  Word best_root = kNoParent;
  std::uint64_t best_size = 0;
  for (std::uint64_t c = 0; c < scc.count; ++c) {
    if (min_node[c] == kNoParent) continue;
    if (size[c] > best_size ||
        (size[c] == best_size && min_node[c] < best_root)) {
      best_size = size[c];
      best_root = min_node[c];
    }
  }
  require(best_root != kNoParent, "all nodes are faulty");
  return {best_root, best_size};
}

/// The necklace adjacency graph N* over a given active mask (closed under
/// rotation: whole necklaces are in or out).
inline NecklaceAdjacency necklace_adjacency(const core::InstanceContext& ctx,
                                            const std::vector<bool>& active) {
  const WordSpace& ws = ctx.words();
  const std::vector<Word>& min_rot = ctx.necklaces().min_rot;
  require(active.size() == ws.size(), "active mask size mismatch");
  NecklaceAdjacency out;
  for (Word x = 0; x < ws.size(); ++x) {
    if (active[x] && min_rot[x] == x) out.reps.push_back(x);
  }
  // For every (n-1)-digit value w, the active nodes of the form a.w sit in
  // pairwise-distinct necklaces; each unordered pair yields two antiparallel
  // w-labeled edges.
  const Word suffix_count = ws.size() / ws.radix();
  std::vector<Word> reps_for_w;
  for (Word w = 0; w < suffix_count; ++w) {
    reps_for_w.clear();
    for (Digit a = 0; a < ws.radix(); ++a) {
      const Word node = ws.compose_prefix(a, w);
      if (active[node]) reps_for_w.push_back(min_rot[node]);
    }
    std::sort(reps_for_w.begin(), reps_for_w.end());
    ensure(std::adjacent_find(reps_for_w.begin(), reps_for_w.end()) ==
               reps_for_w.end(),
           "a.w and b.w cannot share a necklace (Section 2.2)");
    for (std::size_t i = 0; i < reps_for_w.size(); ++i) {
      for (std::size_t j = 0; j < reps_for_w.size(); ++j) {
        if (i != j) out.edges.push_back({reps_for_w[i], reps_for_w[j], w});
      }
    }
  }
  std::sort(out.edges.begin(), out.edges.end());
  return out;
}

/// The full FFC algorithm, allocating all working state per call. Same
/// contract and same result bytes as core::solve_ffc.
inline core::FfcResult solve(const core::InstanceContext& ctx,
                             std::span<const Word> faulty_nodes,
                             const core::FfcOptions& options = {}) {
  const WordSpace& ws = ctx.words();
  const DeBruijnDigraph graph(ws);
  const std::vector<Word>& min_rot = ctx.necklaces().min_rot;
  core::FfcResult result;
  result.faulty_necklace_reps = necklace_reps_of(ws, faulty_nodes);
  result.faulty_node_count = necklace_node_count(ws, result.faulty_necklace_reps);
  const std::vector<bool> active = active_mask(ctx, faulty_nodes);

  // --- Choose the distinguished node R and its component B*. ---
  Word root;
  if (options.root.has_value()) {
    require(*options.root < ws.size(), "root out of range");
    require(active[*options.root], "requested root lies on a faulty necklace");
    root = min_rot[*options.root];  // ensure N(R) == [R]
  } else {
    root = largest_component_root(ctx, active).first;
  }
  const std::vector<bool> comp = component_of(ctx, active, root);
  ensure(comp[root], "root must belong to its own component");
  result.root = root;

  // --- Step 1.1: broadcast tree T' (BFS with min-predecessor tie-break). ---
  const SubgraphView<DeBruijnDigraph> view(graph, comp);
  const auto tree = bfs(view, root, [&](NodeId v) { return comp[v]; });

  // --- Necklaces of B* and their leaders. ---
  std::uint64_t comp_size = 0;
  std::vector<Word> comp_reps;
  for (Word x = 0; x < ws.size(); ++x) {
    if (!comp[x]) continue;
    ++comp_size;
    ensure(tree.dist[x] != kUnreached,
           "broadcast must reach every node of the strongly connected B*");
    if (min_rot[x] == x) comp_reps.push_back(x);
  }
  result.bstar_size = comp_size;
  result.root_eccentricity = tree.eccentricity();
  result.necklace_count = comp_reps.size();
  const Word root_rep = min_rot[root];
  ensure(root_rep == root, "root is canonical by construction");

  // --- Step 1.2: spanning tree T of N*. For each necklace choose the leader
  // Y (first node to receive M; ties toward the smaller id); the tree edge
  // enters at Y with label w = first n-1 digits of Y, from the necklace of
  // Y's broadcast parent. ---
  for (Word rep : comp_reps) {
    if (rep == root_rep) continue;
    Word leader = kNoParent;
    std::uint32_t best_dist = kUnreached;
    for (Word v : necklace_nodes(ws, rep)) {
      if (tree.dist[v] < best_dist ||
          (tree.dist[v] == best_dist && v < leader)) {
        best_dist = tree.dist[v];
        leader = v;
      }
    }
    ensure(leader != kNoParent, "every component necklace has a leader");
    const Word parent = tree.parent[leader];
    ensure(parent != kNoParent, "non-root leader must have a broadcast parent");
    const Word parent_rep = min_rot[parent];
    ensure(parent_rep != rep, "leader's parent lies in a different necklace");
    result.tree_edges.push_back({parent_rep, rep, ws.prefix(leader)});
  }
  std::sort(result.tree_edges.begin(), result.tree_edges.end());

  // --- Step 2: modify each label class T_w (a height-one star) into a
  // cycle ordered by necklace representative with wrap-around. ---
  std::unordered_map<Word, std::vector<Word>> members_by_label;
  std::unordered_map<Word, Word> parent_by_label;
  for (const core::LabeledEdge& e : result.tree_edges) {
    auto [it, inserted] = parent_by_label.try_emplace(e.label, e.from);
    ensure(it->second == e.from,
           "T_w must have a common parent (height-one property, Step 1.2)");
    members_by_label[e.label].push_back(e.to);
  }
  for (auto& [label, members] : members_by_label) {
    members.push_back(parent_by_label.at(label));
    std::sort(members.begin(), members.end());
    for (std::size_t i = 0; i < members.size(); ++i) {
      result.modified_edges.push_back(
          {members[i], members[(i + 1) % members.size()], label});
    }
  }
  std::sort(result.modified_edges.begin(), result.modified_edges.end());

  // --- Step 3: successor rule. A D-edge ([x] --w--> [y]) reroutes the exit
  // node of [x] with suffix w to the entry node of [y] with prefix w; all
  // other nodes follow their necklace successor. ---
  std::unordered_map<Word, Word> reroute;  // exit node -> entry node
  for (const core::LabeledEdge& e : result.modified_edges) {
    Word exit_node = kNoParent, entry_node = kNoParent;
    for (Word v : necklace_nodes(ws, e.from)) {
      if (ws.suffix(v) == e.label) {
        ensure(exit_node == kNoParent, "exit node is unique per label");
        exit_node = v;
      }
    }
    for (Word v : necklace_nodes(ws, e.to)) {
      if (ws.prefix(v) == e.label) {
        ensure(entry_node == kNoParent, "entry node is unique per label");
        entry_node = v;
      }
    }
    ensure(exit_node != kNoParent && entry_node != kNoParent,
           "both endpoints of a D-edge expose the label");
    const bool inserted = reroute.emplace(exit_node, entry_node).second;
    ensure(inserted, "each node is rerouted by at most one D-edge");
  }

  // --- Walk H from the root. ---
  result.cycle.nodes.reserve(comp_size);
  std::vector<bool> visited(ws.size(), false);
  Word cur = root;
  for (std::uint64_t step = 0; step < comp_size; ++step) {
    ensure(comp[cur] && !visited[cur], "H must stay in B* and not revisit");
    visited[cur] = true;
    result.cycle.nodes.push_back(cur);
    const auto it = reroute.find(cur);
    cur = it != reroute.end() ? it->second : ws.rotate_left(cur, 1);
  }
  ensure(cur == root, "H must close after |B*| steps (Proposition 2.1)");
  return result;
}

}  // namespace dbr::ffc_reference
