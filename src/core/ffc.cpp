#include "core/ffc.hpp"

#include <algorithm>
#include <bit>

#include "graph/algorithms.hpp"
#include "util/require.hpp"

namespace dbr::core {

namespace {

/// The per-node successor base of the De Bruijn shift rule,
/// (u % suffix_count) * d == (u * d) % size, with the modulo
/// strength-reduced to a mask when d^n is a power of two (every d = 2^k
/// instance): the hardware division otherwise dominates the per-edge cost
/// of the masked Tarjan and the broadcast BFS in the arena solve.
struct SuccBase {
  Word suffix_count;
  Word d;
  Word mask;
  Word shift;  ///< log2(d), meaningful only when pow2
  bool pow2;

  explicit SuccBase(const WordSpace& ws)
      : suffix_count(ws.size() / ws.radix()),
        d(ws.radix()),
        mask(ws.size() - 1),
        shift(static_cast<Word>(std::countr_zero(static_cast<Word>(ws.radix())))),
        pow2((ws.size() & (ws.size() - 1)) == 0) {}

  Word operator()(Word u) const {
    return pow2 ? (u * d) & mask : (u % suffix_count) * d;
  }

  /// The shared predecessor suffix: preds of u are a * suffix_count + u / d.
  Word pred_base(Word u) const { return pow2 ? u >> shift : u / d; }
};

/// Smallest node of the largest strongly connected component of the active
/// subgraph (ties toward the smaller minimum node); leaves the Tarjan
/// component labels in s.scc_comp.
Word largest_component_arena(const WordSpace& ws, SolveScratch& s) {
  const Word size = ws.size();
  const Digit d = ws.radix();
  const SuccBase succ(ws);

  // Masked iterative Tarjan over the De Bruijn successor rule: the succs of
  // v are suffix(v) * d + a, generated digit by digit, so no per-frame
  // successor vector is ever materialized.
  s.scc_index.assign(size, kNoWord);
  s.scc_low.resize(size);
  s.scc_comp.resize(size);
  s.on_stack.assign(size, false);
  s.scc_stack.clear();
  s.scc_frames.clear();
  Word next_index = 0;
  Word component_count = 0;
  for (Word start = 0; start < size; ++start) {
    if (!s.active.test(start) || s.scc_index[start] != kNoWord) continue;
    s.scc_index[start] = s.scc_low[start] = next_index++;
    s.scc_stack.push_back(start);
    s.on_stack.set(start);
    s.scc_frames.push_back({start, succ(start), 0});
    while (!s.scc_frames.empty()) {
      SolveScratch::SccFrame& f = s.scc_frames.back();
      if (f.next_digit < d) {
        const Word w = f.succ_base + f.next_digit++;
        if (!s.active.test(w)) continue;
        if (s.scc_index[w] == kNoWord) {
          s.scc_index[w] = s.scc_low[w] = next_index++;
          s.scc_stack.push_back(w);
          s.on_stack.set(w);
          s.scc_frames.push_back({w, succ(w), 0});
        } else if (s.on_stack.test(w)) {
          s.scc_low[f.node] = std::min(s.scc_low[f.node], s.scc_index[w]);
        }
      } else {
        const Word v = f.node;
        if (s.scc_low[v] == s.scc_index[v]) {
          for (;;) {
            const Word w = s.scc_stack.back();
            s.scc_stack.pop_back();
            s.on_stack.reset(w);
            s.scc_comp[w] = component_count;
            if (w == v) break;
          }
          ++component_count;
        }
        s.scc_frames.pop_back();
        if (!s.scc_frames.empty()) {
          Word& parent_low = s.scc_low[s.scc_frames.back().node];
          parent_low = std::min(parent_low, s.scc_low[v]);
        }
      }
    }
  }

  // Maximize size, ties toward the smaller minimum node (an ascending scan,
  // so minima fill in order).
  s.comp_size.assign(component_count, 0);
  s.comp_min.assign(component_count, kNoWord);
  for (Word v = 0; v < size; ++v) {
    if (!s.active.test(v)) continue;
    const Word c = s.scc_comp[v];
    ++s.comp_size[c];
    if (s.comp_min[c] == kNoWord) s.comp_min[c] = v;
  }
  Word best_root = kNoWord;
  std::uint64_t best_size = 0;
  for (Word c = 0; c < component_count; ++c) {
    if (s.comp_min[c] == kNoWord) continue;
    if (s.comp_size[c] > best_size ||
        (s.comp_size[c] == best_size && s.comp_min[c] < best_root)) {
      best_size = s.comp_size[c];
      best_root = s.comp_min[c];
    }
  }
  require(best_root != kNoWord, "all nodes are faulty");
  return best_root;
}

}  // namespace

// The FFC algorithm against a reusable SolveScratch and the context's
// precomputed label-merge tables. Every tie-break is order-independent: BFS
// parents are the *minimum* distance-(d-1) predecessor, the distinguished
// component maximizes (size, -min_node), and Steps 1.2/2 pick minima over
// whole member slices. So the work is organized for speed (one SCC pass,
// skipped entirely when the active graph is strongly connected; flat
// epoch-stamped tables; CSR slices) while the result stays that of the
// plain algorithm, which bench/ffc_reference.hpp spells out and
// test_solve_arena holds field for field across the scenario corpus.
FfcResult solve_ffc(const InstanceContext& ctx, std::span<const Word> faulty_nodes,
                    SolveScratch& s, const FfcOptions& options) {
  const WordSpace& ws = ctx.words();
  const NecklaceTable& nt = ctx.necklaces();
  const LabelMergeTable& lm = ctx.label_merge();
  const Word size = ws.size();
  const Digit d = ws.radix();
  const Word suffix_count = size / d;
  const SuccBase succ(ws);

  FfcResult result;

  // Faulty necklaces (sorted distinct reps), mirroring necklace_reps_of.
  s.reps_tmp.clear();
  for (Word f : faulty_nodes) {
    require(f < size, "node out of range");
    s.reps_tmp.push_back(nt.min_rot[f]);
  }
  std::sort(s.reps_tmp.begin(), s.reps_tmp.end());
  s.reps_tmp.erase(std::unique(s.reps_tmp.begin(), s.reps_tmp.end()),
                   s.reps_tmp.end());
  result.faulty_necklace_reps.assign(s.reps_tmp.begin(), s.reps_tmp.end());

  // Active mask: faulty necklaces removed whole, via their CSR slices.
  s.active.assign(size, true);
  std::uint64_t removed = 0;
  for (Word rep : result.faulty_necklace_reps) {
    const std::uint32_t i = lm.necklace_index[rep];
    for (std::uint64_t j = lm.member_begin[i]; j < lm.member_begin[i + 1]; ++j) {
      s.active.reset(lm.members[j]);
    }
    removed += lm.period(i);
  }
  result.faulty_node_count = removed;

  // --- Choose the distinguished node R and its component B*. ---
  // B* is the SCC of R within the active subgraph: forward reach intersected
  // with backward reach for an explicit root, the Tarjan labels otherwise.

  // Step 1.1's broadcast BFS (min-predecessor tie-break) over an explicit
  // node mask, so the strong-connectivity fast path below can run it over
  // `active` before B* is known.
  std::uint32_t eccentricity = 0;
  std::uint64_t reached = 0;
  const auto broadcast = [&](Word r, const BitVec& mask) {
    s.dist.assign(size, kUnreached);
    s.parent.resize(size);
    s.dist[r] = 0;
    s.parent[r] = kNoWord;
    s.frontier.clear();
    s.frontier.push_back(r);
    reached = 1;
    eccentricity = 0;
    while (!s.frontier.empty()) {
      s.frontier_next.clear();
      for (Word u : s.frontier) {
        const std::uint32_t du = s.dist[u];
        const Word base = succ(u);
        for (Digit a = 0; a < d; ++a) {
          const Word w = base + a;
          if (w == u) continue;  // loops carry no broadcast information
          if (!mask.test(w)) continue;
          if (s.dist[w] == kUnreached) {
            s.dist[w] = du + 1;
            s.parent[w] = u;
            s.frontier_next.push_back(w);
            ++reached;
            eccentricity = std::max(eccentricity, du + 1);
          } else if (s.dist[w] == du + 1 && u < s.parent[w]) {
            s.parent[w] = u;  // same round, smaller sender id wins
          }
        }
      }
      s.frontier.swap(s.frontier_next);
    }
  };

  Word root = kNoWord;
  bool broadcast_done = false;
  if (options.root.has_value()) {
    require(*options.root < size, "root out of range");
    require(s.active.test(*options.root),
            "requested root lies on a faulty necklace");
    root = nt.min_rot[*options.root];
    // Forward reach into s.comp.
    s.comp.assign(size, false);
    s.comp.set(root);
    s.frontier.clear();
    s.frontier.push_back(root);
    while (!s.frontier.empty()) {
      s.frontier_next.clear();
      for (Word u : s.frontier) {
        const Word base = succ(u);
        for (Digit a = 0; a < d; ++a) {
          const Word w = base + a;
          if (s.active.test(w) && !s.comp.test(w)) {
            s.comp.set(w);
            s.frontier_next.push_back(w);
          }
        }
      }
      s.frontier.swap(s.frontier_next);
    }
    // Backward reach, then intersect.
    s.backward.assign(size, false);
    s.backward.set(root);
    s.frontier.clear();
    s.frontier.push_back(root);
    while (!s.frontier.empty()) {
      s.frontier_next.clear();
      for (Word u : s.frontier) {
        const Word base = u / d;
        for (Digit a = 0; a < d; ++a) {
          const Word w = a * suffix_count + base;
          if (s.active.test(w) && !s.backward.test(w)) {
            s.backward.set(w);
            s.frontier_next.push_back(w);
          }
        }
      }
      s.frontier.swap(s.frontier_next);
    }
    s.comp.and_with(s.backward);
  } else {
    // Fast path: when the active graph is itself strongly connected — the
    // overwhelmingly common case under few faults — B* is all of it and R
    // is its smallest active node, so the Tarjan pass is skipped entirely.
    // Established by the Step-1.1 broadcast from that node (reused below)
    // plus one backward reachability sweep. The selection is unchanged: the
    // single SCC is trivially the largest, and R is its minimum node.
    Word first_active = kNoWord;
    for (Word v = 0; v < size; ++v) {
      if (s.active.test(v)) {
        first_active = v;
        break;
      }
    }
    require(first_active != kNoWord, "all nodes are faulty");
    const std::uint64_t active_count = size - removed;
    broadcast(first_active, s.active);
    if (reached == active_count) {
      // Backward sweep over the predecessor rule a.prefix(u).
      s.backward.assign(size, false);
      s.backward.set(first_active);
      s.frontier.clear();
      s.frontier.push_back(first_active);
      std::uint64_t seen = 1;
      while (!s.frontier.empty() && seen < active_count) {
        s.frontier_next.clear();
        for (Word u : s.frontier) {
          const Word base = succ.pred_base(u);
          for (Digit a = 0; a < d; ++a) {
            const Word w = a * suffix_count + base;
            if (s.active.test(w) && !s.backward.test(w)) {
              s.backward.set(w);
              ++seen;
              s.frontier_next.push_back(w);
            }
          }
        }
        s.frontier.swap(s.frontier_next);
      }
      if (seen == active_count) {
        root = first_active;
        s.comp = s.active;  // B* is every surviving node
        broadcast_done = true;
      }
    }
    if (!broadcast_done) {
      root = largest_component_arena(ws, s);
      const Word root_comp = s.scc_comp[root];
      s.comp.assign(size, false);
      for (Word v = 0; v < size; ++v) {
        if (s.active.test(v) && s.scc_comp[v] == root_comp) s.comp.set(v);
      }
    }
  }
  ensure(s.comp.test(root), "root must belong to its own component");
  result.root = root;

  // --- Step 1.1: broadcast tree T' (BFS with min-predecessor tie-break);
  // already computed when the fast path proved B* == active. ---
  if (!broadcast_done) broadcast(root, s.comp);
  const std::uint64_t comp_size = s.comp.count();
  ensure(reached == comp_size,
         "broadcast must reach every node of the strongly connected B*");
  result.bstar_size = comp_size;
  result.root_eccentricity = eccentricity;
  const Word root_rep = nt.min_rot[root];
  ensure(root_rep == root, "root is canonical by construction");

  // --- Step 1.2: spanning tree T of N*: per component necklace, the leader
  // is the member minimizing (broadcast round, id) over its CSR slice. T
  // has one edge per non-root necklace of B*, so it is sized up front. ---
  result.necklace_count = 0;
  for (Word rep : nt.reps) result.necklace_count += s.comp.test(rep) ? 1 : 0;
  result.tree_edges.reserve(result.necklace_count - 1);
  for (Word rep : nt.reps) {
    if (!s.comp.test(rep) || rep == root_rep) continue;
    const std::uint32_t i = lm.necklace_index[rep];
    Word leader = kNoWord;
    std::uint32_t best_dist = kUnreached;
    for (std::uint64_t j = lm.member_begin[i]; j < lm.member_begin[i + 1]; ++j) {
      const Word v = lm.members[j];
      if (s.dist[v] < best_dist || (s.dist[v] == best_dist && v < leader)) {
        best_dist = s.dist[v];
        leader = v;
      }
    }
    ensure(leader != kNoWord, "every component necklace has a leader");
    const Word parent = s.parent[leader];
    ensure(parent != kNoWord, "non-root leader must have a broadcast parent");
    const Word parent_rep = nt.min_rot[parent];
    ensure(parent_rep != rep, "leader's parent lies in a different necklace");
    result.tree_edges.push_back({parent_rep, rep, ws.prefix(leader)});
  }
  std::sort(result.tree_edges.begin(), result.tree_edges.end());

  // --- Step 2: modify each label class T_w into a cycle, via a flat
  // parent-per-label table and one (label, child) sort. A class of k tree
  // edges becomes a cycle of k + 1 D-edges. ---
  s.parent_by_label.begin(suffix_count);
  s.label_pairs.clear();
  std::size_t label_classes = 0;
  for (const LabeledEdge& e : result.tree_edges) {
    if (s.parent_by_label.contains(e.label)) {
      ensure(s.parent_by_label.get(e.label) == e.from,
             "T_w must have a common parent (height-one property, Step 1.2)");
    } else {
      s.parent_by_label.put(e.label, e.from);
      ++label_classes;
    }
    s.label_pairs.emplace_back(e.label, e.to);
  }
  std::sort(s.label_pairs.begin(), s.label_pairs.end());
  result.modified_edges.reserve(result.tree_edges.size() + label_classes);
  for (std::size_t i = 0; i < s.label_pairs.size();) {
    const Word label = s.label_pairs[i].first;
    s.members_tmp.clear();
    std::size_t j = i;
    for (; j < s.label_pairs.size() && s.label_pairs[j].first == label; ++j) {
      s.members_tmp.push_back(s.label_pairs[j].second);  // ascending by sort
    }
    const Word parent = s.parent_by_label.get(label);
    s.members_tmp.insert(
        std::lower_bound(s.members_tmp.begin(), s.members_tmp.end(), parent),
        parent);
    for (std::size_t k = 0; k < s.members_tmp.size(); ++k) {
      result.modified_edges.push_back(
          {s.members_tmp[k], s.members_tmp[(k + 1) % s.members_tmp.size()],
           label});
    }
    i = j;
  }
  std::sort(result.modified_edges.begin(), result.modified_edges.end());

  // --- Step 3: successor rule, with exit/entry nodes served by the
  // precomputed per-necklace label tables instead of necklace rescans. ---
  s.reroute.begin(size);
  for (const LabeledEdge& e : result.modified_edges) {
    const Word exit_node = lm.exit_of(ws, lm.necklace_index[e.from], e.label);
    const Word entry_node = lm.entry_of(ws, lm.necklace_index[e.to], e.label);
    ensure(exit_node != kNoWord && entry_node != kNoWord,
           "both endpoints of a D-edge expose the label");
    ensure(!s.reroute.contains(exit_node),
           "each node is rerouted by at most one D-edge");
    s.reroute.put(exit_node, entry_node);
  }

  // --- Walk H from the root (table-driven rotation successors). ---
  result.cycle.nodes.reserve(comp_size);
  s.visited.assign(size, false);
  Word cur = root;
  for (std::uint64_t step = 0; step < comp_size; ++step) {
    ensure(s.comp.test(cur) && !s.visited.test(cur),
           "H must stay in B* and not revisit");
    s.visited.set(cur);
    result.cycle.nodes.push_back(cur);
    cur = s.reroute.contains(cur) ? s.reroute.get(cur) : lm.rot_next[cur];
  }
  ensure(cur == root, "H must close after |B*| steps (Proposition 2.1)");
  return result;
}

FfcResult solve_ffc(const InstanceContext& ctx, std::span<const Word> faulty_nodes,
                    const FfcOptions& options) {
  return solve_ffc(ctx, faulty_nodes, solve_scratch_tls(), options);
}

std::pair<std::uint64_t, std::uint64_t> ffc_cycle_length_bounds(
    Digit d, unsigned n, std::uint64_t fault_count) {
  // WordSpace validates d >= 2, n >= 1 and d^(n+1) representable, so d^n
  // below is exact (no silent wraparound for out-of-range instances).
  const std::uint64_t size = WordSpace(d, n).size();
  const std::uint64_t f = fault_count;
  const std::uint64_t upper = f >= size ? 0 : size - f;
  std::uint64_t lower = 0;
  if (f <= d - 2) {
    const std::uint64_t removed = static_cast<std::uint64_t>(n) * f;
    lower = removed >= size ? 0 : size - removed;  // Proposition 2.2
  } else if (d == 2 && f == 1) {
    const std::uint64_t removed = static_cast<std::uint64_t>(n) + 1;
    lower = removed >= size ? 0 : size - removed;  // Proposition 2.3
  }
  return {lower, upper};
}

}  // namespace dbr::core
