#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/word.hpp"

namespace dbr::core {

/// Flat Word -> Word map over a dense key range with O(1) clear: a slot is
/// live only while its stamp matches the current epoch, so begin() retires
/// every entry with a counter bump instead of an O(range) fill. Backs the
/// per-solve reroute table (Step 3) and the label-keyed lookups (Step 2,
/// repair reconnect anchors) that used to be per-solve unordered_maps.
class EpochMap {
 public:
  /// Starts a fresh map over keys [0, range); retires all previous entries.
  void begin(std::size_t range) {
    if (value_.size() != range) {
      value_.assign(range, 0);
      stamp_.assign(range, 0);
      epoch_ = 1;
      return;
    }
    if (++epoch_ == 0) {  // stamp wraparound: invalidate stale stamps once
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }
  /// True when `key` holds a live entry.
  bool contains(std::size_t key) const { return stamp_[key] == epoch_; }
  /// The live value at `key`; contains(key) must hold (unchecked).
  Word get(std::size_t key) const { return value_[key]; }
  /// Inserts or overwrites the entry at `key`.
  void put(std::size_t key, Word v) {
    stamp_[key] = epoch_;
    value_[key] = v;
  }

 private:
  std::vector<Word> value_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

/// Reusable scratch arena for the solve/repair hot paths (core/ffc,
/// core/mixed_fault, core/repair). Holds every internal mask, queue,
/// distance array and flat lookup table the solvers need, so a steady-state
/// solve allocates nothing beyond its returned result: buffers are sized on
/// first use per (base, n) and reused across solves (a session churning one
/// instance reaches steady state after its first solve).
///
/// Not thread-safe and not reentrant: use one arena per thread — the engine
/// worker pool goes through solve_scratch_tls() — or one per EmbedSession.
/// Buffer contents between solves are unspecified; each solver phase
/// re-initializes exactly what it reads. The members are deliberately
/// public: they are internal workspaces shared by the core solvers, not a
/// stable API surface.
struct SolveScratch {
  // -- bit-packed node masks (solve_ffc) --
  BitVec active;    ///< nonfaulty nodes
  BitVec comp;      ///< B*: the chosen strongly connected component
  BitVec visited;   ///< final ring walk bookkeeping
  BitVec backward;  ///< reverse-reach mask (explicit-root solves)
  BitVec on_stack;  ///< Tarjan SCC stack membership

  // -- BFS workspace --
  std::vector<std::uint32_t> dist;  ///< broadcast distances
  std::vector<Word> parent;         ///< broadcast parents (min-predecessor)
  std::vector<Word> frontier;       ///< current BFS level
  std::vector<Word> frontier_next;  ///< next BFS level

  // -- masked-Tarjan SCC workspace --
  /// One DFS frame: the node, its precomputed successor base
  /// suffix(node) * d, and the next digit to expand.
  struct SccFrame {
    Word node;
    Word succ_base;
    Digit next_digit;
  };
  std::vector<Word> scc_index;          ///< Tarjan discovery index (kNoWord = unvisited)
  std::vector<Word> scc_low;            ///< Tarjan low-link
  std::vector<Word> scc_comp;           ///< component id per node
  std::vector<Word> scc_stack;          ///< Tarjan node stack
  std::vector<SccFrame> scc_frames;     ///< iterative DFS frames
  std::vector<std::uint64_t> comp_size; ///< per-component node count
  std::vector<Word> comp_min;           ///< per-component minimum node

  // -- FFC Steps 2-3 --
  std::vector<Word> reps_tmp;       ///< faulty-rep staging (sort + dedup)
  EpochMap parent_by_label;         ///< Step 2: label -> common parent rep
  std::vector<std::pair<Word, Word>> label_pairs;  ///< Step 2: (label, child rep)
  std::vector<Word> members_tmp;    ///< Step 2: one label class, sorted
  EpochMap reroute;                 ///< Step 3: exit node -> entry node

  // -- mixed-fault solve --
  BitVec faulty_neck;               ///< faulty flag per necklace index
  std::vector<Word> nodes_tmp;      ///< sorted distinct node faults
  std::vector<Word> edges_tmp;      ///< sorted distinct edge faults
  std::vector<Word> pullback_tmp;   ///< accumulated pull-back fault set

  // -- ring repair (RingSplicer) --
  std::vector<Word> ring_next;               ///< successor map (kNoWord = uncovered)
  std::vector<Word> ring_pred;               ///< predecessor map
  std::vector<std::uint32_t> ring_comp;      ///< cycle id per covered node
  std::vector<std::uint32_t> uf_parent;      ///< union-find over cycle ids
  std::vector<std::uint64_t> ring_comp_size; ///< per-cycle cover count
  EpochMap anchor;                           ///< reconnect: label -> anchor node
  std::vector<Word> delta_tmp;               ///< fault-set difference staging
  std::vector<Word> excised_tmp;             ///< reps retired by this repair
};

/// The calling thread's arena: what the scratch-less solve/repair entry
/// points use, giving each engine worker its own reusable buffers.
SolveScratch& solve_scratch_tls();

}  // namespace dbr::core
