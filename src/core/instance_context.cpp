#include "core/instance_context.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "nt/numtheory.hpp"
#include "util/require.hpp"

namespace dbr::core {

Word LabelMergeTable::exit_of(const WordSpace& ws, std::uint32_t i,
                              Word label) const {
  const auto begin = exit_sorted.begin() + static_cast<std::ptrdiff_t>(member_begin[i]);
  const auto end = exit_sorted.begin() + static_cast<std::ptrdiff_t>(member_begin[i + 1]);
  const auto it = std::lower_bound(
      begin, end, label, [&ws](Word v, Word key) { return ws.suffix(v) < key; });
  return (it != end && ws.suffix(*it) == label) ? *it : kNoWord;
}

Word LabelMergeTable::entry_of(const WordSpace& ws, std::uint32_t i,
                               Word label) const {
  const auto begin = entry_sorted.begin() + static_cast<std::ptrdiff_t>(member_begin[i]);
  const auto end = entry_sorted.begin() + static_cast<std::ptrdiff_t>(member_begin[i + 1]);
  const auto it = std::lower_bound(
      begin, end, label, [&ws](Word v, Word key) { return ws.prefix(v) < key; });
  return (it != end && ws.prefix(*it) == label) ? *it : kNoWord;
}

std::optional<std::size_t> PsiFamilyIndex::first_avoiding(
    std::span<const Word> faulty_edge_words) const {
  std::vector<bool> hit(cycles.size(), false);
  for (Word e : faulty_edge_words) {
    const auto it = members_by_edge.find(e);
    if (it == members_by_edge.end()) continue;
    for (std::uint32_t c : it->second) hit[c] = true;
  }
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    if (!hit[i]) return i;
  }
  return std::nullopt;
}

InstanceContext::InstanceContext(Digit base, unsigned n) : words_(base, n) {}

std::shared_ptr<const InstanceContext> InstanceContext::make(Digit base,
                                                             unsigned n) {
  return std::make_shared<const InstanceContext>(base, n);
}

const NecklaceTable& InstanceContext::necklaces() const {
  std::call_once(necklace_once_, [this] {
    const WordSpace& ws = words();
    NecklaceTable t;
    const Word unset = ws.size();
    t.min_rot.assign(ws.size(), unset);
    // Ascending scan: the first unassigned member of a rotation class is its
    // minimum, so one walk per necklace labels the whole class.
    for (Word x = 0; x < ws.size(); ++x) {
      if (t.min_rot[x] != unset) continue;
      t.reps.push_back(x);
      Word v = x;
      do {
        t.min_rot[v] = x;
        v = ws.rotate_left(v, 1);
      } while (v != x);
    }
    necklace_table_ = std::move(t);
  });
  return necklace_table_;
}

const LabelMergeTable& InstanceContext::label_merge() const {
  std::call_once(label_merge_once_, [this] {
    const NecklaceTable& nt = necklaces();
    const WordSpace& ws = words();
    const Word size = ws.size();
    require(nt.reps.size() <
                std::numeric_limits<std::uint32_t>::max(),
            "necklace count exceeds the 32-bit index range");
    LabelMergeTable t;
    t.necklace_index.assign(size, 0);
    t.rot_next.assign(size, 0);
    t.members.reserve(size);
    t.member_begin.reserve(nt.reps.size() + 1);
    t.member_begin.push_back(0);
    for (std::uint32_t i = 0; i < nt.reps.size(); ++i) {
      Word v = nt.reps[i];
      do {
        t.necklace_index[v] = i;
        t.members.push_back(v);
        const Word next = ws.rotate_left(v, 1);
        t.rot_next[v] = next;
        v = next;
      } while (v != nt.reps[i]);
      t.member_begin.push_back(t.members.size());
    }
    // Label views: each member slice re-sorted by its exit (suffix) resp.
    // entry (prefix) label. Within one necklace both label maps are
    // injective — a.w and b.w (resp. w.a and w.b) cannot share a rotation
    // class (Section 2.2) — which is what makes exit_of/entry_of total
    // functions on the labels a necklace exposes; verified here once so
    // every solve may rely on it.
    t.exit_sorted = t.members;
    t.entry_sorted = t.members;
    for (std::uint32_t i = 0; i < nt.reps.size(); ++i) {
      const auto begin = static_cast<std::ptrdiff_t>(t.member_begin[i]);
      const auto end = static_cast<std::ptrdiff_t>(t.member_begin[i + 1]);
      std::sort(t.exit_sorted.begin() + begin, t.exit_sorted.begin() + end,
                [&ws](Word a, Word b) { return ws.suffix(a) < ws.suffix(b); });
      std::sort(t.entry_sorted.begin() + begin, t.entry_sorted.begin() + end);
      for (std::ptrdiff_t j = begin + 1; j < end; ++j) {
        ensure(ws.suffix(t.exit_sorted[j - 1]) != ws.suffix(t.exit_sorted[j]),
               "exit labels are unique within a necklace (Section 2.2)");
        ensure(ws.prefix(t.entry_sorted[j - 1]) != ws.prefix(t.entry_sorted[j]),
               "entry labels are unique within a necklace (Section 2.2)");
      }
    }
    label_merge_table_ = std::move(t);
  });
  return label_merge_table_;
}

const PsiFamilyIndex& InstanceContext::psi_family() const {
  require(supports_edge_faults(), "psi family requires n >= 2");
  std::call_once(psi_once_, [this] {
    PsiFamilyIndex fam;
    fam.cycles = disjoint_hamiltonian_cycles(base(), words().length());
    for (std::uint32_t i = 0; i < fam.cycles.size(); ++i) {
      for (Word e : edge_words(words(), fam.cycles[i])) {
        fam.members_by_edge[e].push_back(i);
      }
    }
    psi_ = std::move(fam);
  });
  return psi_;
}

const MaximalCycleFamily& InstanceContext::maximal_family(
    std::uint64_t prime_power) const {
  require(supports_edge_faults(),
          "maximal-cycle machinery requires n >= 2");
  std::call_once(phi_once_, [this] {
    // One family per prime-power factor of the base: exactly the leaves the
    // phi-recursion of Proposition 3.3 can reach for this instance.
    for (const auto& pp : nt::factor(base())) {
      auto field = std::make_unique<gf::Field>(pp.value());
      auto family =
          std::make_unique<MaximalCycleFamily>(*field, words().length());
      families_.emplace(pp.value(), std::move(family));
      fields_.push_back(std::move(field));
    }
  });
  const auto it = families_.find(prime_power);
  require(it != families_.end(),
          "prime power is not a factor of the instance base");
  return *it->second;
}

bool InstanceContext::supports_butterfly() const {
  return std::gcd<std::uint64_t, std::uint64_t>(base(), words().length()) == 1;
}

const ButterflyDigraph& InstanceContext::butterfly() const {
  require(supports_butterfly(), "butterfly lift requires gcd(d, n) = 1");
  std::call_once(butterfly_once_, [this] {
    butterfly_ = std::make_unique<ButterflyDigraph>(base(), words().length());
  });
  return *butterfly_;
}

}  // namespace dbr::core
