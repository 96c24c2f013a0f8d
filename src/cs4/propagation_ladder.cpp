#include "src/cs4/propagation_ladder.h"

#include <algorithm>

#include "src/support/contracts.h"

namespace sdaf {

namespace {

// The paper's virtual indexing: rungs sorted by (left_pos, right_pos),
// which non-crossing makes simultaneously sorted on both sides; a vertex
// shared by m rungs occupies m consecutive virtual slots separated by
// zero-length segments (Fig. 6).
struct LadderArrays {
  std::size_t k = 0;                  // number of rungs
  std::vector<std::size_t> u, v;      // side positions per rung
  std::vector<bool> l2r;              // direction per rung
  std::vector<std::int64_t> rung_len; // L of the rung component
  std::vector<std::int64_t> lpre, rpre;  // prefix buffer sums along sides
  std::size_t pl = 0, pr = 0;         // exit positions (left/right size - 1)

  std::int64_t left_between(std::size_t a, std::size_t b) const {
    return lpre[b] - lpre[a];
  }
  std::int64_t right_between(std::size_t a, std::size_t b) const {
    return rpre[b] - rpre[a];
  }
  // Walk cost from rung i's slot to slot i+1 (or to the exit) on each side.
  std::int64_t walk_left(std::size_t i) const {
    return left_between(u[i], i + 1 < k ? u[i + 1] : pl);
  }
  std::int64_t walk_right(std::size_t i) const {
    return right_between(v[i], i + 1 < k ? v[i + 1] : pr);
  }
};

LadderArrays make_arrays(const Skeleton& skel, const Ladder& ladder) {
  LadderArrays a;
  a.k = ladder.rungs.size();
  a.pl = ladder.left.size() - 1;
  a.pr = ladder.right.size() - 1;
  for (const LadderRung& r : ladder.rungs) {
    a.u.push_back(r.left_pos);
    a.v.push_back(r.right_pos);
    a.l2r.push_back(r.left_to_right);
    a.rung_len.push_back(skel.graph.edge(static_cast<EdgeId>(r.skel_edge))
                             .buffer);
  }
  a.lpre.resize(ladder.left.size());
  a.lpre[0] = 0;
  for (std::size_t i = 0; i < ladder.left_seg.size(); ++i)
    a.lpre[i + 1] =
        a.lpre[i] +
        skel.graph.edge(static_cast<EdgeId>(ladder.left_seg[i])).buffer;
  a.rpre.resize(ladder.right.size());
  a.rpre[0] = 0;
  for (std::size_t i = 0; i < ladder.right_seg.size(); ++i)
    a.rpre[i + 1] =
        a.rpre[i] +
        skel.graph.edge(static_cast<EdgeId>(ladder.right_seg[i])).buffer;
  return a;
}

}  // namespace

std::vector<Rational> ladder_component_bounds_recurrence(
    const Skeleton& skel, const Ladder& ladder) {
  std::vector<Rational> bounds(skel.edges.size(), Rational::infinity());
  const LadderArrays a = make_arrays(skel, ladder);
  const std::size_t k = a.k;
  SDAF_EXPECTS(k >= 1);

  // desc_l[j] = cheapest completion of a path descending the LEFT side,
  // positioned at rung j's left vertex with rungs < j already passed:
  // stop where an opposite-direction rung arrives (the partner path can
  // close the cycle there), cross a same-direction rung and stop, or walk
  // on. desc_l[k] = 0: the exit Y is always a sink. Mirrors the paper's
  // Ls/Ld tails.
  std::vector<std::int64_t> desc_l(k + 1), desc_r(k + 1);
  desc_l[k] = 0;
  desc_r[k] = 0;
  for (std::size_t jj = k; jj-- > 0;) {
    const std::int64_t rung_opt_l = a.l2r[jj] ? a.rung_len[jj] : 0;
    const std::int64_t rung_opt_r = a.l2r[jj] ? 0 : a.rung_len[jj];
    desc_l[jj] = std::min(rung_opt_l, a.walk_left(jj) + desc_l[jj + 1]);
    desc_r[jj] = std::min(rung_opt_r, a.walk_right(jj) + desc_r[jj + 1]);
  }

  const auto update = [&](std::size_t skel_edge, std::int64_t value) {
    bounds[skel_edge] = min(bounds[skel_edge], Rational(value));
  };

  // Entry terminal: cycles sourced at X pair the two side descents
  // ("[e] = min([e], L(v0)) if e lies in S0, and symmetrically").
  update(ladder.left_seg.front(),
         a.right_between(0, a.v[0]) + desc_r[0]);
  update(ladder.right_seg.front(),
         a.left_between(0, a.u[0]) + desc_l[0]);

  // Internal sources. Rungs leaving one side vertex ("siblings") are
  // consecutive in the sorted order, and they end the rungs at that
  // vertex: an opposite rung after them would close a directed cycle.
  //   * Rung i's own edges are bounded by the same-side descent that skips
  //     it (Ls(u_i)), and by each earlier sibling j plus the far-side walk
  //     between their landings (the cycle sourced at the shared vertex
  //     through j and i).
  //   * The segment leaving the shared vertex is bounded once per group
  //     (Lk(u_i)): cross any sibling, walk the far side past the whole
  //     group, then descend. A descent stopping at a sibling's landing
  //     would close a cycle through two siblings, which does not contain
  //     the segment.
  // `sibling` is min over the group so far of K_j minus the far-side
  // prefix at j's landing, so K_j + far(landing_j, p) = sibling + pre(p).
  std::int64_t sibling = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const bool l2r = a.l2r[i];
    const auto tail = [&](std::size_t j) { return l2r ? a.u[j] : a.v[j]; };
    const bool continues =
        i > 0 && a.l2r[i - 1] == l2r && tail(i - 1) == tail(i);
    const std::int64_t landing = l2r ? a.rpre[a.v[i]] : a.lpre[a.u[i]];
    if (continues) {
      update(ladder.rungs[i].skel_edge, sibling + landing);
      sibling = std::min(sibling, a.rung_len[i] - landing);
    } else {
      sibling = a.rung_len[i] - landing;
    }
    if (l2r) {
      update(ladder.rungs[i].skel_edge, a.walk_left(i) + desc_l[i + 1]);
      if (i + 1 == k || a.u[i + 1] != a.u[i])
        update(ladder.left_seg[a.u[i]],
               sibling + a.rpre[i + 1 < k ? a.v[i + 1] : a.pr] +
                   desc_r[i + 1]);
    } else {
      update(ladder.rungs[i].skel_edge, a.walk_right(i) + desc_r[i + 1]);
      if (i + 1 == k || a.v[i + 1] != a.v[i])
        update(ladder.right_seg[a.v[i]],
               sibling + a.lpre[i + 1 < k ? a.u[i + 1] : a.pl] +
                   desc_l[i + 1]);
    }
  }
  return bounds;
}

}  // namespace sdaf
