"""Brute-force shattering testers and induced-pattern searches.

Everything here is exact and exponential, guarded by hard caps.  The
intended regime is tiny instances where an exhaustive answer serves as
ground truth for the structural machinery elsewhere in the package:
VC dimension of a set system, VC2 dimension of a 3-graph (shattered
complete bipartite link patterns), and induced sub-3-graph search.  Every
witness returned by a public function is re-verified against its
definition before it leaves, so a bug in a search heuristic can only cause
a miss, never a false positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (
    BipartiteGraph,
    CapacityError,
    Graph,
    InvalidStructure,
    InvariantViolation,
    PartiteThreeGraph,
    ThreeGraph,
)

VC_UNIVERSE_CAP = 24
VC2_VERTEX_CAP = 20
INDUCED_PATTERN_CAP = 8


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise InvariantViolation(f"witness failed re-verification: {msg}")


@dataclass(frozen=True)
class SetSystem:
    """Family of subsets of [n], each subset a bitmask."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        full = (1 << self.n) - 1
        for m in self.members:
            if m < 0 or m & ~full:
                raise InvalidStructure("member set leaves the universe")


@dataclass(frozen=True)
class ShatterWitness:
    """Shattered set(s) plus one realizer per pattern.

    ``sets`` holds (S,) for plain VC and (A, B) for VC2.  ``realizers``
    maps each pattern bitmask to the index of a realizing member (VC) or
    to a realizing vertex (VC2).  Pattern bit conventions: bit i of a VC
    pattern is membership of S[i]; bit i*|B|+j of a VC2 pattern is the
    presence of the triple (A[i], B[j], v).
    """

    sets: tuple[tuple[int, ...], ...]
    realizers: dict[int, int]


def neighborhood_system(g: Graph | BipartiteGraph, side: str = "right") -> SetSystem:
    """Set system of vertex neighborhoods.

    For a plain graph the universe is V(G) and every vertex contributes
    its open neighborhood.  For a bipartite graph, ``side`` picks whose
    neighborhoods form the family: "right" (default) takes each right
    vertex's neighborhood inside the left part, "left" the transpose.
    """
    if isinstance(g, Graph):
        return SetSystem(g.n, tuple(g.rows))
    if isinstance(g, BipartiteGraph):
        if side == "right":
            return SetSystem(g.left_size, tuple(g.columns()))
        if side == "left":
            return SetSystem(g.right_size, tuple(g.rows))
        raise InvalidStructure(f"unknown side {side!r}")
    raise InvalidStructure("expected a Graph or BipartiteGraph")


def _project(member: int, positions: tuple[int, ...]) -> int:
    pat = 0
    for i, p in enumerate(positions):
        pat |= ((member >> p) & 1) << i
    return pat


def _verify_vc(s: SetSystem, d: int, w: ShatterWitness) -> None:
    (elems,) = w.sets
    _check(len(elems) == d and len(set(elems)) == d, "bad shattered set")
    _check(len(w.realizers) == 1 << d, "pattern count")
    for pat, idx in w.realizers.items():
        _check(0 <= idx < len(s.members), "realizer index")
        _check(_project(s.members[idx], elems) == pat, "pattern mismatch")


def vc_dimension(
    s: SetSystem, cap_d: int | None = None, cap_n: int = VC_UNIVERSE_CAP
) -> tuple[int, ShatterWitness | None]:
    """Exact VC dimension of a set system, with a shattering witness.

    Searches sizes upward and stops at the first size with no shattered
    set (shattering is downward closed, so larger sizes cannot succeed).
    An empty family has dimension -1 by convention.  Raises
    CapacityError when the universe exceeds ``cap_n``.
    """
    if s.n > cap_n:
        raise CapacityError(f"universe {s.n} exceeds the brute-force cap {cap_n}")
    if not s.members:
        return -1, None
    limit = s.n if cap_d is None else min(cap_d, s.n)
    # A family of m sets realizes at most m patterns on any fixed S.
    while (1 << limit) > len(s.members) and limit > 0:
        limit -= 1
    best = 0, ShatterWitness(((),), {0: 0})
    for d in range(1, limit + 1):
        found = None
        want = 1 << d
        for elems in combinations(range(s.n), d):
            seen: dict[int, int] = {}
            for idx, m in enumerate(s.members):
                pat = _project(m, elems)
                if pat not in seen:
                    seen[pat] = idx
                    if len(seen) == want:
                        break
            if len(seen) == want:
                found = ShatterWitness((elems,), seen)
                break
        if found is None:
            break
        best = d, found
    _verify_vc(s, best[0], best[1])
    return best


def _pair_links(h: ThreeGraph) -> dict[tuple[int, int], int]:
    """For each vertex pair (a < b), the bitmask of joint link vertices."""
    out: dict[tuple[int, int], int] = {}
    for (u, v, w) in h.triples:
        out[(u, v)] = out.get((u, v), 0) | (1 << w)
        out[(u, w)] = out.get((u, w), 0) | (1 << v)
        out[(v, w)] = out.get((v, w), 0) | (1 << u)
    return out


def _as_three_graph(h: ThreeGraph | PartiteThreeGraph) -> ThreeGraph:
    return h.to_three_graph() if isinstance(h, PartiteThreeGraph) else h


def _vc2_pattern(links: dict, a_side, b_side, v: int) -> int:
    pat = 0
    t = 0
    for a in a_side:
        for b in b_side:
            key = (a, b) if a < b else (b, a)
            pat |= ((links.get(key, 0) >> v) & 1) << t
            t += 1
    return pat


def _verify_vc2(h: ThreeGraph, d: int, w: ShatterWitness) -> None:
    a_side, b_side = w.sets
    _check(len(a_side) == d and len(b_side) == d, "side sizes")
    _check(not set(a_side) & set(b_side), "sides intersect")
    _check(len(w.realizers) == 1 << (d * d), "pattern count")
    for pat, v in w.realizers.items():
        t = 0
        for a in a_side:
            for b in b_side:
                _check(h.has_triple(a, b, v) == bool((pat >> t) & 1), "link mismatch")
                t += 1


def vc2_dimension(
    h: ThreeGraph | PartiteThreeGraph,
    cap_d: int = 2,
    cap_n: int = VC2_VERTEX_CAP,
) -> tuple[int, ShatterWitness | None]:
    """Exact VC2 dimension up to ``cap_d``, with a shattering witness.

    A shattered K_{d,d} is a pair of disjoint d-sets A, B such that every
    one of the 2^(d*d) subsets S of A x B is the exact trace of some
    vertex's link on A x B.  Placements are unrestricted: for partite
    inputs A and B may land anywhere, including inside one part.
    Distinct patterns force distinct realizing vertices, so sizes with
    2^(d*d) > |V| are skipped outright.
    """
    h3 = _as_three_graph(h)
    if h3.n > cap_n:
        raise CapacityError(f"{h3.n} vertices exceed the brute-force cap {cap_n}")
    if h3.n == 0:
        raise InvalidStructure("empty vertex set")
    links = _pair_links(h3)
    best: tuple[int, ShatterWitness | None] = 0, ShatterWitness(((), ()), {0: 0})
    for d in range(1, cap_d + 1):
        want = 1 << (d * d)
        if want > h3.n:
            break
        found = None
        for a_side in combinations(range(h3.n), d):
            rest = [x for x in range(h3.n) if x not in a_side]
            for b_side in combinations(rest, d):
                if b_side < a_side:
                    continue  # (A,B) and (B,A) shatter together
                seen: dict[int, int] = {}
                for v in range(h3.n):
                    pat = _vc2_pattern(links, a_side, b_side, v)
                    if pat not in seen:
                        seen[pat] = v
                        if len(seen) == want:
                            break
                if len(seen) == want:
                    found = ShatterWitness((a_side, b_side), seen)
                    break
            if found is not None:
                break
        if found is None:
            break
        best = d, found
    if best[0] > 0:
        _verify_vc2(h3, best[0], best[1])
    return best


@dataclass(frozen=True)
class EmbeddingWitness:
    """Injective image tuples, one per part of the pattern."""

    images: tuple[tuple[int, ...], ...]

    def all_vertices(self) -> tuple[int, ...]:
        return tuple(v for side in self.images for v in side)


def _verify_disjoint_injective(w: EmbeddingWitness) -> None:
    flat = w.all_vertices()
    _check(len(set(flat)) == len(flat), "images collide")


def induced_copy_search(
    f: ThreeGraph, h: ThreeGraph, cap: int = INDUCED_PATTERN_CAP
) -> EmbeddingWitness | None:
    """Search for an induced sub-3-graph of ``h`` isomorphic to ``f``.

    All triples of the image are constrained, matching f exactly under
    the vertex map.  Depth-first over pattern vertices in index order,
    pruning on every triple completed by the newest assignment.
    """
    if f.n > cap:
        raise CapacityError(f"pattern has {f.n} > {cap} vertices")
    if f.n > h.n:
        return None
    m = f.n
    img: list[int] = []
    used = [False] * h.n

    def extend() -> bool:
        k = len(img)
        if k == m:
            return True
        for cand in range(h.n):
            if used[cand]:
                continue
            good = True
            for i in range(k):
                for j in range(i + 1, k):
                    if h.has_triple(img[i], img[j], cand) != f.has_triple(i, j, k):
                        good = False
                        break
                if not good:
                    break
            if not good:
                continue
            img.append(cand)
            used[cand] = True
            if extend():
                return True
            used[cand] = False
            img.pop()
        return False

    if not extend():
        return None
    w = EmbeddingWitness((tuple(img),))
    _verify_disjoint_injective(w)
    for a, b, c in combinations(range(m), 3):
        _check(
            h.has_triple(img[a], img[b], img[c]) == f.has_triple(a, b, c),
            "induced triple mismatch",
        )
    return w
