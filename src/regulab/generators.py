"""Seeded instance constructions for tests, experiments, and the CLI.

All randomness flows through SplitMix64 so that any value produced here is
reproducible from the seed alone, in any implementation of the same
algorithm.  The generator is the standard splitmix64 sequence:

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z      <- state
    z      <- (z XOR z >> 30) * 0xBF58476D1CE4E5B9  mod 2^64
    z      <- (z XOR z >> 27) * 0x94D049BB133111EB  mod 2^64
    output <- z XOR z >> 31

``below(n)``, for 0 < n <= 2^64, draws 64-bit words and rejects those
>= n * floor(2^64 / n), then reduces modulo n, so it is exactly uniform.
``bernoulli(p)`` accepts a draw u when u * p.denominator < p.numerator *
2^64, which for an integer u is the integer threshold u <
ceil(p.numerator * 2^64 / p.denominator); the bias is below 2^-64.  Both
consume one draw per attempt, so derived instances are stable as long as
the call sequence is stable.

The bulk draw ``accepted(n, p)`` reads the same words in the same order
and leaves the same state as n ``bernoulli(p)`` draws, and gives the
indices of those that accept.  It runs one local loop against a threshold
computed once, so the generators draw in runs; ``next_u64``, ``below`` and
``bernoulli`` stay for single and interleaved draws and are its oracles.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .core import (
    BipartiteGraph,
    CapacityError,
    Chain,
    Graph,
    InvalidStructure,
    MultipartiteGraph,
    PartiteThreeGraph,
    PartiteVertexSet,
    ThreeGraph,
    bits,
    triangles_local,
)

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit PRNG (splitmix64), documented above."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection of the words at or above
        2^64 - 2^64 mod n; a bound above 2^64 would reject every word."""
        if n <= 0:
            raise InvalidStructure("below() needs a positive bound")
        if n > 1 << 64:
            raise InvalidStructure("below() needs a bound of at most 2^64")
        limit = (1 << 64) - (1 << 64) % n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def bernoulli(self, p: Fraction) -> bool:
        if not 0 <= p <= 1:
            raise InvalidStructure("probability out of [0, 1]")
        return self.next_u64() * p.denominator < p.numerator << 64

    def accepted(self, n: int, p: Fraction) -> list[int]:
        """Ascending indices i < n of the next n ``bernoulli(p)`` draws that
        accept: word u accepts when u < ceil(p.numerator * 2^64 /
        p.denominator), so p = 0 accepts none and p = 1 all."""
        if not 0 <= p <= 1:
            raise InvalidStructure("probability out of [0, 1]")
        bound = -((-p.numerator << 64) // p.denominator)
        s = self.state
        out = []
        for i in range(n):
            s = (s + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
            if z ^ (z >> 31) < bound:
                out.append(i)
        self.state = s
        return out

    def mask(self, n: int) -> int:
        """Uniform n-bit mask."""
        out = 0
        for shift in range(0, n, 64):
            out |= self.next_u64() << shift
        return out & ((1 << n) - 1)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct values from range(n), order discarded (sorted)."""
        if k > n:
            raise InvalidStructure("sample larger than population")
        if k > n // 2:
            pool = list(range(n))
            self.shuffle(pool)
            return sorted(pool[:k])
        chosen: set[int] = set()
        while len(chosen) < k:
            chosen.add(self.below(n))
        return sorted(chosen)


# ---------------------------------------------------------------------------
# Named constructions.
# ---------------------------------------------------------------------------


def make_vd(d: int) -> PartiteThreeGraph:
    """Tripartite 3-graph with parts [d], [d], and all subsets of [d]x[d];
    (a, b, S) is a hyperedge exactly when (a, b) is in S.  Bit a*d + b of
    the subset index encodes membership of (a, b)."""
    if d < 1:
        raise InvalidStructure("d must be positive")
    if d > 3:
        raise CapacityError(f"make_vd(d={d}) needs a part of size 2^{d * d}")
    vs = PartiteVertexSet(("A", "B", "C"), (d, d, 1 << (d * d)))
    off = vs.offsets
    triples = []
    for a in range(d):
        for b in range(d):
            bit = a * d + b
            for s in range(1 << (d * d)):
                if s >> bit & 1:
                    triples.append((off[0] + a, off[1] + b, off[2] + s))
    return PartiteThreeGraph.from_triples(vs, triples)


def make_fd(d: int) -> BipartiteGraph:
    """Bipartite graph on [d] and all subsets of [d]; a ~ S iff a is in S,
    so every subset of the left side appears as a neighborhood."""
    if d < 1:
        raise InvalidStructure("d must be positive")
    if d > 16:
        raise CapacityError(f"make_fd(d={d}) needs 2^{d} right vertices")
    rows = []
    for a in range(d):
        row = 0
        for s in range(1 << d):
            if s >> a & 1:
                row |= 1 << s
        rows.append(row)
    return BipartiteGraph(d, 1 << d, tuple(rows))


def cone_hypergraph(g: BipartiteGraph, n: int) -> PartiteThreeGraph:
    """Tripartite 3-graph whose n apex vertices all have link exactly g."""
    if n < 1:
        raise InvalidStructure("apex part must be nonempty")
    vs = PartiteVertexSet(("A", "B", "C"), (g.left_size, g.right_size, n))
    off = vs.offsets
    triples = []
    for a in range(g.left_size):
        for b in bits(g.rows[a]):
            for c in range(n):
                triples.append((off[0] + a, off[1] + b, off[2] + c))
    out = PartiteThreeGraph.from_triples(vs, triples)
    assert out.edge_count == n * g.edge_count
    return out


def random_link_hypergraph(na: int, nb: int, nc: int, seed: int) -> PartiteThreeGraph:
    """Each apex vertex c picks uniform subsets X_c, Y_c of the first two
    parts; its link is the complete bipartite graph X_c x Y_c."""
    rng = SplitMix64(seed)
    vs = PartiteVertexSet(("A", "B", "C"), (na, nb, nc))
    off = vs.offsets
    triples = []
    for c in range(nc):
        xc = rng.mask(na)
        yc = rng.mask(nb)
        for a in bits(xc):
            for b in bits(yc):
                triples.append((off[0] + a, off[1] + b, off[2] + c))
    return PartiteThreeGraph.from_triples(vs, triples)


def random_tournament_3graph(n: int, seed: int) -> ThreeGraph:
    """Hyperedges are the cyclically oriented triangles of a seeded random
    tournament, drawn pair by pair in lexicographic order."""
    if n < 3:
        raise InvalidStructure("need at least three vertices")
    rng = SplitMix64(seed)
    beats = [0] * n
    for i in range(n):
        won = 0
        for d in rng.accepted(n - i - 1, Fraction(1, 2)):
            won |= 1 << d
        beats[i] |= won << (i + 1)
        for d in bits(((1 << (n - i - 1)) - 1) & ~won):
            beats[i + 1 + d] |= 1 << i
    triples = set()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ij = beats[i] >> j & 1
                jk = beats[j] >> k & 1
                ki = beats[k] >> i & 1
                if ij == jk == ki:
                    triples.add((i, j, k))
    return ThreeGraph(n, frozenset(triples))


def random_partite_3graph(sizes: Sequence[int], p: Fraction, seed: int) -> PartiteThreeGraph:
    """Crossing triples kept independently with probability p, drawn in
    lexicographic (part triple, locals) order and placed as drawn."""
    rng = SplitMix64(seed)
    vs = PartiteVertexSet(tuple(f"X{i+1}" for i in range(len(sizes))), tuple(sizes))
    off = vs.offsets
    return PartiteThreeGraph.from_triples(
        vs,
        (
            (off[i] + x, off[j] + y, off[k] + z)
            for i, j, k in combinations(range(vs.t), 3)
            for x in range(sizes[i])
            for y, z in (divmod(yz, sizes[k]) for yz in rng.accepted(sizes[j] * sizes[k], p))
        ),
    )


def _row(rng: SplitMix64, n: int, p: Fraction) -> int:
    """An n-bit row whose bit b is the b-th of the next n bernoulli(p) draws."""
    row = 0
    for b in rng.accepted(n, p):
        row |= 1 << b
    return row


def random_bipartite(na: int, nb: int, p: Fraction, seed: int) -> BipartiteGraph:
    rng = SplitMix64(seed)
    return BipartiteGraph(na, nb, tuple(_row(rng, nb, p) for _ in range(na)))


def random_graph(n: int, p: Fraction, seed: int) -> Graph:
    rng = SplitMix64(seed)
    edges = []
    for i in range(n):
        edges += [(i, i + 1 + d) for d in rng.accepted(n - i - 1, p)]
    return Graph.from_edges(n, edges)


def half_graph(n: int) -> BipartiteGraph:
    """Edge (i, j) iff i <= j on [n] x [n]."""
    full = (1 << n) - 1
    return BipartiteGraph(n, n, tuple((full >> i) << i for i in range(n)))


def random_multipartite(sizes: Sequence[int], p: Fraction, seed: int) -> MultipartiteGraph:
    rng = SplitMix64(seed)
    vs = PartiteVertexSet(tuple(f"X{i+1}" for i in range(len(sizes))), tuple(sizes))
    pairs = {}
    for i in range(vs.t):
        for j in range(i + 1, vs.t):
            rows = tuple(_row(rng, sizes[j], p) for _ in range(sizes[i]))
            pairs[(i, j)] = BipartiteGraph(sizes[i], sizes[j], rows)
    return MultipartiteGraph(vs, pairs)


def random_chain(
    sizes: Sequence[int],
    p_edge: Fraction,
    p_triple: Fraction,
    seed: int,
) -> Chain:
    """Random tripartite graph at density p_edge; each of its triangles is
    kept as a hyperedge with probability p_triple."""
    if len(sizes) != 3:
        raise InvalidStructure("a chain is tripartite")
    g = random_multipartite(sizes, p_edge, seed)
    rng = SplitMix64(seed ^ 0xD1B54A32D192ED03)
    off = g.vertex_set.offsets
    tris = list(triangles_local(g))
    triples = (
        (off[0] + x, off[1] + y, off[2] + z)
        for x, y, z in map(tris.__getitem__, rng.accepted(len(tris), p_triple))
    )
    return Chain(g, PartiteThreeGraph.from_triples(g.vertex_set, triples))


# ---------------------------------------------------------------------------
# Random partitions (test plumbing).
# ---------------------------------------------------------------------------


def _split_mask(rng: SplitMix64, mask: int) -> tuple[int, int]:
    """Split a mask with >= 2 bits into two nonempty halves."""
    members = list(bits(mask))
    while True:
        sub = 0
        for m in members:
            if rng.bernoulli(Fraction(1, 2)):
                sub |= 1 << m
        if sub and sub != mask:
            return sub, mask & ~sub


def random_vertex_cylinder_partition(vs: PartiteVertexSet, m: int, seed: int):
    """Partition into about m cylinders by repeated random product splits."""
    from .partitions import VertexCylinder, VertexCylinderPartition

    rng = SplitMix64(seed)
    cyls = [tuple(vs.full_mask(i) for i in range(vs.t))]
    while len(cyls) < m:
        splittable = [
            (ci, coord)
            for ci, masks in enumerate(cyls)
            for coord in range(vs.t)
            if masks[coord].bit_count() >= 2
        ]
        if not splittable:
            break
        ci, coord = splittable[rng.below(len(splittable))]
        masks = cyls.pop(ci)
        a, b = _split_mask(rng, masks[coord])
        cyls.append(masks[:coord] + (a,) + masks[coord + 1 :])
        cyls.append(masks[:coord] + (b,) + masks[coord + 1 :])
    return VertexCylinderPartition(vs, tuple(VertexCylinder(m_) for m_ in sorted(cyls)))


def random_pair_partition_cells(
    rng: SplitMix64, host_rows: Sequence[int], left_size: int, k: int
) -> tuple[tuple[int, ...], ...]:
    """Random assignment of host edges to at most k cells (empty dropped)."""
    from .partitions import cells_by_label

    return cells_by_label(left_size, host_rows, lambda x, y: rng.below(k))


def random_cylinder_chain_partition(vs: PartiteVertexSet, m: int, k: int, seed: int):
    """Random cylinder partition with random <= k-cell edge partitions."""
    from .partitions import CylinderChainPartition, EdgePartition, PairPartition

    rng = SplitMix64(seed)
    pv = random_vertex_cylinder_partition(vs, m, seed ^ 0x9E3779B97F4A7C15)
    eps = []
    for cyl in pv.cylinders:
        pairs = {}
        for i in range(vs.t):
            for j in range(i + 1, vs.t):
                host = cyl.host_rows(vs, i, j)
                cells = random_pair_partition_cells(rng, host, vs.sizes[i], k)
                pairs[(i, j)] = PairPartition(
                    vs.sizes[i], vs.sizes[j], cyl.masks[i], cyl.masks[j], host, cells
                )
        eps.append(EdgePartition(pairs))
    return CylinderChainPartition(pv, tuple(eps))


def random_chain_partition(n: int, part_count: int, k: int, seed: int):
    """Random vertex partition of [n] with random <= k-cell edge partitions
    of each complete bipartite graph between parts."""
    from .partitions import ChainPartition, PairPartition

    if not 1 <= part_count <= n:
        raise InvalidStructure("part count out of range")
    rng = SplitMix64(seed)
    ids = list(range(n))
    rng.shuffle(ids)
    cuts = [b + 1 for b in rng.sample(n - 1, part_count - 1)] if part_count > 1 else []
    parts = []
    prev = 0
    for b in cuts + [n]:
        parts.append(tuple(sorted(ids[prev:b])))
        prev = b
    parts.sort()
    pairs = {
        (a, b): PairPartition.complete(len(parts[a]), len(parts[b]), lambda x, y: rng.below(k))
        for a in range(len(parts))
        for b in range(a + 1, len(parts))
    }
    return ChainPartition(n, tuple(parts), pairs)
