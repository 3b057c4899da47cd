"""Partite graphs, 3-graphs and chains, with exact counting primitives.

Vertices are numbered globally and contiguously: part 0 occupies [0, s0),
part 1 the next s1 indices, and so on.  Adjacency is kept as row bitmasks
over *local* indices (global index minus the part offset), so neighborhood
intersections are single-word AND+popcount operations at desk scale.

Every density that reaches a report is a fractions.Fraction; counts are
plain Python ints.  The 0/0 = 0 convention for relative densities lives in
:func:`ratio`, and in the one integer verdict that never builds a density,
``partitions.cells_quasirandom``.  :func:`fraction_sum` divides integer
numerators once.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, count
from math import lcm
from operator import lt
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence


class InvalidStructure(ValueError):
    """A container invariant does not hold."""


class DensityUndefined(ValueError):
    """Density requested over an empty ground set (other than 0/0 -> 0)."""


class ContainmentError(ValueError):
    """A restriction refers to vertices or edges outside its host."""


class ParseError(ValueError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CapacityError(RuntimeError):
    """Instance exceeds a documented exhaustive-search cap."""


class InvariantViolation(RuntimeError):
    """An engine's own re-verification failed: a bug, not a bad input."""


def ratio(num: int, den: int) -> Fraction:
    """num/den as an exact fraction, with the 0/0 -> 0 convention."""
    if den == 0:
        if num == 0:
            return Fraction(0)
        raise DensityUndefined(f"{num}/0 has no value")
    return Fraction(num, den)


def fraction_sum(by_den: Mapping[int, int], scale: int) -> Fraction:
    """The sum over d of by_den[d] / (d * scale), as one fraction.

    Terms are summed as integer numerators over the lcm of the (positive)
    denominators, and the sum is divided once."""
    if not by_den:
        return Fraction(0)
    den = lcm(*by_den)
    return Fraction(sum(num * (den // d) for d, num in by_den.items()), den * scale)


def bits(mask: int) -> Iterator[int]:
    """Set bit positions of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def rows_symmetric(rows: Sequence[int]) -> bool:
    """Whether bit y of rows[x] equals bit x of rows[y] for all x, y; the
    rows must be non-negative, loop-free and below bit len(rows).

    Only the upper half is walked: each bit y > x of rows[x] is looked up in
    rows[y], which maps the upper bits one-to-one onto lower ones, so the
    rows are symmetric exactly when the lower bits are no more numerous.
    The positions of a row's bits come from its binary string, so the walk
    runs in C; ``Graph`` falls back to the bit-by-bit walk to name an
    offender.
    """
    upper = 0
    for x, r in enumerate(rows):
        up = r >> (x + 1)
        if up:
            upper += up.bit_count()
            flags = bin(up)[:1:-1].encode().translate(_BIT_FLAGS)  # bit k at index k
            bit = 1 << x
            if not all(map(bit.__and__, map(rows.__getitem__, compress(count(x + 1), flags)))):
                return False
    return sum(r.bit_count() for r in rows) == 2 * upper


@dataclass(frozen=True)
class PartiteVertexSet:
    """Named parts with contiguous global numbering."""

    names: tuple[str, ...]
    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.names) != len(self.sizes) or not self.names:
            raise InvalidStructure("need matching non-empty names and sizes")
        if len(set(self.names)) != len(self.names):
            raise InvalidStructure("part names must be unique")
        if any(s < 0 for s in self.sizes):
            raise InvalidStructure("part sizes must be non-negative")

    @classmethod
    def of_sizes(cls, *sizes: int) -> "PartiteVertexSet":
        return cls(tuple(f"X{i}" for i in range(len(sizes))), tuple(sizes))

    @property
    def t(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for s in self.sizes:
            out.append(acc)
            acc += s
        return tuple(out)

    @cached_property
    def owner(self) -> tuple[int, ...]:
        """The part of each global vertex id: the one vertex-to-part table."""
        return tuple(i for i, s in enumerate(self.sizes) for _ in range(s))

    def part_of(self, g: int) -> int:
        owner = self.owner
        if not 0 <= g < len(owner):
            raise InvalidStructure(f"vertex {g} out of range")
        return owner[g]

    def to_local(self, g: int) -> tuple[int, int]:
        i = self.part_of(g)
        return i, g - self.offsets[i]

    def to_global(self, part: int, local: int) -> int:
        if not 0 <= local < self.sizes[part]:
            raise InvalidStructure(f"local index {local} outside part {part}")
        return self.offsets[part] + local

    def full_mask(self, part: int) -> int:
        return (1 << self.sizes[part]) - 1


@dataclass(frozen=True)
class BipartiteGraph:
    """Bipartite graph as row bitmasks: bit y of rows[x] is the edge (x, y)."""

    left_size: int
    right_size: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.left_size:
            raise InvalidStructure("rows must have one entry per left vertex")
        for x, r in enumerate(self.rows):
            if r < 0 or r.bit_length() > self.right_size:
                raise InvalidStructure(f"row {x} has bits outside the right part")

    @classmethod
    def empty(cls, l: int, r: int) -> "BipartiteGraph":
        return cls(l, r, (0,) * l)

    @classmethod
    def complete(cls, l: int, r: int) -> "BipartiteGraph":
        return cls(l, r, ((1 << r) - 1,) * l)

    @classmethod
    def from_edges(cls, l: int, r: int, edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        rows = [0] * l
        for x, y in edges:
            if not (0 <= x < l and 0 <= y < r):
                raise InvalidStructure(f"edge ({x},{y}) out of range")
            rows[x] |= 1 << y
        return cls(l, r, tuple(rows))

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows)

    def has_edge(self, x: int, y: int) -> bool:
        return bool(self.rows[x] >> y & 1)

    def density(self) -> Fraction:
        return ratio(self.edge_count, self.left_size * self.right_size)

    def columns(self) -> tuple[int, ...]:
        cols = [0] * self.right_size
        for x, r in enumerate(self.rows):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << x
                r ^= low
        return tuple(cols)

    def edges(self) -> Iterator[tuple[int, int]]:
        for x, r in enumerate(self.rows):
            for y in bits(r):
                yield x, y


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on [n] as symmetric row bitmasks."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise InvalidStructure("rows must have one entry per vertex")
        for x, r in enumerate(self.rows):
            if r < 0 or r.bit_length() > self.n:
                raise InvalidStructure(f"row {x} out of range")
            if r >> x & 1:
                raise InvalidStructure(f"loop at vertex {x}")
        if rows_symmetric(self.rows):
            return
        for x in range(self.n):  # the naive walk names the first offender
            for y in bits(self.rows[x]):
                if not self.rows[y] >> x & 1:
                    raise InvalidStructure(f"adjacency not symmetric at ({x},{y})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph on [n] with these edges.  Each edge sets both of its
        bits, so the rows are in range, loop-free and symmetric by
        construction and skip the checks of ``Graph(n, rows)``.  The writes
        check the edge: its row reads refuse an id outside [-n, n) before
        any shift, the shift by an id in [-n, -1] raises, and a loop is
        tested; each is the InvalidStructure of the first bad edge."""
        rows = [0] * n
        for u, v in edges:
            try:
                ru, rv = rows[u], rows[v]
                if u != v:
                    rows[u] = ru | 1 << v
                    rows[v] = rv | 1 << u
                    continue
            except (IndexError, ValueError):
                pass
            raise InvalidStructure(f"bad edge ({u},{v})")
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", tuple(rows))
        return g

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self.rows[u]):
                if v > u:
                    yield u, v

    def density(self) -> Fraction:
        if self.n < 2:
            raise DensityUndefined("density of a graph with fewer than 2 vertices")
        return Fraction(2 * self.edge_count, self.n * (self.n - 1))


@dataclass(frozen=True)
class MultipartiteGraph:
    """t-partite graph: one bipartite graph per part pair i < j."""

    vertex_set: PartiteVertexSet
    pair_graphs: Mapping[tuple[int, int], BipartiteGraph]

    def __post_init__(self):
        vs = self.vertex_set
        want = {(i, j) for i in range(vs.t) for j in range(i + 1, vs.t)}
        if set(self.pair_graphs) != want:
            raise InvalidStructure("pair_graphs must cover exactly all pairs i < j")
        for (i, j), bg in self.pair_graphs.items():
            if bg.left_size != vs.sizes[i] or bg.right_size != vs.sizes[j]:
                raise InvalidStructure(f"pair ({i},{j}) has wrong side sizes")

    @classmethod
    def complete(cls, vs: PartiteVertexSet) -> "MultipartiteGraph":
        return cls(
            vs,
            {
                (i, j): BipartiteGraph.complete(vs.sizes[i], vs.sizes[j])
                for i in range(vs.t)
                for j in range(i + 1, vs.t)
            },
        )

    @property
    def t(self) -> int:
        return self.vertex_set.t

    def pair(self, i: int, j: int) -> BipartiteGraph:
        return self.pair_graphs[(i, j)] if i < j else self.pair_graphs[(j, i)]

    def pair_density(self, i: int, j: int) -> Fraction:
        return self.pair(i, j).density()


def _canon_triple(u: int, v: int, w: int) -> tuple[int, int, int]:
    a, b, c = sorted((u, v, w))
    return a, b, c


@dataclass(frozen=True)
class ThreeGraph:
    """Plain 3-uniform hypergraph on [n]; triples stored sorted."""

    n: int
    triples: frozenset[tuple[int, int, int]]

    def __post_init__(self):
        for t in self.triples:
            u, v, w = t
            if not (0 <= u < v < w < self.n):
                raise InvalidStructure(f"triple {t} not sorted-distinct in range")

    @classmethod
    def from_triples(cls, n: int, triples: Iterable[Sequence[int]]) -> "ThreeGraph":
        out = set()
        for t in triples:
            u, v, w = t
            if len({u, v, w}) != 3:
                raise InvalidStructure(f"degenerate triple {tuple(t)}")
            out.add(_canon_triple(u, v, w))
        return cls(n, frozenset(out))

    @property
    def edge_count(self) -> int:
        return len(self.triples)

    def has_triple(self, u: int, v: int, w: int) -> bool:
        if len({u, v, w}) != 3:
            return False
        return _canon_triple(u, v, w) in self.triples


_NO_ZMASKS: Mapping[tuple[int, int], int] = MappingProxyType({})


class HyperedgeIndex:
    """The hyperedges of a partite 3-graph bucketed by part triple: the one
    form in which a :class:`PartiteThreeGraph` holds them.

    ``zmasks[(i, j, k)]`` (i < j < k) maps a local pair (x, y) of parts i
    and j to the bitmask over local z in part k of the hyperedges
    (x, y, z).  Every mask is nonzero and every bucket nonempty, so two
    indexes hold the same hyperedges exactly when their ``zmasks`` are
    equal.  The buckets come from :func:`_placed`, the one loop that builds
    and checks them.  ``cell_chains`` and ``chain_values`` are the store of
    the cell-chain evaluator (:func:`regulab.partitions.cell_chain_stats`),
    keyed alike by a chain's (masks, parts, cells): the first holds each
    chain's (triangles, hyperedges, bound) from its first read, the bound
    an integer (numerator, denominator) pair, and the second its exact
    certificate, filled where the bound is already exact, where the
    certificate is asked for and where the bound is above eta, so that no
    entry changes once stored.  They hold numbers only, so they live and
    die with the hypergraph.
    """

    __slots__ = ("zmasks", "cell_chains", "chain_values")

    def __init__(self, zmasks: dict[tuple[int, int, int], dict[tuple[int, int], int]]):
        self.zmasks = zmasks
        self.cell_chains: dict[tuple, tuple[int, int, tuple[int, int]]] = {}
        self.chain_values: dict[tuple, Fraction] = {}


def _placed(
    vs: PartiteVertexSet, triples: Iterable[Sequence[int]]
) -> dict[tuple[int, int, int], dict[tuple[int, int], int]]:
    """The z-mask buckets of ``triples`` (global ids, in any order, repeats
    allowed), each triple checked as it is placed.

    A triple must have three vertices in range and in three distinct
    parts; the first that does not is refused, as InvalidStructure("bad
    triple (u, v, w)") with its ids sorted.  Its parts are read through
    ``owner``, which refuses an id at or past the end (IndexError); a
    negative id, which that read would wrap, fails the sign test.  A
    triple whose parts are not in order is sorted by part before it is
    tested again.  Within a bucket (x, y) is keyed ``x * width + y`` while
    the loop runs, an int being cheaper to hash than a pair, and the pairs
    are restored once per key at the end."""
    t, owner, off = vs.t, vs.owner, vs.offsets
    width = max(vs.sizes)
    local = [g - off[i] for g, i in enumerate(owner)]
    high = [x * width for x in local]
    buckets: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for u, v, w in triples:
        try:
            i, j, k = owner[u], owner[v], owner[w]
        except IndexError:
            raise InvalidStructure(f"bad triple {tuple(sorted((u, v, w)))}") from None
        if not i < j < k or (u | v | w) < 0:
            (i, u), (j, v), (k, w) = sorted(((i, u), (j, v), (k, w)))
            if not i < j < k or (u | v | w) < 0:
                raise InvalidStructure(f"bad triple {tuple(sorted((u, v, w)))}")
        bucket = buckets[(i * t + j) * t + k]
        key = high[u] + local[v]
        bucket[key] = bucket.get(key, 0) | 1 << local[w]
    out = {}
    for code in sorted(buckets):
        ij, k = divmod(code, t)
        out[(*divmod(ij, t), k)] = {divmod(key, width): m for key, m in buckets[code].items()}
    return out


@dataclass(frozen=True, eq=False, repr=False)
class PartiteThreeGraph:
    """3-graph whose triples each cross three distinct parts, held as its
    hyperedge index.

    Build one with :meth:`from_triples` or a loader, which place and check
    the triples in one loop (:func:`_placed`).  ``triples``, the set of
    sorted global triples, is derived from the index on first use.
    Equality, hashing and repr mean the same vertex set and the same
    triples; the index's chain stores take no part in them.
    """

    vertex_set: PartiteVertexSet
    index: HyperedgeIndex

    @classmethod
    def from_triples(
        cls, vs: PartiteVertexSet, triples: Iterable[Sequence[int]]
    ) -> "PartiteThreeGraph":
        return cls(vs, HyperedgeIndex(_placed(vs, triples)))

    def __eq__(self, other):
        if not isinstance(other, PartiteThreeGraph):
            return NotImplemented
        return self.vertex_set == other.vertex_set and self.index.zmasks == other.index.zmasks

    def __hash__(self):
        return hash((self.vertex_set, self.triples))

    def __repr__(self):
        return f"PartiteThreeGraph(vertex_set={self.vertex_set!r}, triples={self.triples!r})"

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for zm in self.index.zmasks.values() for m in zm.values())

    @cached_property
    def triples(self) -> frozenset[tuple[int, int, int]]:
        """The hyperedges as sorted global triples, read from the index in
        sorted order so that equal hypergraphs give the same repr."""
        return frozenset(
            (u, v, ok + z) for (u, v), runs in self._pair_runs() for ok, m in runs for z in bits(m)
        )

    def _pair_runs(self) -> Iterator[tuple[tuple[int, int], list[tuple[int, int]]]]:
        """Each global pair (u, v) that heads a hyperedge, in sorted order,
        with its (offset of part k, z-mask) of each part k, k ascending: the
        hyperedges of one (u, v) lie in the buckets of one (i, j)."""
        off, zmasks = self.vertex_set.offsets, self.index.zmasks
        by_pair: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i, j, k in sorted(zmasks):
            oi, oj, ok = off[i], off[j], off[k]
            for (x, y), m in zmasks[i, j, k].items():
                by_pair.setdefault((oi + x, oj + y), []).append((ok, m))
        return ((uv, by_pair[uv]) for uv in sorted(by_pair))

    def zmasks(self, i: int, j: int, k: int) -> Mapping[tuple[int, int], int]:
        """{(x, y): z-mask} of the hyperedges across parts i < j < k, in local
        ids.  Shared with the index: read it, never modify it."""
        return self.index.zmasks.get((i, j, k), _NO_ZMASKS)

    def has_triple(self, u: int, v: int, w: int) -> bool:
        vs = self.vertex_set
        u, v, w = sorted((u, v, w))
        if not (0 <= u < v < w < vs.total):
            return False
        (i, x), (j, y), (k, z) = vs.to_local(u), vs.to_local(v), vs.to_local(w)
        return i < j < k and bool(self.zmasks(i, j, k).get((x, y), 0) >> z & 1)

    def to_three_graph(self) -> ThreeGraph:
        return ThreeGraph(self.vertex_set.total, self.triples)

    def triples_of_parts(self, i: int, j: int, k: int) -> Iterator[tuple[int, int, int]]:
        """Triples whose parts are exactly {i, j, k} (global ids, sorted)."""
        a, b, c = sorted((i, j, k))
        off = self.vertex_set.offsets
        for (x, y), zmask in self.zmasks(a, b, c).items():
            for z in bits(zmask):
                yield off[a] + x, off[b] + y, off[c] + z


def triangles_local(g: MultipartiteGraph) -> Iterator[tuple[int, int, int]]:
    """Local-index triangles (x, y, z) with x in part 0, y in 1, z in 2."""
    ab, ac, bc = g.pair(0, 1), g.pair(0, 2), g.pair(1, 2)
    for x in range(ab.left_size):
        row_ab = ab.rows[x]
        if not row_ab:
            continue
        row_ac = ac.rows[x]
        if not row_ac:
            continue
        for y in bits(row_ab):
            common = row_ac & bc.rows[y]
            for z in bits(common):
                yield x, y, z


def triangle_count(g: MultipartiteGraph) -> int:
    """Number of triangles across parts (0, 1, 2), by row intersections."""
    ab, ac, bc = g.pair(0, 1), g.pair(0, 2), g.pair(1, 2)
    total = 0
    for x in range(ab.left_size):
        row_ac = ac.rows[x]
        if not row_ac:
            continue
        for y in bits(ab.rows[x]):
            total += (row_ac & bc.rows[y]).bit_count()
    return total


def _on_triangle(g: MultipartiteGraph, u: int, v: int, w: int) -> bool:
    """Whether global ids u < v < w, one in each part, span a triangle of g."""
    off = g.vertex_set.offsets
    x, y, z = u - off[0], v - off[1], w - off[2]
    ab, ac, bc = g.pair(0, 1), g.pair(0, 2), g.pair(1, 2)
    return ab.has_edge(x, y) and ac.has_edge(x, z) and bc.has_edge(y, z)


@dataclass(frozen=True)
class Chain:
    """A tripartite graph together with a 3-graph supported on its triangles."""

    graph: MultipartiteGraph
    hyper: PartiteThreeGraph

    def __post_init__(self):
        if self.graph.t != 3:
            raise InvalidStructure("chain graph must be tripartite")
        if self.hyper.vertex_set != self.graph.vertex_set:
            raise InvalidStructure("chain graph and hypergraph disagree on parts")
        # Each (x, y) must be an edge whose z-mask lies within the common
        # neighbourhood rows02[x] & rows12[y]; the first bad hyperedge in
        # sorted order is named.
        ab, ac, bc = (self.graph.pair(i, j).rows for i, j in ((0, 1), (0, 2), (1, 2)))
        bad = []
        for (x, y), m in self.hyper.zmasks(0, 1, 2).items():
            off_tri = m & ~(ac[x] & bc[y]) if ab[x] >> y & 1 else m
            if off_tri:
                bad.append((x, y, off_tri & -off_tri))
        if bad:
            x, y, low = min(bad)
            off = self.vertex_set.offsets
            t = (off[0] + x, off[1] + y, off[2] + low.bit_length() - 1)
            raise InvalidStructure(f"hyperedge {t} not on a triangle")

    @property
    def vertex_set(self) -> PartiteVertexSet:
        return self.graph.vertex_set


def relative_density(c: Chain) -> Fraction:
    """|E(H)| / number of triangles of the chain graph, 0/0 -> 0."""
    return ratio(c.hyper.edge_count, triangle_count(c.graph))


def product_density(g: MultipartiteGraph) -> Fraction:
    """Product of all pair densities; 0 when any pair is empty."""
    out = Fraction(1)
    for i in range(g.t):
        for j in range(i + 1, g.t):
            out *= g.pair_density(i, j)
    return out


def _mask_of(indices: Iterable[int], size: int) -> int:
    m = 0
    for a in indices:
        if not 0 <= a < size:
            raise ContainmentError(f"index {a} outside part of size {size}")
        m |= 1 << a
    return m


def restrict_chain(
    c: Chain,
    vertex_subsets: Sequence[Iterable[int]] | None = None,
    edge_subsets: Mapping[tuple[int, int], Sequence[int]] | None = None,
) -> Chain:
    """Chain induced on per-part vertex subsets and optional edge subsets.

    ``vertex_subsets`` lists local indices per part (None keeps everything).
    ``edge_subsets`` maps a part pair to replacement rows in the *original*
    local coordinates; rows must be contained in the original pair graph.
    The result is re-indexed to compact parts so densities use the restricted
    sizes, and hyperedges off the surviving triangles are dropped; the
    cutting is :func:`regulab.partitions.extract_cell_chain`'s.
    """
    vs = c.vertex_set
    if vertex_subsets is None:
        masks = [vs.full_mask(i) for i in range(3)]
    else:
        if len(vertex_subsets) != 3:
            raise ContainmentError("need one vertex subset per part")
        masks = [_mask_of(sub, vs.sizes[i]) for i, sub in enumerate(vertex_subsets)]

    cells = []
    for (i, j) in ((0, 1), (0, 2), (1, 2)):
        host = c.graph.pair(i, j)
        rows = host.rows
        if edge_subsets is not None and (i, j) in edge_subsets:
            rows = tuple(edge_subsets[(i, j)])
            if len(rows) != host.left_size:
                raise ContainmentError(f"edge subset for {(i, j)} has wrong row count")
            for x, r in enumerate(rows):
                if r & ~host.rows[x]:
                    raise ContainmentError(f"edge subset for {(i, j)} not contained in host")
        cells.append(rows)
    from .partitions import extract_cell_chain

    return extract_cell_chain(c.hyper, tuple(masks), (0, 1, 2), tuple(cells))


def equitable_partition(n: int, t: int) -> tuple[tuple[int, ...], ...]:
    """Split [n] into t consecutive ranges of size floor/ceil(n/t), the
    remainder on the first parts.  Partite ids of these parts are the
    input's own ids."""
    if t < 1 or n < 0:
        raise InvalidStructure("need t >= 1 and n >= 0")
    base, extra = divmod(n, t)
    parts, pos = [], 0
    for i in range(t):
        size = base + (1 if i < extra else 0)
        parts.append(tuple(range(pos, pos + size)))
        pos += size
    return tuple(parts)


def partite_from_graph(g: Graph, sizes: Sequence[int]) -> MultipartiteGraph:
    """The t-partite graph of ``g`` cut along consecutive vertex ranges of
    the given sizes; each pair row is a shifted, masked slice of a row."""
    vs = PartiteVertexSet.of_sizes(*sizes)
    if vs.total != g.n:
        raise InvalidStructure("part sizes must sum to the vertex count")
    off = vs.offsets
    pair_graphs = {}
    for i in range(vs.t):
        left = g.rows[off[i] : off[i] + vs.sizes[i]]
        for j in range(i + 1, vs.t):
            lo, mask = off[j], vs.full_mask(j)
            pair_graphs[(i, j)] = BipartiteGraph(
                vs.sizes[i], vs.sizes[j], tuple(r >> lo & mask for r in left)
            )
    return MultipartiteGraph(vs, pair_graphs)


def partite_from_three_graph(h: ThreeGraph, parts: Sequence[Sequence[int]]) -> PartiteThreeGraph:
    """Crossing triples of ``h`` w.r.t. a vertex partition, re-indexed to parts.

    Vertex ``parts[i][local]`` becomes local id ``local`` of part i, so on
    consecutive ranges the partite ids are ``h``'s own ids.
    """
    seen = [v for p in parts for v in p]
    if sorted(seen) != list(range(h.n)):
        raise InvalidStructure("parts must partition the vertex set")
    vs = PartiteVertexSet.of_sizes(*(len(p) for p in parts))
    where = {}
    for i, p in enumerate(parts):
        for local, v in enumerate(p):
            where[v] = vs.to_global(i, local)
    part_idx = {v: i for i, p in enumerate(parts) for v in p}
    crossing = [
        (where[u], where[v], where[w])
        for (u, v, w) in h.triples
        if len({part_idx[u], part_idx[v], part_idx[w]}) == 3
    ]
    return PartiteThreeGraph.from_triples(vs, crossing)


# ---------------------------------------------------------------------------
# Text formats.
#
# One line per declaration:
#   part <name> <size>
#   e <u> <v>        (global 0-based vertex ids)
#   t <u> <v> <w>
# '#' starts a comment; blank lines are ignored.  Canonical form declares
# parts in order, then edges/triples sorted lexicographically.
#
# A scan keeps each record kind's ids flat and its line numbers apart.  A
# loader builds its container from the ids, and the container checks the
# records; only when it refuses them are line numbers paired with ids, to
# name the first bad line.  A partite graph's e-lines are placed, so checked,
# in their pair rows, and a partite 3-graph's t-lines in its hyperedge index.
# ---------------------------------------------------------------------------


MAX_VERTICES = 1 << 22  # a loader builds tables with one entry per declared vertex


@dataclass(frozen=True)
class Scan:
    """A text file tokenized once.

    ``edges`` holds the ids of the e-lines flat, ``u, v, u, v, ...``, and
    ``triples`` those of the t-lines, ``u, v, w, ...``, in file order up to
    the first malformed line; ``edge_lines`` and ``triple_lines`` hold the
    line number of each record (a ``range`` for a canonical block), read
    only to name a bad line.  ``kind`` classifies the whole file by the
    first token of each line, the lines from a malformed one on included:
    ``chain`` (e- and t-lines), ``three`` (t-lines only), ``multipartite``
    (two or more part lines) or ``graph``.  ``error`` is the file's first
    ``ParseError``; a loader raises it when it consumes the scan.

    A file in the canonical form the ``save_*`` functions write is read in
    bulk and any other file line by line; both give the same scan.
    """

    parts: tuple[tuple[str, int], ...]
    edges: Sequence[int]
    edge_lines: Sequence[int]
    triples: Sequence[int]
    triple_lines: Sequence[int]
    kind: str
    error: ParseError | None

    @property
    def vertex_set(self) -> PartiteVertexSet:
        """The declared parts; CapacityError above :data:`MAX_VERTICES` vertices."""
        vs = PartiteVertexSet(tuple(n for n, _ in self.parts), tuple(s for _, s in self.parts))
        if vs.total > MAX_VERTICES:
            raise CapacityError(
                f"the parts declare {vs.total} vertices; a file may declare at most {MAX_VERTICES}"
            )
        return vs


def scan(text: str) -> Scan:
    """Tokenize a text file in one pass; see :class:`Scan`.

    A canonical file (:func:`_bulk_scan`) has its record blocks checked and
    converted in bulk; every other file goes through the line loop
    :func:`_tokenize`, which is also the bulk path's oracle.
    """
    heads: Counter = Counter()
    bulk = _bulk_scan(text)
    if bulk is not None:
        parts, edges, edge_lines, triples, triple_lines = bulk
        error = None
    else:
        lines = text.splitlines()
        parts = []
        try:
            stores = array("q"), array("q"), array("q"), array("q")
            error = _tokenize(lines, parts, *stores)
        except OverflowError:  # an id beyond 64 bits: hold the ids as Python ints
            parts, stores = [], ([], [], [], [])
            error = _tokenize(lines, parts, *stores)
        edges, edge_lines, triples, triple_lines = stores
        if error is not None:  # the lines from the malformed one on still count
            heads.update(_head(raw) for raw in lines[error.line - 1 :])
    has_e = bool(edges) or "e" in heads
    has_t = bool(triples) or "t" in heads
    if has_e and has_t:
        kind = "chain"
    elif has_t:
        kind = "three"
    elif len(parts) + heads["part"] >= 2:
        kind = "multipartite"
    else:
        kind = "graph"
    if error is None and not parts:
        error = ParseError(1, "no part declarations")
    return Scan(tuple(parts), edges, edge_lines, triples, triple_lines, kind, error)


_NO_DIGITS = str.maketrans("", "", "0123456789")
_BULK_CHARS = 1 << 16  # characters of a record block converted per call


def _bulk_scan(text: str) -> tuple[list, array, range, array, range] | None:
    """The parts, the flat e-ids and their line numbers, and the flat t-ids
    and theirs, of a file in canonical form, or None when the file is not
    canonical.

    Canonical is what ``save_*`` writes: a head of part lines that
    :func:`_tokenize` reads without error or record, then a block of
    ``e <id> <id>`` lines, then a block of ``t <id> <id> <id>`` lines,
    either block possibly empty.  Ids are ASCII digits without a leading
    zero, below 2^63; tokens are separated by one space and every
    line, the last included, ends in a newline.
    """
    if not text.endswith("\n"):
        return None
    e0, t0 = _line_start(text, "e "), _line_start(text, "t ")
    start = min(e0, t0)
    head = text[:start].splitlines()
    parts: list[tuple[str, int]] = []
    rest: list[int] = []
    if _tokenize(head, parts, rest, rest, rest, rest) is not None or rest:
        return None
    e1 = max(e0, t0)  # the e-block ends where the t-block starts
    edges = _bulk_records(text, e0, e1, "e", 2)
    if edges is None:
        return None
    triples = _bulk_records(text, t0, len(text), "t", 3)
    if triples is None:
        return None
    e_line = len(head) + 1
    t_line = e_line + len(edges) // 2
    return parts, edges, range(e_line, t_line), triples, range(t_line, t_line + len(triples) // 3)


def _line_start(text: str, prefix: str) -> int:
    """Where the first line that starts with ``prefix`` begins, or the
    text's length when no line does."""
    if text.startswith(prefix):
        return 0
    at = text.find("\n" + prefix)
    return len(text) if at < 0 else at + 1


def _bulk_records(text: str, start: int, stop: int, head: str, width: int) -> array | None:
    """The ids of ``text[start:stop]``, a block of canonical
    ``<head> <id> ... <id>`` lines of ``width`` ids each, flat in file
    order, or None when some line of the block is not canonical."""
    lead = head + " "
    line = lead + " " * (width - 1) + "\n"
    out = array("q")
    while start < stop:  # in chunks of whole lines, so no copy grows with the file
        end = text.find("\n", min(start + _BULK_CHARS, stop - 1), stop) + 1
        chunk = text[start:end]
        m = chunk.count("\n")
        # With its digits deleted each line reads "e  " or "t   ": one head, one
        # space before each id, nothing else, and every line starts with its
        # head.  JSON then rejects an empty id and a leading zero.
        if (
            not chunk.startswith(lead)
            or chunk.count("\n" + lead) != m - 1
            or chunk.translate(_NO_DIGITS) != line * m
        ):
            return None
        try:
            ids = json.loads("[" + chunk[2:-1].replace("\n" + lead, " ").replace(" ", ",") + "]")
            out.fromlist(ids)  # width * m ids, by the checks above
        except (ValueError, OverflowError):  # an id past 63 bits goes to the line loop
            return None
        start = end
    return out


def _head(raw: str) -> str | None:
    tokens = raw.split("#", 1)[0].split()
    return tokens[0] if tokens else None


def _tokenize(
    lines: Sequence[str], parts: list, edges, edge_lines, triples, triple_lines
) -> ParseError | None:
    """Append the records of ``lines`` to the stores, ids and line numbers
    apart, up to the first malformed line and return its error, or None
    when every line parses."""
    names = set()
    for lineno, raw in enumerate(lines, start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        tokens = raw.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "e":
            if len(tokens) != 3:
                return ParseError(lineno, "expected 2 vertex ids after 'e'")
            try:
                edges.extend((int(tokens[1]), int(tokens[2])))
            except ValueError:
                return ParseError(lineno, "vertex ids must be integers")
            edge_lines.append(lineno)
        elif head == "t":
            if len(tokens) != 4:
                return ParseError(lineno, "expected 3 vertex ids after 't'")
            try:
                triples.extend((int(tokens[1]), int(tokens[2]), int(tokens[3])))
            except ValueError:
                return ParseError(lineno, "vertex ids must be integers")
            triple_lines.append(lineno)
        elif head == "part":
            if len(tokens) != 3:
                return ParseError(lineno, "expected: part <name> <size>")
            name, size_s = tokens[1], tokens[2]
            try:
                size = int(size_s)
            except ValueError:
                return ParseError(lineno, f"part size {size_s!r} is not an integer")
            if size < 0:
                return ParseError(lineno, "part size must be non-negative")
            if name in names:
                return ParseError(lineno, f"duplicate part name {name!r}")
            if edges or triples:
                return ParseError(lineno, "part declared after edges")
            names.add(name)
            parts.append((name, size))
        else:
            return ParseError(lineno, f"unknown directive {head!r}")
    return None


def _scanned(src: str | Scan) -> Scan:
    """The scan of ``src``, a text or a scan; raises its first parse error."""
    sc = src if isinstance(src, Scan) else scan(src)
    if sc.error is not None:
        raise sc.error
    return sc


def _records(
    lines: Sequence[int], flat: Sequence[int], width: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """A scan's records as ``(lineno, ids)``: its line numbers paired with
    its flat ids, ``width`` to a record."""
    it = iter(flat)
    return zip(lines, zip(*[it] * width))


def _check_range(lineno: int, ids: tuple[int, ...], total: int):
    for v in ids:
        if not 0 <= v < total:
            raise ParseError(lineno, f"vertex id {v} out of range (total {total})")


def _scanned_graph(sc: Scan, vs: PartiteVertexSet) -> MultipartiteGraph:
    """The partite graph of a scan's e-lines, each edge placed in its pair
    row.  The placement checks the edge.  Ids are read through ``owner``
    padded with ``total`` entries of part t, which keys no pair: an id in
    [total, 2 total) or, by negative indexing, in [-total, 0) finds no row
    (KeyError), as an edge within a part does.  An id in [-2 total, -total)
    reads a part, but its local index is below -total, so the row read
    (IndexError) or the shift (ValueError) refuses it; any other id misses
    the table.  Only on a refusal are the lines walked, in file order, to
    name the first bad one."""
    total, off = vs.total, vs.offsets
    owner = vs.owner + (vs.t,) * total
    rows = {
        (i, j): [0] * vs.sizes[i] for i in range(vs.t) for j in range(i + 1, vs.t)
    }
    it = iter(sc.edges)
    try:
        for u, v in zip(it, it):
            i, j = owner[u], owner[v]
            if i > j:
                i, j, u, v = j, i, v, u
            rows[(i, j)][u - off[i]] |= 1 << (v - off[j])
    except (IndexError, KeyError, ValueError):
        for lineno, (u, v) in _records(sc.edge_lines, sc.edges, 2):
            _check_range(lineno, (u, v), total)
            (i, _), (j, _) = vs.to_local(u), vs.to_local(v)
            if i == j:
                raise ParseError(lineno, f"edge ({u},{v}) lies within part {vs.names[i]}")
        raise
    return MultipartiteGraph(
        vs,
        {
            key: BipartiteGraph(vs.sizes[key[0]], vs.sizes[key[1]], tuple(r))
            for key, r in rows.items()
        },
    )


def _scanned_triples(
    sc: Scan, total: int, owner: Sequence[int] | None, g: MultipartiteGraph | None = None
) -> None:
    """Raise the ParseError of a scan's first bad t-line, in file order:
    an id out of range, a repeated vertex, and, given the parts' ``owner``
    table, a triple off three parts or, given a chain's graph ``g``, off
    its triangles.  Returns when every line is good."""
    for lineno, ids in _records(sc.triple_lines, sc.triples, 3):
        _check_range(lineno, ids, total)
        if len(set(ids)) != 3:
            raise ParseError(lineno, f"triple {ids} repeats a vertex")
        if owner is not None and len({owner[v] for v in ids}) != 3:
            raise ParseError(lineno, f"triple {ids} does not cross three parts")
        if g is not None and not _on_triangle(g, *sorted(ids)):
            raise ParseError(lineno, "triple ({},{},{}) is not on a triangle".format(*sorted(ids)))


def _triples(sc: Scan) -> Iterable[tuple[int, int, int]]:
    """The t-lines of a scan as sorted triples, in file order."""
    us, vs, ws = sc.triples[0::3], sc.triples[1::3], sc.triples[2::3]
    if all(map(lt, us, vs)) and all(map(lt, vs, ws)):
        return zip(us, vs, ws)
    return map(_canon_triple, us, vs, ws)


def _edge_lines(g: MultipartiteGraph) -> list[str]:
    """The e-lines of a partite graph in global ids, sorted."""
    vs = g.vertex_set
    all_edges = []
    for i in range(vs.t):
        for j in range(i + 1, vs.t):
            off_i, off_j = vs.offsets[i], vs.offsets[j]
            for x, y in g.pair(i, j).edges():
                all_edges.append((off_i + x, off_j + y))
    return [f"e {u} {v}" for u, v in sorted(all_edges)]


def _triple_lines(h: PartiteThreeGraph) -> list[str]:
    """The t-lines of a partite 3-graph, sorted; each (u, v) head is
    formatted once."""
    out = []
    for uv, runs in h._pair_runs():
        head = "t %d %d " % uv
        out += [head + str(ok + z) for ok, m in runs for z in bits(m)]
    return out


def load_multipartite(src: str | Scan) -> MultipartiteGraph:
    sc = _scanned(src)
    if sc.triples:
        raise ParseError(sc.triple_lines[0], "graph file may not contain triples")
    return _scanned_graph(sc, sc.vertex_set)


def save_multipartite(g: MultipartiteGraph) -> str:
    vs = g.vertex_set
    lines = [f"part {n} {s}" for n, s in zip(vs.names, vs.sizes)]
    lines += _edge_lines(g)
    return "\n".join(lines) + "\n"


def load_partite_3graph(src: str | Scan) -> PartiteThreeGraph:
    sc = _scanned(src)
    if sc.edges:
        raise ParseError(sc.edge_lines[0], "3-graph file may not contain pair edges")
    vs = sc.vertex_set
    it = iter(sc.triples)
    try:
        return PartiteThreeGraph.from_triples(vs, zip(it, it, it))
    except InvalidStructure:
        _scanned_triples(sc, vs.total, vs.owner)
        raise


def save_partite_3graph(h: PartiteThreeGraph) -> str:
    vs = h.vertex_set
    lines = [f"part {n} {s}" for n, s in zip(vs.names, vs.sizes)]
    lines += _triple_lines(h)
    return "\n".join(lines) + "\n"


def load_three_graph(src: str | Scan) -> ThreeGraph:
    """Any 3-graph file, part structure ignored (triples as plain 3-subsets)."""
    sc = _scanned(src)
    if sc.edges:
        raise ParseError(sc.edge_lines[0], "3-graph file may not contain pair edges")
    total = sc.vertex_set.total
    try:
        return ThreeGraph(total, frozenset(_triples(sc)))
    except InvalidStructure:
        _scanned_triples(sc, total, None)
        raise


def save_three_graph(h: ThreeGraph) -> str:
    lines = [f"part V {h.n}"]
    lines += [f"t {u} {v} {w}" for u, v, w in sorted(h.triples)]
    return "\n".join(lines) + "\n"


def load_graph(src: str | Scan) -> Graph:
    """Any graph file as a plain simple graph (part structure ignored)."""
    sc = _scanned(src)
    if sc.triples:
        raise ParseError(sc.triple_lines[0], "graph file may not contain triples")
    total = sc.vertex_set.total
    it = iter(sc.edges)
    try:
        return Graph.from_edges(total, zip(it, it))
    except InvalidStructure:
        for lineno, (u, v) in _records(sc.edge_lines, sc.edges, 2):
            _check_range(lineno, (u, v), total)
            if u == v:
                raise ParseError(lineno, f"loop at vertex {u}")
        raise


def save_graph(g: Graph) -> str:
    lines = [f"part V {g.n}"]
    lines += [f"e {u} {v}" for u, v in sorted(g.edges())]
    return "\n".join(lines) + "\n"


def load_chain(src: str | Scan) -> Chain:
    """Chain file: part lines, then the graph's e-lines and the 3-graph's
    t-lines; every triple must sit on a triangle of the graph."""
    sc = _scanned(src)
    if len(sc.parts) != 3:
        raise ParseError(1, "chain file needs exactly three parts")
    vs = sc.vertex_set
    g = _scanned_graph(sc, vs)
    it = iter(sc.triples)
    try:
        return Chain(g, PartiteThreeGraph.from_triples(vs, zip(it, it, it)))
    except InvalidStructure:
        _scanned_triples(sc, vs.total, vs.owner, g)
        raise


def save_chain(c: Chain) -> str:
    vs = c.vertex_set
    lines = [f"part {n} {s}" for n, s in zip(vs.names, vs.sizes)]
    lines += _edge_lines(c.graph)
    lines += _triple_lines(c.hyper)
    return "\n".join(lines) + "\n"
