"""Cylinder and chain partitions, the mean-squared density q, and audits.

A vertex cylinder partition splits the product X_1 x ... x X_t into product
cells; an edge partition splits each bipartite host into edge cells; a
cylinder chain partition carries one edge partition per cylinder.  The Venn
construction flattens a cylinder chain partition into a plain chain
partition (vertex parts plus partitions of each complete bipartite graph
between them).

q is the triangle-mass-weighted sum of squared relative densities of the
cells.  :func:`q_partition`'s fast mode folds over
:func:`located_cell_chains`, whose counts the evaluator has already made;
:func:`q_cell_chain` is the one fast/naive dispatch of q over a part
triple's hosts (a chain's edge partition, the winning refinement's
naive check, ``q_partition``'s naive mode).  Both modes are exact and
must agree.  Its fast mode and the refinement candidates, which are
per-edge label tables, score through :func:`labelled_q`.

:func:`triangle_tallies` is the one label-keyed triangle sweep: it counts
the triangles and hyperedges of three hosts per label triple of a
triangle's edges.  :func:`labelled_q`, :func:`homogeneity_audit` and
:func:`markov_split_check` all count through it.

Each partition-building decision has one home.  :func:`cells_by_label`
is the one cell builder: it groups a host's edges by a per-edge label and
orders the cells by label.  ``PairPartition.complete`` is the one builder
of a pair on a complete host with full masks, as chain partitions hold
them.  ``VertexCylinder.host_rows`` is the one complete bipartite host of
a cylinder.  :func:`extract_cell_chain` is the one sub-chain cutter;
``core.restrict_chain`` checks its arguments and calls it, and tests use
its copies as inputs to the naive oracles.  No engine path copies a chain.
Every question of which cylinder holds a vertex, tuple or cylinder reads
one table, ``VertexCylinderPartition.holders``, built from the distinct masks;
``VertexCylinderPartition.atoms``, the one grouping of vertices by it, gives
the vertex parts of :func:`venn_diagram` and of the graph pipeline.

Hyperedges are read through one index, ``PartiteThreeGraph.zmasks(i, j, k)``
(see :class:`regulab.core.HyperedgeIndex`), the one form in which a
partite 3-graph holds them, built with the hypergraph; cell chains are
read through one evaluator that keeps its numbers on that index.  It
reads a chain where it lies, with the two halves of the one fast
octahedral kernel (:func:`regulab.quasirandom.chain_first_pass` and
:func:`regulab.quasirandom.chain_pair_total`).  A chain's first read,
one O(X Y) walk and O(Y^2) ANDs of planes concatenated over x, stores its
counts and a Cauchy-Schwarz bound on its certificate, and stores the bound
as the certificate too when no y of the chain is met by two x; otherwise
its exact certificate is stored once asked for.  :func:`cell_chain_stats`
gives the exact (triangles, hyperedges, certificate), and
:func:`cell_chain_within`, the verdict certificate <= eta, runs the pair
loop only where the bound is above eta.  The subset gate and
:func:`survey_partition` read it; the engine reads each cylinder chain
partition through that one walk over its located cell chains, which gives
its q (from the counts alone), its tuple audit and its useful
(non-quasirandom) chains.

Per-cell facts live on their :class:`PairPartition` as integers: the
cached ``labels`` table, the ``area``, each cell's ``edge_counts`` and its
pair certificate's ``certificate_terms`` (the c4 kernel's sum over area^6,
in lowest terms), computed once per partition however many audits, gates
or ``q`` evaluations read them.  The cell half of the (eta, psi) test has
one home, :func:`cells_quasirandom`, and the verdict on a located cell
chain one more, :func:`cell_chain_passes`; both decide by cross-multiplying
integers and build no fraction per chain; the evaluator builds one, a
chain's exact certificate, where it stores it.  The survey reads that
verdict once per located chain, sums q and the masses as integer
numerators over the tuple space, and counts the good tuples of a cylinder
from its failing chains, never tuple by tuple; above the audit's tuple
cap it certifies the union bound one minus the failing chains' triangle
mass instead.  No audit draws random numbers.  The fraction forms stay as
the naive oracles: ``q_partition``'s naive mode and
``quasirandom.eta_psi_check``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, isqrt, prod
from operator import and_, or_
from typing import Callable, Hashable, Mapping, Sequence

from .core import (
    BipartiteGraph,
    Chain,
    InvalidStructure,
    MultipartiteGraph,
    PartiteThreeGraph,
    PartiteVertexSet,
    ThreeGraph,
    bits,
    fraction_sum,
    partite_from_three_graph,
    ratio,
    relative_density,
)
from .quasirandom import (
    ChainPass,
    PolyFunction,
    chain_first_pass,
    chain_pair_total,
    pair_raw_scaled,
)


def rational_sqrt(f: Fraction) -> Fraction | None:
    """Exact square root of a non-negative rational, or None."""
    if f < 0:
        return None
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class VertexCylinder:
    """A product cell, one local-index bitmask per part."""

    masks: tuple[int, ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.masks)

    def weight(self, vs: PartiteVertexSet) -> Fraction:
        return ratio(prod(self.sizes()), prod(vs.sizes))

    def is_empty(self) -> bool:
        return any(m == 0 for m in self.masks)

    def host_rows(self, vs: PartiteVertexSet, i: int, j: int) -> tuple[int, ...]:
        """Rows of the cylinder's complete bipartite host between parts i
        and j: each vertex of ``masks[i]`` joined to all of ``masks[j]``."""
        mask_i, mask_j = self.masks[i], self.masks[j]
        return tuple(mask_j if mask_i >> x & 1 else 0 for x in range(vs.sizes[i]))


def cylinder_holders(
    vs: PartiteVertexSet, cylinders: Sequence[VertexCylinder]
) -> tuple[tuple[int, ...], ...]:
    """``holders[i][x]``: bitset of the cylinders whose part-i mask holds x,
    ORed in once per distinct part-i mask and vertex of it."""
    holders = [[0] * s for s in vs.sizes]
    for i, part in enumerate(holders):
        carriers: dict[int, int] = {}  # each distinct part-i mask -> its cylinders
        for c, cyl in enumerate(cylinders):
            m = cyl.masks[i]
            carriers[m] = carriers.get(m, 0) | 1 << c
        for m, held in carriers.items():
            for x in bits(m):
                part[x] |= held
    return tuple(map(tuple, holders))


def _first_overlap(holders, cylinders) -> tuple[int, int] | None:
    meets: list[dict[int, int]] = [{} for _ in holders]  # per part: mask -> OR of its holders
    for a, cyl in enumerate(cylinders):
        hit = -1 << (a + 1)  # every bit above a
        for part, met, m in zip(holders, meets, cyl.masks):
            if m not in met:
                met[m] = reduce(or_, map(part.__getitem__, bits(m)), 0)
            hit &= met[m]
            if not hit:
                break
        if hit:
            return a, (hit & -hit).bit_length() - 1
    return None


def first_overlap(
    vs: PartiteVertexSet, cylinders: Sequence[VertexCylinder], mode: str = "fast"
) -> tuple[int, int] | None:
    """The first pair a < b, in lexicographic order, of cylinders that share
    a tuple (every part's masks intersect), or None.  Masks must be in range.

    ``naive`` tests every pair.  ``fast`` reads :func:`cylinder_holders`:
    cylinder a meets the AND over parts of the OR of the holders over its
    mask, kept per distinct mask; its lowest bit above a is its first partner.
    """
    if mode == "naive":
        for a, ca in enumerate(cylinders):
            if ca.is_empty():
                continue
            for b in range(a + 1, len(cylinders)):
                cb = cylinders[b]
                if not cb.is_empty() and all(ma & mb for ma, mb in zip(ca.masks, cb.masks)):
                    return a, b
        return None
    if mode != "fast":
        raise InvalidStructure(f"unknown mode {mode!r}")
    return _first_overlap(cylinder_holders(vs, cylinders), cylinders)


@dataclass(frozen=True)
class VertexCylinderPartition:
    """Cylinders partitioning X_1 x ... x X_t; ``validate`` builds the
    :func:`cylinder_holders` table that every containment question reads."""

    vertex_set: PartiteVertexSet
    cylinders: tuple[VertexCylinder, ...]

    def __post_init__(self):
        self.validate()

    @classmethod
    def trivial(cls, vs: PartiteVertexSet) -> "VertexCylinderPartition":
        return cls(vs, (VertexCylinder(tuple(vs.full_mask(i) for i in range(vs.t))),))

    @cached_property
    def holders(self) -> tuple[tuple[int, ...], ...]:
        return cylinder_holders(self.vertex_set, self.cylinders)

    def validate(self) -> None:
        """Exact partition check: masks in range, pairwise product-disjoint,
        and cell weights summing to the full product.  No enumeration; the
        disjointness test reads ``holders`` as :func:`first_overlap` does, t
        ANDs of C-bit bitsets per cylinder: quadratic in the cylinder count C.
        Errors win in order: arity or range, first overlap, then coverage."""
        vs = self.vertex_set
        total = prod(vs.sizes)
        acc = 0
        for cyl in self.cylinders:
            if len(cyl.masks) != vs.t:
                raise InvalidStructure("cylinder arity does not match parts")
            for i, m in enumerate(cyl.masks):
                if m < 0 or m & ~vs.full_mask(i):
                    raise InvalidStructure("cylinder mask out of part range")
            acc += prod(cyl.sizes())
        overlap = _first_overlap(self.holders, self.cylinders)
        if overlap is not None:
            a, b = overlap
            raise InvalidStructure(f"cylinders {a} and {b} overlap")
        if acc != total:
            raise InvalidStructure(f"cylinders cover {acc} of {total} tuples")

    def lookup(self, locals_: Sequence[int]) -> int:
        """The lowest cylinder in the AND over parts of the holders of the
        tuple's vertices; a tuple of another length than t is refused."""
        if len(locals_) != self.vertex_set.t:
            raise InvalidStructure(f"tuple {tuple(locals_)} is not a {self.vertex_set.t}-tuple")
        hit = -1
        for part, a in zip(self.holders, locals_):
            hit &= part[a] if 0 <= a < len(part) else 0
        if not hit:
            raise InvalidStructure(f"tuple {tuple(locals_)} not covered")
        return (hit & -hit).bit_length() - 1

    def atoms(self) -> tuple[tuple[int, tuple[int, ...], int], ...]:
        """``(part, local ids, key)`` per atom, in part order, then key order:
        ``key`` is the ``holders`` bitset of the atom's vertices ANDed with
        the cylinders nonempty on every other part; keys sort by their bit
        positions, ascending."""
        nonempty = [reduce(or_, part, 0) for part in self.holders]
        out = []
        for i, part in enumerate(self.holders):
            relevant = reduce(and_, nonempty[:i] + nonempty[i + 1 :], -1)
            groups: dict[int, list[int]] = {}
            for a, held in enumerate(part):
                groups.setdefault(held & relevant, []).append(a)
            # No key is a proper subset of another (the relevant cylinders at a vertex
            # partition the other parts' product): the lowest differing bit's key is first.
            for key in sorted(groups, key=lambda k: format(k, "b")[::-1], reverse=True):
                out.append((i, tuple(groups[key]), key))
        return tuple(out)

    def container(self, cyl: VertexCylinder) -> int | None:
        """The cylinder holding all of ``cyl``, or None (also for an empty
        ``cyl``): only the one holding its lowest tuple can."""
        if cyl.is_empty():
            return None
        c = self.lookup([(m & -m).bit_length() - 1 for m in cyl.masks])
        inside = all(m & ~big == 0 for m, big in zip(cyl.masks, self.cylinders[c].masks))
        return c if inside else None


@dataclass(frozen=True)
class PairPartition:
    """Partition of a bipartite host's edges between two index spaces.

    ``host_rows`` carries the host edges; cells are row tuples of the same
    length whose disjoint union is the host.  ``left_mask``/``right_mask``
    name the relevant vertex sets (cells may only use those bits), so pair
    densities divide by the mask sizes, not the ambient index spaces.
    """

    left_size: int
    right_size: int
    left_mask: int
    right_mask: int
    host_rows: tuple[int, ...]
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.host_rows) != self.left_size:
            raise InvalidStructure("host rows length mismatch")
        full_r = (1 << self.right_size) - 1
        if self.left_mask & ~((1 << self.left_size) - 1) or self.right_mask & ~full_r:
            raise InvalidStructure("masks out of range")
        for x, r in enumerate(self.host_rows):
            inside = (self.left_mask >> x & 1) and not (r & ~self.right_mask)
            if r and not inside:
                raise InvalidStructure(f"host row {x} outside masks")
        for cell in self.cells:
            if len(cell) != self.left_size:
                raise InvalidStructure("cell rows length mismatch")
        for x in range(self.left_size):
            union = 0
            count = 0
            for cell in self.cells:
                union |= cell[x]
                count += cell[x].bit_count()
                if cell[x] & ~self.host_rows[x]:
                    raise InvalidStructure(f"cell exceeds host at row {x}")
            if union != self.host_rows[x] or count != self.host_rows[x].bit_count():
                raise InvalidStructure(f"cells do not partition host at row {x}")

    @classmethod
    def trivial(
        cls, left_size: int, right_size: int, left_mask: int, right_mask: int, host_rows
    ) -> "PairPartition":
        return cls(left_size, right_size, left_mask, right_mask, tuple(host_rows), (tuple(host_rows),))

    @classmethod
    def complete(
        cls,
        left_size: int,
        right_size: int,
        label: Callable[[int, int], Hashable] = lambda x, y: 0,
    ) -> "PairPartition":
        """A pair on the complete host with full masks, its edges grouped
        into cells by ``label(x, y)`` through :func:`cells_by_label`.  The
        default constant label gives the trivial partition."""
        full_r = (1 << right_size) - 1
        host = (full_r,) * left_size
        cells = cells_by_label(left_size, host, label)
        return cls(left_size, right_size, (1 << left_size) - 1, full_r, host, cells)

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    @cached_property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        """labels[x][y] = index of the cell holding edge (x, y), -1 off the host."""
        lab = [[-1] * self.right_size for _ in range(self.left_size)]
        for idx, cell in enumerate(self.cells):
            for x in range(self.left_size):
                for y in bits(cell[x]):
                    lab[x][y] = idx
        return tuple(map(tuple, lab))

    @cached_property
    def area(self) -> int:
        """Edges of the complete host on the masked sides; a cell's density
        is its edge count over this, 0/0 = 0."""
        return self.left_mask.bit_count() * self.right_mask.bit_count()

    @cached_property
    def edge_counts(self) -> tuple[int, ...]:
        """Edge count of each cell (cells lie inside the masks)."""
        return tuple(sum(row.bit_count() for row in cell) for cell in self.cells)

    @cached_property
    def certificate_terms(self) -> tuple[tuple[int, int], ...]:
        """(numerator, denominator) of each cell's pair certificate value on
        the masked sides, s / area^6 in lowest terms; area 0 leaves s = 0."""
        area = self.area
        a6 = area**6 or 1
        left = list(bits(self.left_mask))
        out = []
        for cell, e in zip(self.cells, self.edge_counts):
            s = pair_raw_scaled(cell, left, self.right_mask, e, area)
            g = gcd(s, a6)
            out.append((s // g, a6 // g))
        return tuple(out)

    def restrict(self, left_mask: int, right_mask: int) -> "PairPartition":
        """Restriction to sub-masks; empty cells dropped."""
        lm, rm = self.left_mask & left_mask, self.right_mask & right_mask
        host = tuple((r & rm) if lm >> x & 1 else 0 for x, r in enumerate(self.host_rows))
        cells = []
        for cell in self.cells:
            sub = tuple((r & rm) if lm >> x & 1 else 0 for x, r in enumerate(cell))
            if any(sub):
                cells.append(sub)
        if not cells and any(host):
            raise InvalidStructure("restriction lost host edges")
        if not cells:
            cells = [tuple(0 for _ in range(self.left_size))]
        return PairPartition(self.left_size, self.right_size, lm, rm, host, tuple(cells))


def cells_by_label(
    left_size: int, host_rows: Sequence[int], label: Callable[[int, int], Hashable]
) -> tuple[tuple[int, ...], ...]:
    """The host's edges grouped into cells by ``label(x, y)``, in label order.

    The one cell builder: every partition that splits a host by a per-edge
    key (refinements, Venn pairs, restrictions, engine splits) goes through
    it.  A host without edges gives the single empty cell.
    """
    groups: dict[Hashable, list[int]] = {}
    for x in range(left_size):
        for y in bits(host_rows[x]):
            key = label(x, y)
            rows = groups.get(key)
            if rows is None:
                rows = groups[key] = [0] * left_size
            rows[x] |= 1 << y
    if not groups:
        return ((0,) * left_size,)
    return tuple(tuple(groups[key]) for key in sorted(groups))


@dataclass(frozen=True)
class EdgePartition:
    """One PairPartition per part pair i < j of a tripartite or t-partite host."""

    pairs: Mapping[tuple[int, int], PairPartition]

    def pair(self, i: int, j: int) -> PairPartition:
        return self.pairs[(i, j)] if i < j else self.pairs[(j, i)]

    @property
    def cell_count(self) -> int:
        return max(pp.cell_count for pp in self.pairs.values())

    @classmethod
    def trivial_for_graph(cls, g: MultipartiteGraph) -> "EdgePartition":
        vs = g.vertex_set
        return cls(
            {
                (i, j): PairPartition.trivial(
                    vs.sizes[i], vs.sizes[j], vs.full_mask(i), vs.full_mask(j), g.pair(i, j).rows
                )
                for i in range(vs.t)
                for j in range(i + 1, vs.t)
            }
        )

    @classmethod
    def trivial_for_cylinder(cls, vs: PartiteVertexSet, cyl: VertexCylinder) -> "EdgePartition":
        out = {}
        for i in range(vs.t):
            for j in range(i + 1, vs.t):
                out[(i, j)] = PairPartition.trivial(
                    vs.sizes[i], vs.sizes[j], cyl.masks[i], cyl.masks[j], cyl.host_rows(vs, i, j)
                )
        return cls(out)


@dataclass(frozen=True)
class CylinderChainPartition:
    vertex: VertexCylinderPartition
    edges: tuple[EdgePartition, ...]

    def __post_init__(self):
        vs = self.vertex.vertex_set
        if len(self.edges) != len(self.vertex.cylinders):
            raise InvalidStructure("need one edge partition per cylinder")
        for cyl, ep in zip(self.vertex.cylinders, self.edges):
            for i in range(vs.t):
                for j in range(i + 1, vs.t):
                    pp = ep.pair(i, j)
                    if pp.left_mask != cyl.masks[i] or pp.right_mask != cyl.masks[j]:
                        raise InvalidStructure("edge partition masks disagree with cylinder")
                    if pp.host_rows != cyl.host_rows(vs, i, j):
                        raise InvalidStructure("cylinder edge host must be complete bipartite")

    @classmethod
    def trivial(cls, vs: PartiteVertexSet) -> "CylinderChainPartition":
        vcp = VertexCylinderPartition.trivial(vs)
        return cls(vcp, (EdgePartition.trivial_for_cylinder(vs, vcp.cylinders[0]),))

    @property
    def vertex_count(self) -> int:
        return len(self.vertex.cylinders)

    @property
    def edge_count(self) -> int:
        return max(ep.cell_count for ep in self.edges)


@dataclass(frozen=True)
class ChainPartition:
    """Vertex parts of a universe plus partitions of each complete bipartite
    graph between parts.  Pair partitions index vertices positionally within
    the part tuples."""

    n: int
    parts: tuple[tuple[int, ...], ...]
    pairs: Mapping[tuple[int, int], PairPartition]

    def __post_init__(self):
        seen = sorted(v for p in self.parts for v in p)
        if seen != list(range(self.n)):
            raise InvalidStructure("parts must partition the universe")
        for p in self.parts:
            if list(p) != sorted(p):
                raise InvalidStructure("part tuples must be sorted")
        want = {
            (a, b) for a in range(len(self.parts)) for b in range(a + 1, len(self.parts))
        }
        if set(self.pairs) != want:
            raise InvalidStructure("pair partitions must cover exactly all part pairs")
        for (a, b), pp in self.pairs.items():
            la, lb = len(self.parts[a]), len(self.parts[b])
            if pp.left_size != la or pp.right_size != lb:
                raise InvalidStructure(f"pair ({a},{b}) has wrong sizes")
            if pp.left_mask != (1 << la) - 1 or pp.right_mask != (1 << lb) - 1:
                raise InvalidStructure("chain partition pairs must use full masks")
            if pp.host_rows != ((1 << lb) - 1,) * la:
                raise InvalidStructure("chain partition hosts must be complete")

    @property
    def part_count(self) -> int:
        return len(self.parts)

    @property
    def edge_cell_count(self) -> int:
        return max(pp.cell_count for pp in self.pairs.values()) if self.pairs else 1


# ---------------------------------------------------------------------------
# Mean-squared density q.
# ---------------------------------------------------------------------------


def triangle_tallies(
    rows: tuple[Sequence[int], Sequence[int], Sequence[int]],
    labels: tuple[Sequence[Sequence[Hashable]], ...],
    zm: Mapping[tuple[int, int], int],
) -> tuple[dict[tuple, int], dict[tuple, int], int]:
    """(tri, hyp, total): one sweep over the triangles of three hosts.

    ``rows`` are the hosts of the (i, j), (i, k) and (j, k) pairs and
    ``labels`` per-edge label tables of the same shape.  A triangle
    (x, y, z) is keyed by the labels of its three edges; ``tri`` counts the
    triangles of each key, ``hyp`` those that are hyperedges (bit z of
    ``zm[(x, y)]``) and ``total`` all triangles.  The one label-keyed
    triangle tally: q, the homogeneity audit and the Markov check count
    through it.
    """
    rows_ab, rows_ac, rows_bc = rows
    lab_ab, lab_ac, lab_bc = labels
    tri: dict[tuple, int] = {}
    hyp: dict[tuple, int] = {}
    total = 0
    for x in range(len(rows_ab)):
        row_ac = rows_ac[x]
        if not row_ac:
            continue
        lx_ab, lx_ac = lab_ab[x], lab_ac[x]
        for y in bits(rows_ab[x]):
            zmask = row_ac & rows_bc[y]
            if not zmask:
                continue
            a = lx_ab[y]
            hmask = zm.get((x, y), 0)
            ly_bc = lab_bc[y]
            for z in bits(zmask):
                key = (a, lx_ac[z], ly_bc[z])
                tri[key] = tri.get(key, 0) + 1
                if hmask >> z & 1:
                    hyp[key] = hyp.get(key, 0) + 1
                total += 1
    return tri, hyp, total


def labelled_q(
    rows: tuple[Sequence[int], Sequence[int], Sequence[int]],
    labels: tuple[Sequence[Sequence[Hashable]], ...],
    zm: Mapping[tuple[int, int], int],
) -> Fraction:
    """q of three hosts whose edges are grouped into cells by per-edge
    ``labels``: the sum over label triples of tri / total * (hyp / tri)^2,
    from one :func:`triangle_tallies` sweep.  The one fast q formula over
    hosts; ``q_cell_chain`` and the refinement candidates score through it."""
    tri, hyp, total = triangle_tallies(rows, labels, zm)
    return sum((Fraction(e * e, tri[key] * total) for key, e in hyp.items()), Fraction(0))


def _q_triple_naive(rows_ab, rows_ac, rows_bc, pp_ab, pp_ac, pp_bc, zm, sizes) -> Fraction:
    """Literal re-enumeration of every cell combination."""
    n0, n1, n2 = sizes
    total = 0
    for x in range(n0):
        for y in range(n1):
            if rows_ab[x] >> y & 1:
                total += (rows_ac[x] & rows_bc[y]).bit_count()
    if total == 0:
        return Fraction(0)
    out = Fraction(0)
    for ca in range(pp_ab.cell_count):
        for cb in range(pp_ac.cell_count):
            for cc in range(pp_bc.cell_count):
                t_cnt = h_cnt = 0
                cell_ab, cell_ac, cell_bc = pp_ab.cells[ca], pp_ac.cells[cb], pp_bc.cells[cc]
                for x in range(n0):
                    for y in range(n1):
                        if not cell_ab[x] >> y & 1:
                            continue
                        for z in range(n2):
                            if cell_ac[x] >> z & 1 and cell_bc[y] >> z & 1:
                                t_cnt += 1
                                if zm.get((x, y), 0) >> z & 1:
                                    h_cnt += 1
                d = ratio(h_cnt, t_cnt)
                out += ratio(t_cnt, total) * d * d
    return out


def q_cell_chain(
    h: PartiteThreeGraph,
    parts: tuple[int, int, int],
    rows: tuple[Sequence[int], Sequence[int], Sequence[int]],
    pps: tuple[PairPartition, PairPartition, PairPartition],
    mode: str = "fast",
) -> Fraction:
    """q over one part triple of ``h``: the host ``rows`` of its (i, j),
    (i, k) and (j, k) pairs, cut into cells by ``pps``, in local ids.

    The one fast/naive dispatch of q over hosts: edge partitions of a
    chain, the winning refinement's naive check and the naive mode of
    :func:`q_partition`, whose fast mode reads the cell-chain evaluator
    instead.  Hyperedges are read from ``h``'s index on the hosts'
    triangles only, so hosts inside a cylinder need no mask.
    """
    zm = h.zmasks(*parts)
    if mode == "fast":
        return labelled_q(rows, tuple(pp.labels for pp in pps), zm)
    if mode == "naive":
        sizes = tuple(h.vertex_set.sizes[a] for a in parts)
        return _q_triple_naive(*rows, *pps, zm, sizes)
    raise InvalidStructure(f"unknown mode {mode!r}")


def q_edge_partition(c: Chain, pe: EdgePartition, mode: str = "fast") -> Fraction:
    """q of an edge partition of the chain graph; trivial partition gives d^2."""
    keys = ((0, 1), (0, 2), (1, 2))
    rows = tuple(c.graph.pair(i, j).rows for i, j in keys)
    for (i, j), host in zip(keys, rows):
        if pe.pair(i, j).host_rows != host:
            raise InvalidStructure(f"edge partition host disagrees with chain at {(i, j)}")
    return q_cell_chain(c.hyper, (0, 1, 2), rows, tuple(pe.pair(i, j) for i, j in keys), mode)


def q_partition(h: PartiteThreeGraph, p: CylinderChainPartition, mode: str = "fast") -> Fraction:
    """Weight-averaged q over all cylinders; bounded by C(t, 3).  ``fast``
    sums a located chain's triangle mass rest * tri / space times d^2 =
    (hyp / tri)^2, as integer numerators per triangle count divided once
    (``core.fraction_sum``); ``naive`` runs :func:`q_cell_chain` on
    each cylinder in fractions."""
    vs = h.vertex_set
    if p.vertex.vertex_set != vs:
        raise InvalidStructure("partition and hypergraph disagree on parts")
    if mode == "fast":
        by_tri: dict[int, int] = {}
        for _, rest, masks, parts, _, cells in located_cell_chains(h, p):
            tri, hyp, _ = _chain_bound(h, (masks, parts, cells))[0]
            if hyp:
                by_tri[tri] = by_tri.get(tri, 0) + rest * hyp * hyp
        return fraction_sum(by_tri, prod(vs.sizes))
    if mode != "naive":
        raise InvalidStructure(f"unknown mode {mode!r}")
    out = Fraction(0)
    for cyl, ep in zip(p.vertex.cylinders, p.edges):
        w = cyl.weight(vs)
        if w == 0:
            continue
        for i, j, k in itertools.combinations(range(vs.t), 3):
            pps = (ep.pair(i, j), ep.pair(i, k), ep.pair(j, k))
            out += w * q_cell_chain(h, (i, j, k), tuple(pp.host_rows for pp in pps), pps, "naive")
    return out


# ---------------------------------------------------------------------------
# Refinement predicates and common refinement.
# ---------------------------------------------------------------------------


def refines_vertex(fine: VertexCylinderPartition, coarse: VertexCylinderPartition) -> bool:
    """Every non-empty cylinder of ``fine`` sits inside one of ``coarse``."""
    if fine.vertex_set != coarse.vertex_set:
        return False
    return all(f.is_empty() or coarse.container(f) is not None for f in fine.cylinders)


def refines_pair(fine: PairPartition, coarse: PairPartition) -> bool:
    """Every non-empty cell of ``fine`` inside a cell of ``coarse``.

    Hosts need not be equal: this is the test used both for plain edge
    refinements (equal hosts) and for cylinder restrictions (fine host
    contained in coarse host).
    """
    if fine.left_size != coarse.left_size or fine.right_size != coarse.right_size:
        return False
    for x in range(fine.left_size):
        if fine.host_rows[x] & ~coarse.host_rows[x]:
            return False
    for cell in fine.cells:
        if not any(cell[x] for x in range(fine.left_size)):
            continue
        found = False
        for big in coarse.cells:
            if all(cell[x] & ~big[x] == 0 for x in range(fine.left_size)):
                found = True
                break
        if not found:
            return False
    return True


def refines_edge(fine: EdgePartition, coarse: EdgePartition) -> bool:
    if set(fine.pairs) != set(coarse.pairs):
        return False
    return all(refines_pair(fine.pairs[k], coarse.pairs[k]) for k in fine.pairs)


def refines_cylinder_chain(fine: CylinderChainPartition, coarse: CylinderChainPartition) -> bool:
    """Vertex refinement plus per-cylinder edge refinement after restriction."""
    return refines_vertex(fine.vertex, coarse.vertex) and all(
        refines_pair(fine_pp, coarse.edges[coarse.vertex.container(fcyl)].pairs[key])
        for fcyl, ep in zip(fine.vertex.cylinders, fine.edges)
        if not fcyl.is_empty()
        for key, fine_pp in ep.pairs.items()
    )


def common_refinement(pps: Sequence[PairPartition]) -> PairPartition:
    """Coarsest partition refining each input; inputs must share a host."""
    if not pps:
        raise InvalidStructure("need at least one partition")
    first = pps[0]
    for pp in pps[1:]:
        if (
            pp.host_rows != first.host_rows
            or pp.left_mask != first.left_mask
            or pp.right_mask != first.right_mask
        ):
            raise InvalidStructure("common refinement requires identical hosts")
    if len(pps) == 1:
        return first
    labels = [pp.labels for pp in pps]
    cells = cells_by_label(
        first.left_size, first.host_rows, lambda x, y: tuple(lab[x][y] for lab in labels)
    )
    return PairPartition(
        first.left_size,
        first.right_size,
        first.left_mask,
        first.right_mask,
        first.host_rows,
        cells,
    )


# ---------------------------------------------------------------------------
# Venn diagram conversion.
# ---------------------------------------------------------------------------


def venn_diagram(p: CylinderChainPartition) -> ChainPartition:
    """Flatten a cylinder chain partition into a chain partition.

    Vertex parts are the partition's atoms,
    :meth:`VertexCylinderPartition.atoms`; edges between two atoms are
    grouped by their cell membership across the cylinders whose keys both
    atoms carry.
    """
    vs = p.vertex.vertex_set
    atoms = p.vertex.atoms()
    off = vs.offsets
    parts = tuple(tuple(off[i] + a for a in locs) for i, locs, _ in atoms)

    # atoms runs in part order, so a_idx < b_idx gives i <= j.
    pairs: dict[tuple[int, int], PairPartition] = {}
    for a_idx in range(len(atoms)):
        i, locs_a, key_a = atoms[a_idx]
        for b_idx in range(a_idx + 1, len(atoms)):
            j, locs_b, key_b = atoms[b_idx]
            if i == j:
                label = lambda pa, pb: 0
            else:
                lab_per_cyl = [p.edges[c].pair(i, j).labels for c in bits(key_a & key_b)]
                label = lambda pa, pb: tuple(lab[locs_a[pa]][locs_b[pb]] for lab in lab_per_cyl)
            pairs[(a_idx, b_idx)] = PairPartition.complete(len(locs_a), len(locs_b), label)

    return ChainPartition(vs.total, parts, pairs)


def restrict_chain_partition(
    q: ChainPartition, groups: Sequence[Sequence[Sequence[int]]]
) -> ChainPartition:
    """Chain partition on refined vertex parts; edge cells restricted.

    ``groups[o]`` lists the new parts cut from ``q.parts[o]``, in order; the
    new parts are these lists concatenated over o, so new parts a < b come
    from origins o_a <= o_b and read the origin pair (o_a, o_b) as it is
    stored.  Pairs of parts cut from one origin get the trivial (complete)
    partition, matching the convention that same-origin pairs carry no edge
    structure.
    """
    if len(groups) != len(q.parts):
        raise InvalidStructure("need one group list per part")
    pt, origin, pos = [], [], []
    for o, cut in enumerate(groups):
        at = {v: i for i, v in enumerate(q.parts[o])}
        for part in cut:
            part = tuple(sorted(part))
            if not set(part) <= at.keys():
                raise InvalidStructure("refined part not inside its origin")
            pt.append(part)
            origin.append(o)
            pos.append([at[v] for v in part])
    pairs = {}
    for a in range(len(pt)):
        for b in range(a + 1, len(pt)):
            oa, ob = origin[a], origin[b]
            if oa == ob:
                label = lambda pa, pb: 0
            else:
                lab, pos_a, pos_b = q.pairs[oa, ob].labels, pos[a], pos[b]
                label = lambda pa, pb: lab[pos_a[pa]][pos_b[pb]]
            pairs[(a, b)] = PairPartition.complete(len(pt[a]), len(pt[b]), label)
    return ChainPartition(q.n, tuple(pt), pairs)


# ---------------------------------------------------------------------------
# Audits.
# ---------------------------------------------------------------------------


def cells_quasirandom(
    pps: Sequence[PairPartition], combo: Sequence[int], psi: PolyFunction
) -> bool:
    """The cell half of the (eta, psi) test, and its one home.

    Cell ``combo[n]`` of ``pps[n]`` must be psi(delta)-quasirandom for
    every n, delta being the product of the cells' densities.  The chain
    half, certificate <= eta, is read from :func:`cell_chain_stats`.

    In integers: delta = E / A, E the product of the cells' edge counts and
    A of their pairs' areas.  A = 0 gives delta = 0/0 = 0, where only a
    zero certificate passes.  Otherwise each cell holds at most its area,
    so delta <= 1 and psi(delta) = min(c delta^k, delta) = c delta^k (c <= 1
    and k >= 1), and a certificate N / D passes iff N cd A^k <= cn E^k D
    for c = cn / cd.
    """
    e = a = 1
    for pp, idx in zip(pps, combo):
        e *= pp.edge_counts[idx]
        a *= pp.area
    if not a:
        return all(pp.certificate_terms[idx][0] == 0 for pp, idx in zip(pps, combo))
    c, k = psi.c, psi.k
    lhs, rhs = c.denominator * a**k, c.numerator * e**k
    for pp, idx in zip(pps, combo):
        n, d = pp.certificate_terms[idx]
        if n * lhs > rhs * d:
            return False
    return True


@dataclass(frozen=True)
class HomogeneityAudit:
    """Triple-mass accounting for a decomposition.

    ``homogeneous_mass`` is over all ordered vertex triples (triples not
    crossing three distinct parts count as failures);
    ``homogeneous_crossing_mass`` restricts the denominator to crossing
    triples.  ``quasirandom_mass`` uses the same ordered convention for the
    graph quasirandomness condition.  Degenerate chains (no triangles) count
    as homogeneous.
    """

    gamma: Fraction
    homogeneous_mass: Fraction
    homogeneous_crossing_mass: Fraction
    quasirandom_mass: Fraction
    degenerate_mass: Fraction
    noncrossing_mass: Fraction
    mode: str = "exhaustive"
    # Filled by decomposition pipelines: ordered pair-mass of part pairs
    # whose bipartite density falls at or below the sparseness threshold.
    sparse_pair_mass: Fraction | None = None


def homogeneity_audit(
    h: ThreeGraph | PartiteThreeGraph,
    q: ChainPartition,
    gamma: Fraction,
    psi: PolyFunction | None = None,
) -> HomogeneityAudit:
    """Exact triple-mass audit of a chain partition against density windows.

    A triple is homogeneous when its chain's relative density lies in
    [0, gamma] or [1 - gamma, 1]; quasirandom (when psi is given) when all
    three of its chain's bipartite cells are psi(delta)-quasirandom for
    delta the product of the cell densities.
    """
    if isinstance(h, PartiteThreeGraph):
        h = h.to_three_graph()
    if h.n != q.n:
        raise InvalidStructure("universe size mismatch")
    n = q.n
    if n == 0:
        one = Fraction(1)
        return HomogeneityAudit(gamma, one, one, one, Fraction(0), Fraction(0))

    hp = partite_from_three_graph(h, q.parts)
    gn, gd = gamma.numerator, gamma.denominator
    hom_num = qr_num = crossing = 0
    for pa, pb, pc in itertools.combinations(range(len(q.parts)), 3):
        crossing += 6 * len(q.parts[pa]) * len(q.parts[pb]) * len(q.parts[pc])
        pps = (q.pairs[(pa, pb)], q.pairs[(pa, pc)], q.pairs[(pb, pc)])
        tri, hyp, _ = triangle_tallies(
            tuple(pp.host_rows for pp in pps),
            tuple(pp.labels for pp in pps),
            hp.zmasks(pa, pb, pc),
        )
        for combo, t_cnt in tri.items():
            # d = hyp / t_cnt against the windows [0, gamma] and [1 - gamma, 1].
            scaled = hyp.get(combo, 0) * gd
            if scaled <= gn * t_cnt or scaled >= (gd - gn) * t_cnt:
                hom_num += 6 * t_cnt
            if psi is not None and cells_quasirandom(pps, combo, psi):
                qr_num += 6 * t_cnt

    total = n**3
    return HomogeneityAudit(
        gamma=gamma,
        homogeneous_mass=Fraction(hom_num, total),
        homogeneous_crossing_mass=ratio(hom_num, crossing),
        quasirandom_mass=Fraction(qr_num, total) if psi is not None else Fraction(0),
        degenerate_mass=Fraction(0),
        noncrossing_mass=Fraction(total - crossing, total),
    )


@dataclass(frozen=True)
class CylinderAudit:
    """Tuple-mass accounting for a cylinder chain partition."""

    good_mass: Fraction
    degenerate_mass: Fraction
    mode: str


def _chain_bound(h: PartiteThreeGraph, key: tuple) -> tuple[tuple, ChainPass | None]:
    """The stored (triangles, hyperedges, bound) of the cell chain ``key``,
    and the kernel's first pass when this call stored them (else None).

    ``bound`` is the Cauchy-Schwarz bound on the chain certificate as an
    integer (numerator, denominator).  When no y of the chain is met by two
    x (the pass is not ``paired``), the bound is the certificate and is
    stored as the exact value too.
    """
    index = h.index
    got = index.cell_chains.get(key)
    if got is not None:
        return got, None
    masks, parts, cells = key
    fp = chain_first_pass(cells, masks, h.zmasks(*parts))
    bound = fp.scaled(fp.diagonal)
    got = index.cell_chains[key] = (fp.triangles, fp.hyperedges, bound)
    if not fp.paired:
        index.chain_values[key] = Fraction(*bound)
    return got, fp


def _chain_value(h: PartiteThreeGraph, key: tuple, fp: ChainPass | None) -> Fraction:
    """The stored certificate of the cell chain ``key``, its pair loop run
    at most once: from ``fp`` when the caller's read stored it, else from a
    new first pass.  The fill builds one Fraction, the value."""
    values = h.index.chain_values
    value = values.get(key)
    if value is None:
        if fp is None:
            masks, parts, cells = key
            fp = chain_first_pass(cells, masks, h.zmasks(*parts))
        value = values[key] = Fraction(*fp.scaled(chain_pair_total(fp)))
    return value


def cell_chain_stats(
    h: PartiteThreeGraph,
    masks: tuple[int, int, int],
    parts: tuple[int, int, int],
    cells: tuple[Sequence[int], Sequence[int], Sequence[int]],
) -> tuple[int, int, Fraction]:
    """(triangles, hyperedges, chain certificate) of one cell chain.

    The cell-chain evaluator.  ``masks`` are the cylinder's vertex masks on
    ``parts`` = (i, j, k) and ``cells`` the row tuples of its (i, j),
    (i, k) and (j, k) cells.  The chain is certified where it lies, by the
    octahedral kernel's two halves
    (:func:`regulab.quasirandom.chain_first_pass` and
    :func:`regulab.quasirandom.chain_pair_total`), and never copied out.
    Results are kept on ``h``'s hyperedge index, keyed by this cell
    content: (triangles, hyperedges, bound) in ``cell_chains`` on a chain's
    first read, and the exact certificate in ``chain_values`` once asked
    for, so the pair loop runs at most once per chain and hypergraph,
    however many audits, searches or engine steps read it.  The first pass
    runs again only for a chain whose certificate is asked for after a
    read that had no use for it, such as q's.  A chain without triangles
    has certificate 0.
    """
    key = (masks, parts, cells)
    (tri, hyp, _), fp = _chain_bound(h, key)
    return tri, hyp, _chain_value(h, key, fp)


def cell_chain_within(
    h: PartiteThreeGraph,
    masks: tuple[int, int, int],
    parts: tuple[int, int, int],
    cells: tuple[Sequence[int], Sequence[int], Sequence[int]],
    eta: Fraction,
) -> bool:
    """Whether one cell chain's certificate is at most ``eta``, bound first.

    The chain is given as :func:`cell_chain_stats` takes it.  The stored
    Cauchy-Schwarz bound decides when it is at most eta; only above eta is
    the exact certificate read, its pair loop continuing from the first
    pass when this read is the chain's first.  Both tests cross-multiply
    integers; a chain without triangles, or with an empty pair, has bound
    0 and passes.
    """
    key = (masks, parts, cells)
    (_, _, (n, d)), fp = _chain_bound(h, key)
    en, ed = eta.numerator, eta.denominator
    if n * ed <= en * d:
        return True
    value = _chain_value(h, key, fp)
    return value.numerator * ed <= en * value.denominator


def located_cell_chains(h: PartiteThreeGraph, p: CylinderChainPartition):
    """(ci, rest, masks, parts, combo, cells) of every located cell chain of
    ``p``'s non-empty cylinders: cylinders, then part triples, then cell
    combinations.  ``masks`` are the cylinder's masks on ``parts`` and
    ``rest`` the product of its other masks' sizes.  The chain's triangle
    mass, the share of the tuple space whose projection on ``parts`` is
    one of its triangles, is rest * triangles / |X_1 x ... x X_t|.  The
    walk reads nothing from the evaluator: each caller reads what it
    needs, the counts or the verdict first."""
    vs = h.vertex_set
    for ci, (cyl, ep) in enumerate(zip(p.vertex.cylinders, p.edges)):
        sizes = cyl.sizes()
        if not all(sizes):
            continue
        volume = prod(sizes)
        for parts in itertools.combinations(range(vs.t), 3):
            i, j, k = parts
            pps = (ep.pair(i, j), ep.pair(i, k), ep.pair(j, k))
            masks = (cyl.masks[i], cyl.masks[j], cyl.masks[k])
            rest = volume // (sizes[i] * sizes[j] * sizes[k])
            combos = itertools.product(*(range(pp.cell_count) for pp in pps))
            for combo, cells in zip(combos, itertools.product(*(pp.cells for pp in pps))):
                yield ci, rest, masks, parts, combo, cells


def extract_cell_chain(
    h: PartiteThreeGraph,
    masks: tuple[int, int, int],
    parts: tuple[int, int, int],
    cells: tuple[Sequence[int], Sequence[int], Sequence[int]],
) -> Chain:
    """Standalone tripartite chain for one cell combination (compact ids).

    The one sub-chain cutter: vertices outside ``masks`` are dropped, the
    rest renumbered in order, cell edges kept between surviving vertices,
    and hyperedges kept on the surviving triangles.
    """
    names = h.vertex_set.names
    keep = [list(bits(m)) for m in masks]
    remap = [{old: new for new, old in enumerate(kp)} for kp in keep]
    sizes = tuple(len(kp) for kp in keep)
    sub_vs = PartiteVertexSet(tuple(names[a] for a in parts), sizes)

    def compact(rows, src, dst):
        return tuple(
            sum(1 << remap[dst][y] for y in bits(rows[x] & masks[dst])) for x in keep[src]
        )

    pairs = ((0, 1), (0, 2), (1, 2))
    g = MultipartiteGraph(
        sub_vs,
        {
            (a, b): BipartiteGraph(sizes[a], sizes[b], compact(cell, a, b))
            for (a, b), cell in zip(pairs, cells)
        },
    )
    off = sub_vs.offsets
    cell_ab, cell_ac, cell_bc = cells
    triples = []
    for (x, y), m in h.zmasks(*parts).items():
        if masks[0] >> x & 1 and masks[1] >> y & 1 and cell_ab[x] >> y & 1:
            for z in bits(m & masks[2] & cell_ac[x] & cell_bc[y]):
                triples.append((off[0] + remap[0][x], off[1] + remap[1][y], off[2] + remap[2][z]))
    return Chain(g, PartiteThreeGraph.from_triples(sub_vs, triples))


def cell_chain_passes(
    h: PartiteThreeGraph,
    cyl: VertexCylinder,
    ep: EdgePartition,
    parts: tuple[int, int, int],
    combo: Sequence[int],
    eta: Fraction,
    psi: PolyFunction,
) -> bool:
    """The (eta, psi) verdict on one located cell chain.

    ``combo`` indexes cells of ``ep``'s (i, j), (i, k) and (j, k) pairs,
    ``parts`` = (i, j, k).  The cells must pass :func:`cells_quasirandom`;
    only then is the chain read, through :func:`cell_chain_within`.
    """
    i, j, k = parts
    pps = (ep.pair(i, j), ep.pair(i, k), ep.pair(j, k))
    if not cells_quasirandom(pps, combo, psi):
        return False
    masks = (cyl.masks[i], cyl.masks[j], cyl.masks[k])
    cells = tuple(pp.cells[idx] for pp, idx in zip(pps, combo))
    return cell_chain_within(h, masks, parts, cells, eta)


def _good_tuples(vs: PartiteVertexSet, cyl: VertexCylinder, fails) -> int:
    """The tuples of ``cyl`` whose projections avoid every failing chain.

    Per failing triple (i, j, k), ``zs[x][y]`` is the mask of the z that
    close (x, y) into a failing chain (cell rows ANDed).  The parts these
    triples touch are walked in order, each part's choices cut by the
    masks of the triples it closes; the last part is counted by popcount
    and the untouched parts multiply the count.
    """
    cuts = []
    for (i, j, k), chains in fails.items():
        zs = [[0] * vs.sizes[j] for _ in range(vs.sizes[i])]
        hit = 0
        for ab, ac, bc in chains:
            for x in bits(cyl.masks[i]):
                row, zx = zs[x], ac[x]
                for y in bits(ab[x]):
                    row[y] |= zx & bc[y]
                    hit |= row[y]
        if hit:
            cuts.append((i, j, k, zs))
    if not cuts:
        return prod(cyl.sizes())
    touched = sorted({a for cut in cuts for a in cut[:3]})
    levels = [(a, [(i, j, zs) for i, j, k, zs in cuts if k == a]) for a in touched]
    free = prod(m.bit_count() for a, m in enumerate(cyl.masks) if a not in touched)
    return free * _avoiding(cyl.masks, levels, [0] * vs.t, 0)


def _avoiding(masks, levels, choice, d) -> int:
    """Completions of ``choice`` on ``levels[d:]`` that no closing mask cuts."""
    a, cuts = levels[d]
    hit = 0
    for i, j, zs in cuts:
        hit |= zs[choice[i]][choice[j]]
    left = masks[a] & ~hit
    if d == len(levels) - 1:
        return left.bit_count()
    n = 0
    for x in bits(left):
        choice[a] = x
        n += _avoiding(masks, levels, choice, d + 1)
    return n


@dataclass(frozen=True)
class PartitionSurvey:
    """A partition's q, tuple audit and useful chains, each ``(ci, parts,
    combo, cells)`` in walk order, with their total triangle mass."""

    q: Fraction
    audit: CylinderAudit
    useful: tuple[tuple, ...]
    useful_mass: Fraction


def survey_partition(
    h: PartiteThreeGraph,
    p: CylinderChainPartition,
    eta: Fraction,
    psi: PolyFunction,
    cap: int = 10**6,
) -> PartitionSurvey:
    """q, the tuple audit and the useful chains of ``p`` from one walk over
    :func:`located_cell_chains`.

    q is the sum of :func:`q_partition`'s fast mode.  A useful chain fails
    :func:`cell_chain_within`, so it has triangles and a certificate above
    eta; ``useful_mass`` sums their triangle mass.  The audit is the mass
    of tuples whose visible chains all pass :func:`cell_chain_passes`, a
    verdict read once per (masks, parts, cells), so cylinders that share a
    projection share it.  Each failing chain is filed under its cylinder
    and its triangle mass added to ``bad``; :func:`_tuple_audit` reads
    both.  Every mass is an integer numerator over the tuple space until
    the walk ends, and certificates meet eta by cross-multiplying, so the
    walk builds no fraction.
    """
    if h.vertex_set != p.vertex.vertex_set:
        raise InvalidStructure("partition and hypergraph disagree on parts")
    space = prod(h.vertex_set.sizes)
    index = h.index
    mass = bad = 0
    by_tri: dict[int, int] = {}
    useful = []
    verdicts: dict[tuple, bool] = {}
    failing: list[dict[tuple[int, int, int], list]] = [{} for _ in p.vertex.cylinders]
    for ci, rest, masks, parts, combo, cells in located_cell_chains(h, p):
        # The verdict before the counts, so that a chain read here first
        # runs its pair loop, if at all, from the pass that stores it.
        within = cell_chain_within(h, masks, parts, cells, eta)
        key = (masks, parts, cells)
        tri, hyp, _ = index.cell_chains[key]
        if hyp:
            by_tri[tri] = by_tri.get(tri, 0) + rest * hyp * hyp
        if not within:
            useful.append((ci, parts, combo, cells))
            mass += rest * tri
        ok = verdicts.get(key)
        if ok is None:
            cyl, ep = p.vertex.cylinders[ci], p.edges[ci]
            ok = verdicts[key] = cell_chain_passes(h, cyl, ep, parts, combo, eta, psi)
        if not ok:
            failing[ci].setdefault(parts, []).append(cells)
            bad += rest * tri
    audit = _tuple_audit(p.vertex, failing, ratio(bad, space), cap)
    q = fraction_sum(by_tri, space)
    return PartitionSurvey(q, audit, tuple(useful), ratio(mass, space))


def _tuple_audit(pv, failing, bad: Fraction, cap: int) -> CylinderAudit:
    """The good tuple mass of ``pv`` given each cylinder's failing chains
    and their total triangle mass ``bad``.

    Exact up to ``cap`` tuples: a cylinder without a failing chain counts
    its size, any other walks only the parts its failing triples touch
    (:func:`_good_tuples`); the cylinders partition X_1 x ... x X_t.
    Above ``cap``, the certified lower bound 1 - ``bad``, mode
    ``"bounded"``: a tuple's projection on (i, j, k) is a triangle of
    exactly one located chain of its cylinder, so a failing chain spoils
    exactly its triangle mass of the tuples, and the spoiled sets, which
    may overlap, cover at most their sum.  A projection is a triangle of
    its own cells, so ``degenerate_mass`` is always 0.
    """
    vs = pv.vertex_set
    space = prod(vs.sizes)
    if space == 0:
        return CylinderAudit(Fraction(1), Fraction(0), "exhaustive")
    if space <= cap:
        good = sum(_good_tuples(vs, cyl, fails) for cyl, fails in zip(pv.cylinders, failing))
        return CylinderAudit(Fraction(good, space), Fraction(0), "exhaustive")
    return CylinderAudit(max(Fraction(0), 1 - bad), Fraction(0), "bounded")


def cylinder_quasirandomness_audit(
    h: PartiteThreeGraph,
    p: CylinderChainPartition,
    eta: Fraction,
    psi: PolyFunction,
    cap: int = 10**6,
) -> CylinderAudit:
    """Mass of tuples whose visible chains are all (eta, psi)-quasirandom,
    or its certified lower bound above ``cap`` tuples: the audit of
    :func:`survey_partition`."""
    return survey_partition(h, p, eta, psi, cap).audit


@dataclass(frozen=True)
class MarkovCheck:
    mass_bad: Fraction
    gamma: Fraction
    bound: Fraction | None
    direction: str
    ok: bool


def markov_split_check(
    c: Chain,
    vertex_splits: Sequence[Sequence[Sequence[int]]],
    edge_splits: Mapping[tuple[int, int], Sequence[Sequence[int]]] | None,
    gamma: Fraction,
) -> MarkovCheck:
    """Mass of triangles in sub-chains whose density escapes the window.

    With d(H|G) < gamma, a triangle is bad when its containing sub-chain
    (vertex parts x edge parts) has density >= sqrt(gamma); the returned
    mass must be < sqrt(gamma), verified exactly by squaring.  The
    symmetric direction applies when d > 1 - gamma.
    """
    vs = c.vertex_set
    d = relative_density(c)
    if d < gamma:
        direction = "sparse"
    elif d > 1 - gamma:
        direction = "dense"
    else:
        raise InvalidStructure("chain density is not inside either window")

    vlabel = []
    for i, split in enumerate(vertex_splits):
        lab = [-1] * vs.sizes[i]
        for idx, block in enumerate(split):
            for a in block:
                if lab[a] != -1:
                    raise InvalidStructure(f"vertex {a} of part {i} assigned twice")
                lab[a] = idx
        if any(v == -1 for v in lab):
            raise InvalidStructure(f"vertex split of part {i} incomplete")
        vlabel.append(lab)

    # An edge's label is (vertex block, vertex block, edge block), so a
    # triangle's three labels name its six blocks one to one.
    keys = ((0, 1), (0, 2), (1, 2))
    labels = []
    for (i, j) in keys:
        host = c.graph.pair(i, j)
        lab = [[0] * host.right_size for _ in range(host.left_size)]
        if edge_splits is not None and (i, j) in edge_splits:
            blocks = edge_splits[(i, j)]
            seen = [0] * host.left_size
            for idx, rows in enumerate(blocks):
                for x in range(host.left_size):
                    r = rows[x]
                    if r & ~host.rows[x] or r & seen[x]:
                        raise InvalidStructure(f"edge split of pair {(i, j)} invalid at row {x}")
                    seen[x] |= r
                    for y in bits(r):
                        lab[x][y] = idx
            if any(seen[x] != host.rows[x] for x in range(host.left_size)):
                raise InvalidStructure(f"edge split of pair {(i, j)} incomplete")
        labels.append(
            [
                [(vlabel[i][x], vlabel[j][y], lab[x][y]) for y in range(host.right_size)]
                for x in range(host.left_size)
            ]
        )
    tri, hyp, total = triangle_tallies(
        tuple(c.graph.pair(i, j).rows for i, j in keys), tuple(labels), c.hyper.zmasks(0, 1, 2)
    )

    bad = 0
    for key, t_cnt in tri.items():
        dens = Fraction(hyp.get(key, 0), t_cnt)
        escape = dens if direction == "sparse" else 1 - dens
        if escape * escape >= gamma:
            bad += t_cnt
    mass_bad = ratio(bad, total)
    bound = rational_sqrt(gamma)
    ok = mass_bad * mass_bad < gamma
    return MarkovCheck(mass_bad, gamma, bound, direction, ok)
