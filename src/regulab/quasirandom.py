"""Quasirandomness functionals for bipartite graphs and chains.

The pair functional sums f(x,y)f(x',y)f(x,y')f(x',y') over all ordered
choices (diagonal terms included); the chain functional is the analogous
eight-fold sum over two choices in each of the three parts, applied to the
deviation f(x,y,z) = (1_E(H) - d(H|G)) restricted to triangles of G.

Every certificate has a ``fast`` mode (codegree / popcount kernels, exact
integer arithmetic) and a ``naive`` mode, the literal nested sums
:func:`c4_sum` and :func:`oct_sum` over a scaled integer table.  The two
must agree exactly; tests enforce this.  The fast c4 kernel
:func:`pair_raw_scaled` returns an integer s, a pair certificate's value
times area^6; the engines decide with s, and only
:func:`masked_pair_quasirandomness` builds the certificate from it.
:func:`pair_bound_scaled` bounds s by Cauchy-Schwarz from the pair's edge
count and area alone; ``dlr`` reads it first and runs the kernel only where
the bound leaves its verdict undecided.

:func:`masked_chain_quasirandomness` is the one fast octahedral kernel.
It takes a chain where it lies, as three pair rows, three vertex masks and
the part triple's hyperedge z-masks, so a cell chain of a larger
hypergraph is certified without being copied out;
:func:`chain_quasirandomness` calls it on a standalone chain's full masks.
It runs in two halves, which the cell-chain evaluator also calls apart.
:func:`chain_first_pass` counts the chain in one O(X Y) walk that ORs
its triangle and hyperedge z-masks into per-y planes concatenated over x,
one W-bit slot per x, and bounds its raw sum by Cauchy-Schwarz from
O(Y^2) ANDs and popcounts of those planes.  :func:`chain_pair_total`
continues from the planes to the exact sum in O(X^2 Y^2), with one AND
and one popcount per pair of x rows for each of the five weight classes
u^k v^(4-k) of the deviation product, and each distinct vector of class
counts weighed once.  The kernel builds its certificate's three fractions
straight from integer counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Mapping, NamedTuple, Sequence

from .core import (
    BipartiteGraph,
    Chain,
    InvalidStructure,
    MultipartiteGraph,
    bits,
    product_density,
    relative_density,
)


@dataclass(frozen=True)
class PolyFunction:
    """x -> min(c * x**k, x): the regularity-rate functions used everywhere.

    c in (0, 1] and k >= 1 keep the function increasing and at most the
    identity on [0, 1].
    """

    c: Fraction
    k: int

    def __post_init__(self):
        if not (0 < self.c <= 1):
            raise InvalidStructure("coefficient must lie in (0, 1]")
        if self.k < 1:
            raise InvalidStructure("exponent must be a positive integer")

    def __call__(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        return min(self.c * x**self.k, x)

    @classmethod
    def parse(cls, text: str) -> "PolyFunction":
        """Parse "c,k" with c a rational like 1/16 or 2**-100."""
        try:
            c_s, k_s = text.split(",")
            c_s = c_s.strip()
            if "**" in c_s:
                base, exp = c_s.split("**")
                c = Fraction(int(base)) ** int(exp)
            else:
                c = Fraction(c_s)
            return cls(c, int(k_s))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidStructure(f"cannot parse rate function {text!r}: {exc}")


@dataclass(frozen=True)
class QuasirandomnessCertificate:
    """Raw functional value, its normalizer, and their exact quotient.

    ``value`` is the least alpha (resp. eta) for which the object is
    alpha-quasirandom.  A zero normalizer (empty part or empty triangle
    set) is flagged degenerate and reports value 0.
    """

    raw_sum: Fraction
    normalizer: Fraction
    value: Fraction
    degenerate: bool = False


def _as_table2(f) -> list[list[Fraction]]:
    table = f.table if isinstance(f, DeviationFunction2) else f
    return [[Fraction(v) for v in row] for row in table]


def _as_table3(f) -> list[list[list[Fraction]]]:
    table = f.table if isinstance(f, DeviationFunction3) else f
    return [[[Fraction(v) for v in col] for col in row] for row in table]


@dataclass(frozen=True)
class DeviationFunction2:
    """A rational table on X x Y with entries in [-1, 1]."""

    table: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        widths = {len(r) for r in self.table}
        if len(widths) > 1:
            raise InvalidStructure("ragged table")
        for row in self.table:
            for v in row:
                if not -1 <= v <= 1:
                    raise InvalidStructure(f"entry {v} outside [-1, 1]")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "DeviationFunction2":
        return cls(tuple(tuple(Fraction(v) for v in r) for r in rows))

    @classmethod
    def from_bipartite(cls, g: BipartiteGraph) -> "DeviationFunction2":
        d = g.density()
        return cls(
            tuple(
                tuple((1 - d) if g.has_edge(x, y) else -d for y in range(g.right_size))
                for x in range(g.left_size)
            )
        )


@dataclass(frozen=True)
class DeviationFunction3:
    """A rational table on X x Y x Z, zero off its support mask."""

    table: tuple[tuple[tuple[Fraction, ...], ...], ...]
    support: frozenset[tuple[int, int, int]] | None = None

    def __post_init__(self):
        for x, plane in enumerate(self.table):
            for y, col in enumerate(plane):
                for z, v in enumerate(col):
                    if not -1 <= v <= 1:
                        raise InvalidStructure(f"entry {v} outside [-1, 1]")
                    if self.support is not None and v and (x, y, z) not in self.support:
                        raise InvalidStructure(f"nonzero entry off support at {(x, y, z)}")

    @classmethod
    def from_chain(cls, c: Chain) -> "DeviationFunction3":
        vs = c.vertex_set
        n0, n1, n2 = vs.sizes
        off = vs.offsets
        d = relative_density(c)
        ab, ac, bc = c.graph.pair(0, 1), c.graph.pair(0, 2), c.graph.pair(1, 2)
        table = []
        support = set()
        for x in range(n0):
            plane = []
            for y in range(n1):
                col = []
                tri_mask = (ac.rows[x] & bc.rows[y]) if ab.has_edge(x, y) else 0
                for z in range(n2):
                    if tri_mask >> z & 1:
                        support.add((x, y, z))
                        is_edge = c.hyper.has_triple(off[0] + x, off[1] + y, off[2] + z)
                        col.append((1 - d) if is_edge else -d)
                    else:
                        col.append(Fraction(0))
                plane.append(tuple(col))
            table.append(tuple(plane))
        return cls(tuple(tuple(p) for p in table), frozenset(support))


def _scale2(table: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    denoms = [v.denominator for row in table for v in row] or [1]
    scale = lcm(*denoms)
    return [[int(v * scale) for v in row] for row in table], scale


def _scale3(table) -> tuple[list[list[list[int]]], int]:
    denoms = [v.denominator for plane in table for col in plane for v in col] or [1]
    scale = lcm(*denoms)
    return [[[int(v * scale) for v in col] for col in plane] for plane in table], scale


def c4_sum(f) -> Fraction:
    """Four-fold pair functional of a rational table, as the literal
    four-index sum; always >= 0.  The naive oracle of the pair kernel."""
    table = _as_table2(f)
    nx = len(table)
    ny = len(table[0]) if nx else 0
    if nx == 0 or ny == 0:
        return Fraction(0)
    F, scale = _scale2(table)
    total = 0
    for x in range(nx):
        for x2 in range(nx):
            for y in range(ny):
                for y2 in range(ny):
                    total += F[x][y] * F[x2][y] * F[x][y2] * F[x2][y2]
    return Fraction(total, scale**4)


def oct_sum(f) -> Fraction:
    """Eight-fold octahedral functional of a rational 3d table, as the
    literal six-index sum; always >= 0.  The naive oracle of the chain
    kernel."""
    table = _as_table3(f)
    nx = len(table)
    ny = len(table[0]) if nx else 0
    nz = len(table[0][0]) if ny else 0
    if nx == 0 or ny == 0 or nz == 0:
        return Fraction(0)
    F, scale = _scale3(table)
    total = 0
    for x in range(nx):
        for x2 in range(nx):
            for y in range(ny):
                for y2 in range(ny):
                    for z in range(nz):
                        for z2 in range(nz):
                            total += (
                                F[x][y][z]
                                * F[x2][y][z]
                                * F[x][y2][z]
                                * F[x2][y2][z]
                                * F[x][y][z2]
                                * F[x2][y][z2]
                                * F[x][y2][z2]
                                * F[x2][y2][z2]
                            )
    return Fraction(total, scale**8)


def pair_raw_scaled(rows: Sequence[int], xs: Sequence[int], right_mask: int, e: int, area: int) -> int:
    """c4 raw sum of (1_E - e/area) scaled by area, over rows[xs] & right_mask.

    With b = -e the scaled value is area + b on edges and b off them, so
    rows i, j with degrees d_i, d_j and codegree c_ij give the inner sum
    s_ij = area^2 c_ij + l_i + l_j + k, where l_i = area b d_i and
    k = b^2 ny.  Summed over ordered pairs, s_ij^2 needs from the pair loop
    only sum c_ij^2, sum c_ij and sum d_i c_ij; the rest comes from the
    degrees.  The result is the exact integer of the literal sum.  An empty
    or complete pair has the zero deviation, so its sum is 0.
    """
    if e == 0 or e == area:
        return 0
    rs = [rows[x] & right_mask for x in xs]
    degs = [r.bit_count() for r in rs]
    n = len(rs)
    d_sum, d_sq = sum(degs), sum(map(mul, degs, degs))
    c_sq, c_sum, c_deg = d_sq, d_sum, d_sq  # the diagonal: c_ii = d_i
    for i, ri in enumerate(rs):
        cs = [(ri & rj).bit_count() for rj in rs[i + 1 :]]  # c_ij for j > i
        c_sq += 2 * sum(map(mul, cs, cs))
        row = sum(cs)
        c_sum += 2 * row
        c_deg += degs[i] * row + sum(map(mul, cs, degs[i + 1 :]))
    a2 = area * area
    lin = area * -e  # l_i = lin * d_i
    k = e * e * right_mask.bit_count()
    l_sum, l_sq = lin * d_sum, lin * lin * d_sq
    return (
        a2 * a2 * c_sq
        + 2 * a2 * (2 * lin * c_deg + k * c_sum)
        + 2 * n * l_sq
        + 2 * l_sum * l_sum
        + 4 * n * k * l_sum
        + n * n * k * k
    )


def pair_bound_scaled(e: int, area: int) -> int:
    """Cauchy-Schwarz upper bound on :func:`pair_raw_scaled` for a pair of
    ``e`` edges on ``area`` cells: area^2 (e (area - e))^2, from the two
    counts alone.

    With F = area 1_E - e on the masked pair, the squared row norms sum to
    the sum of F^2 over the cells, e (area - e)^2 + (area - e) e^2 =
    area e (area - e).  The raw sum is the sum over ordered rows (x, x') of
    <F_x, F_x'>^2, and <F_x, F_x'>^2 <= |F_x|^2 |F_x'|^2 bounds it by the
    square of that sum.  So the certificate s / area^6 is at most
    d^2 (1 - d)^2 with d = e / area, and the bound is exact when F has rank
    one: every row full or empty on the mask, one row, or one column.
    """
    h = e * (area - e)
    return area * area * h * h


def pair_quasirandomness(g: BipartiteGraph, mode: str = "fast") -> QuasirandomnessCertificate:
    """Certificate for a bipartite pair with f = 1_E - density; fast mode is
    :func:`masked_pair_quasirandomness` on full masks."""
    l, r = g.left_size, g.right_size
    if mode == "fast":
        return masked_pair_quasirandomness(g.rows, range(l), (1 << r) - 1)
    if mode != "naive":
        raise InvalidStructure(f"unknown mode {mode!r}")
    if l == 0 or r == 0:
        return QuasirandomnessCertificate(Fraction(0), Fraction(0), Fraction(0), True)
    raw = c4_sum(DeviationFunction2.from_bipartite(g))
    norm = Fraction(l * l * r * r)
    return QuasirandomnessCertificate(raw, norm, raw / norm, False)


def masked_pair_quasirandomness(
    rows: Sequence[int], left_indices: Sequence[int], right_mask: int
) -> QuasirandomnessCertificate:
    """Certificate for the pair induced on a row subset and column mask:
    raw sum s / area^4, normalizer area^2, value s / area^6."""
    l = len(left_indices)
    r = right_mask.bit_count()
    if l == 0 or r == 0:
        return QuasirandomnessCertificate(Fraction(0), Fraction(0), Fraction(0), True)
    e = sum((rows[x] & right_mask).bit_count() for x in left_indices)
    area = l * r
    s = pair_raw_scaled(rows, left_indices, right_mask, e, area)
    raw = Fraction(s, area**4)
    return QuasirandomnessCertificate(raw, Fraction(area * area), Fraction(s, area**6), False)


def graph_quasirandomness(
    g: MultipartiteGraph, mode: str = "fast"
) -> dict[tuple[int, int], QuasirandomnessCertificate]:
    """All pair certificates of a multipartite graph."""
    return {
        (i, j): pair_quasirandomness(g.pair(i, j), mode=mode)
        for i in range(g.t)
        for j in range(i + 1, g.t)
    }


def is_graph_quasirandom(g: MultipartiteGraph, alpha: Fraction, mode: str = "fast") -> bool:
    return all(cert.value <= alpha for cert in graph_quasirandomness(g, mode).values())


def _chain_certificate(raw: Fraction, dprod: Fraction, volume: int) -> QuasirandomnessCertificate:
    """Certificate with normalizer dprod^4 volume^2; degenerate when that is 0."""
    norm = dprod**4 * Fraction(volume * volume)
    if norm == 0:
        return QuasirandomnessCertificate(raw, norm, Fraction(0), True)
    return QuasirandomnessCertificate(raw, norm, raw / norm, False)


class ChainPass(NamedTuple):
    """The octahedral kernel's first pass over a chain where it lies.

    ``triangles`` q and ``hyperedges`` p count the chain; ``volume`` is
    n0 n1 n2 and ``density`` the product of its three pair edge counts on
    the masks.  ``weights`` are the class weights u^k v^(4-k), k = 4..0,
    and ``shift`` the slot width W.  ``planes`` holds, per y that carries
    a triangle, its triangle and hyperedge planes (T, U): the z-masks
    through (x, y, .) of every x that carries a triangle, each x in its own
    slot of W bits.  ``diagonal`` is the Cauchy-Schwarz bound B on the raw
    sum, and ``paired`` tells whether two x meet some y; without that, B
    is the raw sum.  The pair loop reads the planes.
    """

    triangles: int
    hyperedges: int
    volume: int
    density: int
    weights: tuple[int, int, int, int, int]
    shift: int
    diagonal: int
    paired: bool
    planes: list[tuple[int, int]]

    def scaled(self, total: int) -> tuple[int, int]:
        """(numerator, denominator) of the certificate of the raw sum
        ``total``: total vol^6 / (q^8 dens^4), and 0 / 1 without triangles."""
        q = self.triangles
        if not q:
            return 0, 1
        return total * self.volume**6, q**8 * self.density**4


def chain_first_pass(
    rows: tuple[Sequence[int], Sequence[int], Sequence[int]],
    masks: tuple[int, int, int],
    zm: Mapping[tuple[int, int], int],
) -> ChainPass:
    """The triangle and hyperedge pass of the octahedral kernel, its planes
    concatenated over x, and the bound that they give.

    ``rows`` are the (0, 1), (0, 2) and (1, 2) pair rows in the parts' own
    ids, ``masks`` the chain's vertices in each part and ``zm`` the part
    triple's hyperedge z-masks.  The chain is what a copy would keep: the
    edges inside the masks and the hyperedges on their triangles.

    The deviation takes only three values: u = q - p on hyperedges,
    v = -p on triangles that are not hyperedges, 0 off triangles, where
    d(H|G) = p/q with q the triangle count.  The sum is symmetric in the
    three parts, so it pairs over y: for each pair (y, y') the product
    g = f(., y, .) f(., y', .) takes values in {u^2, uv, v^2, 0}, held per x
    as three disjoint z-masks a, b, c whose union is the common triangles
    t of (x, y) and (x, y').  With S(x, x') the z-sum of g_x g_x', the raw
    sum is the sum over ordered (x, x', y, y') of S(x, x')^2, and
    Cauchy-Schwarz over z gives S(x, x')^2 <= S(x, x) S(x', x'), so it is
    at most B, the sum over ordered (y, y') of D^2 with D the sum over x of
    the diagonal S(x, x) = w4 |a| + w2 |b| + w0 |c|.  A split that only
    one x meets has no other terms, so B is the raw sum when no y is met by
    two x.

    The walk over (x, y) costs O(X Y) and ORs each x's z-masks into the
    planes of its y, at the x's slot; the shift W is the bit length of the
    z mask, so no slot spills into the next.  The planes hold every x at
    once, so D of a pair (y, y') is three popcounts of ANDs of its planes:
    a is U & U', the z's of t in either hyperedge plane are (U | U') & t,
    and B costs O(Y^2) big-int operations.  The pair loop,
    :func:`chain_pair_total`, costs O(X^2 Y^2).
    """
    rows_ab, rows_ac, rows_bc = rows
    mask_x, mask_y, mask_z = masks
    n0, n1, n2 = (m.bit_count() for m in masks)
    W = mask_z.bit_length()
    T, U = {}, {}
    e_ab = e_ac = slot = 0
    paired = False
    for x in bits(mask_x):
        row_ab, row_ac = rows_ab[x] & mask_y, rows_ac[x] & mask_z
        e_ab += row_ab.bit_count()
        e_ac += row_ac.bit_count()
        if not (row_ab and row_ac):
            continue
        carries = False
        for y in bits(row_ab):
            t = row_ac & rows_bc[y]
            if t:
                u = t & zm.get((x, y), 0)
                if y in T:
                    paired = True
                    T[y] |= t << slot
                    U[y] |= u << slot
                else:
                    T[y], U[y] = t << slot, u << slot
                carries = True
        if carries:
            slot += W
    e_bc = sum((rows_bc[y] & mask_z).bit_count() for y in bits(mask_y))
    planes = list(zip(T.values(), U.values()))
    q = sum(t.bit_count() for t in T.values())
    p = sum(u.bit_count() for u in U.values())

    u, v = q - p, -p
    uu, uv_, vv = u * u, u * v, v * v
    weights = (uu * uu, uu * uv_, uv_ * uv_, uv_ * vv, vv * vv)
    w4, _, w2, _, w0 = weights
    # D = w4 na + w2 (nu - na) + w0 (nt - nu), with na = |a|, nt = |t| and
    # nu the z's of t in either hyperedge plane.
    ka, ku = w4 - w2, w2 - w0
    same = cross = 0
    for n, (t1, u1) in enumerate(planes):
        d = (w4 - w0) * u1.bit_count() + w0 * t1.bit_count()  # y' = y: a = u
        same += d * d
        for t2, u2 in planes[n + 1 :]:
            if t := t1 & t2:
                na, nu = (u1 & u2).bit_count(), ((u1 | u2) & t).bit_count()
                d = ka * na + ku * nu + w0 * t.bit_count()
                cross += d * d
    diagonal = same + 2 * cross
    return ChainPass(q, p, n0 * n1 * n2, e_ab * e_ac * e_bc, weights, W, diagonal, paired, planes)


def chain_pair_total(fp: ChainPass) -> int:
    """The exact raw sum of a chain, scaled by q^8, continuing from its
    first pass: per split (y, y'), the diagonal and the row pairs of the
    x that meet it.

    Each y's planes are cut into per-slot (t, u) fields once, not once per
    split, and a split's rows are the slots whose triangle fields meet.
    The product of two rows' g at one z is u^k v^(4-k), and each weight
    class k is one AND and one popcount per row pair: each row cut before
    is packed as (a, b, c) at shifts (0, W, 2W), and the row just cut packs
    the planes that pair with them into class k, so the AND keeps exactly
    the class-k z's.
    A pair's term is the square of sum_k n_k u^k v^(4-k) over its class
    counts n_k; the count vectors are tallied and each distinct one weighed
    once.
    """
    W = fp.shift
    W2, low = 2 * W, (1 << W) - 1
    width = max((t.bit_length() for t, _ in fp.planes), default=0)
    fields = [
        [(t >> s & low, u >> s & low) for s in range(0, width, W)] for t, u in fp.planes
    ]
    # Tallies of the class counts (n4, ..., n0) of the row pairs, by how
    # many ordered (x, x', y, y') each pair stands for: 1 on both diagonals,
    # 2 on one, 4 off both.
    once, twice, four = {}, {}, {}
    for n, f1 in enumerate(fields):
        for m in range(n, len(fields)):
            diag, off = (once, twice) if m == n else (twice, four)
            get = off.get
            packed = []
            for (t1, u1), (t2, u2) in zip(f1, fields[m]):
                if t := t1 & t2:
                    # a: both hyperedges; c: neither; b, the rest of t: one.
                    a = u1 & u2
                    c = t & ~(u1 | u2)
                    b = t ^ a ^ c
                    key = (a.bit_count(), 0, b.bit_count(), 0, c.bit_count())
                    diag[key] = diag.get(key, 0) + 1
                    # Against a packed row, class k = 4..0 keeps a.a',
                    # a.b' + b.a', a.c' + b.b' + c.a', b.c' + c.b', c.c'.
                    c3, c2 = b | a << W, c | b << W | a << W2
                    c1, c0 = (c | b << W) << W, c << W2
                    for row in packed:
                        key = (
                            (row & a).bit_count(),
                            (row & c3).bit_count(),
                            (row & c2).bit_count(),
                            (row & c1).bit_count(),
                            (row & c0).bit_count(),
                        )
                        off[key] = get(key, 0) + 1
                    packed.append(a | b << W | c << W2)
    w4, w3, w2, w1, w0 = fp.weights
    total = 0
    for times, tally in ((1, once), (2, twice), (4, four)):
        for (k4, k3, k2, k1, k0), pairs in tally.items():
            s = w4 * k4 + w3 * k3 + w2 * k2 + w1 * k1 + w0 * k0
            total += times * pairs * s * s
    return total


def masked_chain_quasirandomness(
    rows: tuple[Sequence[int], Sequence[int], Sequence[int]],
    masks: tuple[int, int, int],
    zm: Mapping[tuple[int, int], int],
) -> tuple[int, int, QuasirandomnessCertificate]:
    """(triangles, hyperedges, certificate) of a chain where it lies.

    The one fast octahedral kernel: :func:`chain_first_pass` on the
    arguments, then :func:`chain_pair_total`.  The certificate is the
    copy's, its normalizer the chain's, from the pair densities on the
    masks.  The raw sum, the normalizer and the value are each one fraction
    of integers: with vol = n0 n1 n2 and dens the product of the three pair
    edge counts, the density product is dens / vol^2, the normalizer
    dens^4 / vol^6 and the value total vol^6 / (q^8 dens^4).
    """
    fp = chain_first_pass(rows, masks, zm)
    total = chain_pair_total(fp)
    q, p, vol, dens = fp.triangles, fp.hyperedges, fp.volume, fp.density
    raw = Fraction(total, q**8) if q else Fraction(0)
    if not dens:
        return q, p, _chain_certificate(raw, Fraction(0), vol)
    value = Fraction(*fp.scaled(total))
    return q, p, QuasirandomnessCertificate(raw, Fraction(dens**4, vol**6), value, False)


def chain_quasirandomness(c: Chain, mode: str = "fast") -> QuasirandomnessCertificate:
    """Least eta for which the chain's deviation is eta-quasirandom.

    The normalizer is [d(X,Y) d(X,Z) d(Y,Z)]^4 |X|^2 |Y|^2 |Z|^2 over the
    chain graph's pair densities.  Fast mode is
    :func:`masked_chain_quasirandomness` on full masks; naive mode the
    literal :func:`oct_sum` of :class:`DeviationFunction3`.
    """
    g = c.graph
    if mode == "fast":
        rows = (g.pair(0, 1).rows, g.pair(0, 2).rows, g.pair(1, 2).rows)
        full = tuple((1 << n) - 1 for n in c.vertex_set.sizes)
        return masked_chain_quasirandomness(rows, full, c.hyper.zmasks(0, 1, 2))[2]
    if mode != "naive":
        raise InvalidStructure(f"unknown mode {mode!r}")
    raw = oct_sum(DeviationFunction3.from_chain(c))
    dprod = g.pair_density(0, 1) * g.pair_density(0, 2) * g.pair_density(1, 2)
    return _chain_certificate(raw, dprod, prod(c.vertex_set.sizes))


def eta_psi_check(c: Chain, eta: Fraction, psi: PolyFunction, mode: str = "fast") -> bool:
    """Chain eta-quasirandom and its graph psi(delta(G))-quasirandom."""
    if chain_quasirandomness(c, mode=mode).value > eta:
        return False
    threshold = psi(product_density(c.graph))
    return is_graph_quasirandom(c.graph, threshold, mode=mode)
